package main

import (
	"math"
	"sort"
	"time"
)

// median of vs; vs is not modified. 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// percentile returns the q-quantile (nearest rank) of an ascending
// slice and how many samples lie strictly beyond that rank.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailSteps are the percentiles the tail metric may report, highest
// first.
var tailSteps = []float64{0.99, 0.95, 0.90, 0.75}

// tail reports the highest percentile of tailSteps that still has at
// least ten samples beyond it: a percentile resting on fewer samples is
// one slow request, not a property of the system. With fewer than forty
// samples it falls back to the median and says so through q.
func tail(sorted []float64) (v, q float64) {
	for _, q := range tailSteps {
		if v, beyond := percentile(sorted, q); beyond >= 10 {
			return v, q
		}
	}
	v, _ = percentile(sorted, 0.5)
	return v, 0.5
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

func sortedMicros(ds []time.Duration) []float64 {
	out := micros(ds)
	sort.Float64s(out)
	return out
}

// ratio is a/b, 0 when b is 0: a layer that did no work has no ratio.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
