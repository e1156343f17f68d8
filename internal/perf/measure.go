package perf

import (
	"runtime"
	"time"

	"ccnvm/internal/engine"
	"ccnvm/internal/sim"
	"ccnvm/internal/trace"
)

// MeasureOptions parameterize one ledger measurement.
type MeasureOptions struct {
	Ops        int      // memory operations per (design, benchmark) cell
	Seed       int64    // workload seed
	Benchmarks []string // nil = the full eight-benchmark suite
	Designs    []string // nil = the paper's five designs
	Reps       int      // timing repetitions per design, best-of (0 = 3)
}

func (o *MeasureOptions) fill() {
	if o.Ops <= 0 {
		o.Ops = 60000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Benchmarks == nil {
		o.Benchmarks = trace.Benchmarks()
	}
	if o.Designs == nil {
		o.Designs = sim.Designs()
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
}

// Measure runs the ledger measurement: the full design × benchmark
// simulator matrix for throughput, memo rates and allocation density.
// Cells run sequentially on purpose — concurrent cells would contend
// for cores and corrupt each other's wall-clock numbers.
func Measure(o MeasureOptions) (*Ledger, error) {
	o.fill()
	l := &Ledger{
		Schema:     Schema,
		Ops:        o.Ops,
		Seed:       o.Seed,
		Benchmarks: o.Benchmarks,
		Designs:    make(map[string]DesignPerf, len(o.Designs)),
	}
	l.HostFingerprint()

	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)

	// Each design's suite is timed Reps times and the fastest pass is
	// recorded: the simulation is deterministic, so the minimum is the
	// least-noisy estimate — crucial for a stable regression gate on
	// small, shared CI runners.
	var sec engine.SecStats
	for _, d := range o.Designs {
		best := 0.0
		for rep := 0; rep < o.Reps; rep++ {
			dStart := time.Now()
			for _, b := range o.Benchmarks {
				r, err := sim.RunBenchmark(d, b, o.Ops, o.Seed, sim.Config{})
				if err != nil {
					return nil, err
				}
				if rep > 0 {
					continue // count each cell's memo traffic once
				}
				sec.PadCacheHits += r.Sec.PadCacheHits
				sec.PadCacheMisses += r.Sec.PadCacheMisses
				sec.DataMemoHits += r.Sec.DataMemoHits
				sec.DataMemoMisses += r.Sec.DataMemoMisses
				sec.NodeMemoHits += r.Sec.NodeMemoHits
				sec.NodeMemoMisses += r.Sec.NodeMemoMisses
				sec.DefaultLineHits += r.Sec.DefaultLineHits
				sec.DefaultLineMisses += r.Sec.DefaultLineMisses
			}
			if wall := time.Since(dStart).Seconds(); rep == 0 || wall < best {
				best = wall
			}
		}
		ops := int64(o.Ops) * int64(len(o.Benchmarks))
		l.Designs[d] = DesignPerf{WallSeconds: best, OpsPerSec: float64(ops) / best}
		l.SimOps += ops
		l.WallSeconds += best
	}
	l.OpsPerSec = float64(l.SimOps) / l.WallSeconds

	runtime.ReadMemStats(&msAfter)
	if l.SimOps > 0 {
		// The malloc delta spans every repetition; SimOps counts one.
		l.AllocsPerOp = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(l.SimOps*int64(o.Reps))
	}
	l.Memo = MemoRates{
		Pad:     ratio(sec.PadCacheHits, sec.PadCacheMisses),
		Data:    ratio(sec.DataMemoHits, sec.DataMemoMisses),
		Node:    ratio(sec.NodeMemoHits, sec.NodeMemoMisses),
		Overall: sec.MemoHitRatio(),
	}
	return l, nil
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
