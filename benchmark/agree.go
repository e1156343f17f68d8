package main

import (
	"fmt"
	"io"
)

// Verdicts of comparing one (metric, workload) pair across two result
// sets A and B.
const (
	verdictAgree      = "agree"      // B's median is no worse than A's by more than the bound
	verdictUnresolved = "unresolved" // it is worse by more, but the pairs do not lean one way: noise wider than the bound
	verdictDisagree   = "disagree"   // it is worse by more, and nine tenths of the pairs say so
)

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(m metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge compares the runs of one metric on one workload, pair by pair
// in run order. Both directions are judged, since neither set is the
// parent of the other: the sets agree when neither is worse than the
// other by more than the metric's bound.
func judge(m metric, a, b []float64) (verdict string, rel float64) {
	ma, mb := median(a), median(b)
	rel = worsening(m, ma, mb)
	if back := worsening(m, mb, ma); back > rel {
		rel = back
		a, b = b, a
	}
	if rel <= m.Bound {
		return verdictAgree, rel
	}
	pairs, worse := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if worsening(m, a[i], b[i]) > 0 {
			worse++
		}
	}
	if float64(worse) >= 0.9*float64(pairs) {
		return verdictDisagree, rel
	}
	return verdictUnresolved, rel
}

// agreeFiles prints one verdict per (end-to-end metric, workload) and
// fails unless every pair agrees.
func agreeFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	values := func(runs []*result, workload, name string) (vs []float64) {
		for _, r := range runs {
			if r.Workload == workload && r.Trace == 0 && r.Correct {
				vs = append(vs, r.Metrics[name])
			}
		}
		return vs
	}
	bad := 0
	fmt.Fprintf(w, "%-20s %-10s %12s %12s %8s %7s  %s\n", "metric", "workload", "median A", "median B", "worse", "bound", "verdict")
	for _, m := range endToEnd {
		for _, wl := range workloadNames {
			va, vb := values(a, wl, m.Name), values(b, wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("agree: no correct untraced run of %s in both files", wl)
			}
			verdict, rel := judge(m, va, vb)
			fmt.Fprintf(w, "%-20s %-10s %12.4f %12.4f %7.2f%% %6.1f%%  %s", m.Name, wl, median(va), median(vb), rel*100, m.Bound*100, verdict)
			if verdict != verdictAgree {
				bad++
			}
			fmt.Fprintln(w)
		}
	}
	if bad > 0 {
		// The rule for a metric that cannot repeat on one commit: it
		// stops gating and stays visible. lat_tail_us went that way when
		// the benchmark was defined.
		return fmt.Errorf("agree: %d (metric, workload) pairs do not agree within their bounds; if the two sets are one commit, demote the metric to per-layer, do not loosen its bound", bad)
	}
	return nil
}
