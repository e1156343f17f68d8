package experiments

import (
	"math"
	"runtime"
	"testing"

	"ccnvm/internal/sim"
	"ccnvm/internal/trace"
)

// eqF compares floats bitwise-identically while treating NaN as equal
// to itself (tiny traces can produce 0/0 normalized writes on both
// sides; that is still "identical").
func eqF(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// workers returns the parallelism to pit against serial execution: the
// machine's CPU count, floored at 8 so the concurrent path is exercised
// even on small CI boxes.
func workers() int {
	if n := runtime.NumCPU(); n > 8 {
		return n
	}
	return 8
}

// TestParallelMatchesSerial runs the full design × benchmark matrix at
// Parallelism 1 and at NumCPU-or-more workers: every cell must be
// bit-identical. Machines share nothing, so any divergence would mean a
// hidden shared-state bug in the simulator or crypto layer.
func TestParallelMatchesSerial(t *testing.T) {
	o := Options{Ops: 8000, Designs: sim.Designs(), Benchmarks: trace.Benchmarks()}
	oa, ob := o, o
	oa.Parallelism = 1
	ob.Parallelism = workers()
	a, err := RunFig5(oa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig5(ob)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range a.Designs {
		for _, bench := range a.Benchmarks {
			ca, cb := a.Cells[d][bench], b.Cells[d][bench]
			if ca.IPC != cb.IPC || ca.Writes != cb.Writes {
				t.Fatalf("%s/%s: parallel cell differs: %+v vs %+v", d, bench, ca, cb)
			}
			if ca.Raw.Cycles != cb.Raw.Cycles || ca.Raw.Instructions != cb.Raw.Instructions {
				t.Fatalf("%s/%s: raw result differs across parallelism", d, bench)
			}
		}
		if !eqF(a.AvgNormIPC[d], b.AvgNormIPC[d]) || !eqF(a.AvgNormWrite[d], b.AvgNormWrite[d]) {
			t.Fatalf("%s: aggregate differs across parallelism", d)
		}
	}
}

// TestNegativeParallelismRunsSerially: a negative width means one
// worker, not zero workers and a deadlocked matrix.
func TestNegativeParallelismRunsSerially(t *testing.T) {
	o := Options{Ops: 2000, Benchmarks: []string{"gcc"}}
	oa, ob := o, o
	oa.Parallelism = 1
	ob.Parallelism = -1
	a, err := RunFig5(oa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig5(ob)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range a.Designs {
		if ca, cb := a.Cells[d]["gcc"], b.Cells[d]["gcc"]; ca.Raw.Cycles != cb.Raw.Cycles || ca.Writes != cb.Writes {
			t.Fatalf("%s: Parallelism -1 differs from 1: %+v vs %+v", d, cb, ca)
		}
	}
}

// TestParallelSweepMatchesSerial applies the same bit-identity check to
// the Figure 6(a)-style sensitivity sweep, which routes through the
// same worker pool per sweep point.
func TestParallelSweepMatchesSerial(t *testing.T) {
	o := Options{Ops: 6000, Benchmarks: []string{"lbm", "gcc"}}
	oa, ob := o, o
	oa.Parallelism = 1
	ob.Parallelism = workers()
	ns := []uint64{8, 16}
	a, err := RunFig6a(oa, ns)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig6a(ob, ns)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range a.Designs {
		pa, pb := a.Points[d], b.Points[d]
		if len(pa) != len(pb) {
			t.Fatalf("%s: point count differs: %d vs %d", d, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i].Param != pb[i].Param || !eqF(pa[i].NormIPC, pb[i].NormIPC) || !eqF(pa[i].NormWrite, pb[i].NormWrite) {
				t.Fatalf("%s point %d: parallel sweep differs: %+v vs %+v", d, i, pa[i], pb[i])
			}
		}
	}
}

// TestParallelLifetimeMatchesSerial covers the remaining parallelized
// entry point, RunLifetime.
func TestParallelLifetimeMatchesSerial(t *testing.T) {
	o := Options{Ops: 8000}
	oa, ob := o, o
	oa.Parallelism = 1
	ob.Parallelism = workers()
	a, err := RunLifetime(oa, "lbm")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLifetime(ob, "lbm")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range a.Designs {
		if a.Writes[d] != b.Writes[d] || a.MaxWear[d] != b.MaxWear[d] || a.RelativeL[d] != b.RelativeL[d] {
			t.Fatalf("%s: parallel lifetime differs", d)
		}
	}
}
