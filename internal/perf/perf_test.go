package perf

import (
	"path/filepath"
	"strings"
	"testing"

	"ccnvm/internal/sim"
	"ccnvm/internal/trace"
)

func ledger(overall float64, designs map[string]float64) *Ledger {
	l := &Ledger{Schema: Schema, OpsPerSec: overall, Designs: map[string]DesignPerf{}}
	l.HostFingerprint()
	for d, ops := range designs {
		l.Designs[d] = DesignPerf{OpsPerSec: ops}
	}
	return l
}

func TestCompareSameHost(t *testing.T) {
	pinned := ledger(1000, map[string]float64{"a": 900, "b": 1100})
	if err := Compare(pinned, ledger(900, map[string]float64{"a": 800, "b": 1000})); err != nil {
		t.Fatalf("10%% slowdown must pass the 15%% gate: %v", err)
	}
	err := Compare(pinned, ledger(700, map[string]float64{"a": 900, "b": 1100}))
	if err == nil || !strings.Contains(err.Error(), "overall") {
		t.Fatalf("30%% overall slowdown must fail naming overall, got %v", err)
	}
	err = Compare(pinned, ledger(1000, map[string]float64{"a": 500, "b": 1100}))
	if err == nil || !strings.Contains(err.Error(), "a:") {
		t.Fatalf("per-design slowdown must fail naming the design, got %v", err)
	}
}

func TestCompareCrossHost(t *testing.T) {
	pinned := ledger(1000, map[string]float64{"a": 1000, "b": 1000})
	pinned.CPUs++ // force the cross-host relative path
	// A uniformly 10x faster host must pass: relative standing unchanged.
	if err := Compare(pinned, ledger(10000, map[string]float64{"a": 10000, "b": 10000})); err != nil {
		t.Fatalf("uniform speedup must pass the relative gate: %v", err)
	}
	// One design collapsing relative to its peer must fail even though
	// its absolute ops/sec went up.
	err := Compare(pinned, ledger(10000, map[string]float64{"a": 2000, "b": 20000}))
	if err == nil || !strings.Contains(err.Error(), "relative") {
		t.Fatalf("relative collapse must fail, got %v", err)
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	pinned := ledger(1000, nil)
	pinned.Schema = Schema + 1
	if err := Compare(pinned, ledger(1000, nil)); err == nil {
		t.Fatal("schema mismatch must refuse comparison")
	}
}

func TestSaveLoadNewest(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_10.json", "notes.json"} {
		l := ledger(float64(len(name)), nil)
		if err := l.Save(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Newest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "BENCH_10.json" {
		t.Fatalf("Newest picked %s, want BENCH_10.json (numeric, not lexical, order)", p)
	}
	if _, err := Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := Newest(t.TempDir()); err == nil {
		t.Fatal("Newest on an empty dir must error")
	}
}

// TestMeasureSmoke runs a miniature measurement end to end: one design,
// one benchmark. It pins the ledger invariants the Makefile gate relies
// on rather than any particular speed.
func TestMeasureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement loop")
	}
	l, err := Measure(MeasureOptions{
		Ops:        2000,
		Benchmarks: trace.Benchmarks()[:1],
		Designs:    sim.Designs()[:1],
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Schema != Schema || l.CPUs < 1 || l.GoVersion == "" {
		t.Fatalf("bad fingerprint: %+v", l)
	}
	if l.SimOps != 2000 || l.OpsPerSec <= 0 || l.WallSeconds <= 0 {
		t.Fatalf("bad throughput accounting: %+v", l)
	}
	if len(l.Designs) != 1 {
		t.Fatalf("want 1 design entry, got %d", len(l.Designs))
	}
	if l.Memo.Overall <= 0 || l.Memo.Overall > 1 {
		t.Fatalf("memo overall ratio out of range: %v", l.Memo.Overall)
	}
	// The gate must pass against itself.
	if err := Compare(l, l); err != nil {
		t.Fatal(err)
	}
}
