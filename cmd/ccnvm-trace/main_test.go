package main

import (
	"os"
	"path/filepath"
	"testing"

	"ccnvm/internal/design"
	"ccnvm/internal/sim"
	"ccnvm/internal/trace"
)

// TestGeneratedTraceReplaysLikeTheGenerator writes a trace file with
// generate, summarizes it, and replays it through trace.Parse and a
// fresh machine: the run must match sim.RunBenchmark on the same
// profile, seed and op count — same cycles, NVM writes and engine
// counters — so an archived trace reproduces the run it came from.
func TestGeneratedTraceReplaysLikeTheGenerator(t *testing.T) {
	const bench, ops, seed = "gcc", 30000, 3
	path := filepath.Join(t.TempDir(), bench+".trc")
	if err := generate(bench, ops, seed, path); err != nil {
		t.Fatal(err)
	}
	if err := summarize(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	replayed, err := trace.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != ops {
		t.Fatalf("parsed %d ops, generated %d", len(replayed), ops)
	}
	m, err := sim.New(sim.Config{Design: design.CCNVM})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Run(bench, replayed)
	want, err := sim.RunBenchmark(design.CCNVM, bench, ops, seed, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want.NVMWrites.Data == 0 {
		t.Fatal("the run wrote nothing to NVM; the comparison would be vacuous")
	}
	if got.Cycles != want.Cycles || got.NVMWrites != want.NVMWrites || got.Sec != want.Sec {
		t.Fatalf("replayed trace diverges from the generator:\n got cycles %d, writes %+v, sec %+v\nwant cycles %d, writes %+v, sec %+v",
			got.Cycles, got.NVMWrites, got.Sec, want.Cycles, want.NVMWrites, want.Sec)
	}
}

// TestNegativeOpsRefused: a negative -ops is an error, which main turns
// into a non-zero exit, not a panic in the trace generator, and no file
// is written.
func TestNegativeOpsRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "neg.trc")
	if err := generate("gcc", -5, 1, path); err == nil {
		t.Fatal("generate -ops -5 succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("generate -ops -5 left %s behind (stat: %v)", path, err)
	}
}
