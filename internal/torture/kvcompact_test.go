package torture

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestKVCompactCrashSweep crashes the KV namespace at every host-write
// boundary while a compaction pass runs after every second acknowledged
// batch — so the sweep lands inside the pass's copy loop, between the
// run flush and the manifest commit, and on the manifest slot write
// itself. Every boundary must recover to an exact reachable prefix
// state with the manifest generation intact.
func TestKVCompactCrashSweep(t *testing.T) {
	designs := KVDesigns()
	if len(designs) == 0 {
		t.Fatal("no crash-consistent designs registered")
	}
	r := DefaultRunner()
	for _, d := range designs {
		t.Run(d, func(t *testing.T) {
			t.Parallel()
			spec := Cell{Design: d, Workload: KVWorkload, Seed: 7, Batches: 6, Attack: "none", CompactEvery: 2}
			cells := runKVSweep(t, r, spec, 1)
			if cells < 10 {
				t.Fatalf("compact sweep covered only %d crash points; workload too small to matter", cells)
			}
			t.Logf("%s: %d compaction crash boundaries swept clean", d, cells)
		})
	}
}

// TestKVCompactRebootLoopAxis stacks the axes: compaction every second
// acked batch, a crash at every third write boundary, and a recovery
// that is itself re-crashed twice before the final uninterrupted pass.
// Besides the prefix-state oracles this exercises kv-compact-idempotent:
// the looped recovery must land on the same namespace as a single-shot
// recovery of a pristine clone.
func TestKVCompactRebootLoopAxis(t *testing.T) {
	spec := Cell{Design: "ccnvm", Workload: KVWorkload, Seed: 11, Batches: 5, Attack: "none",
		Reboots: 2, RebootEvery: 2, CompactEvery: 2}
	cells := runKVSweep(t, DefaultRunner(), spec, 3)
	if cells < 4 {
		t.Fatalf("only %d compact reboot-loop cells ran", cells)
	}
	t.Logf("%d compact reboot-loop cells survived", cells)
}

// TestKVCompactCellValidate: Validate refuses a negative compaction
// stride and accepts a positive one, which the cell's spec then names.
func TestKVCompactCellValidate(t *testing.T) {
	c := Cell{Design: "ccnvm", Workload: KVWorkload, Attack: "none", Seed: 1, Batches: 3, CrashAt: 4, CompactEvery: -1}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "compact=-1 out of range") {
		t.Fatalf("negative compaction stride accepted: %v", err)
	}
	c.CompactEvery = 2
	if err := c.Validate(); err != nil {
		t.Fatalf("valid compact cell rejected: %v", err)
	}
	if s := c.String(); !strings.Contains(s, "compact=2") {
		t.Fatalf("compaction stride missing from cell spec: %q", s)
	}
}

// TestBrokenCompactSwitchCaught proves the compaction oracles have
// teeth on the path `ccnvm-torture -kv -kv-compact 2 -break
// break-compact-switch` takes: a compactor that switches without ever
// writing the manifest commit must fail compact cells (and
// only those) in RunMatrix, each failure must name its cell and carry a
// shrunk repro, and the repro must parse back, still fail under the
// sabotage and pass on the real compactor.
func TestBrokenCompactSwitchCaught(t *testing.T) {
	r, err := BrokenRunner("break-compact-switch")
	if err != nil {
		t.Fatal(err)
	}
	cells := EnumerateCells(MatrixOpts{Designs: []string{"ccnvm"}, Seeds: 1, KV: true, KVCompact: 2, Budget: 12})
	sum := RunMatrix(context.Background(), r, cells, 0, nil)
	if !sum.Failed() {
		t.Fatalf("break-compact-switch slipped past every compaction oracle over %d cells", sum.Cells)
	}
	for _, f := range sum.Failures {
		if f.Cell.Design == "" || f.Cell.CompactEvery == 0 {
			t.Fatalf("failure on a non-compact or anonymous cell %q: %s", f.Cell, f.Detail)
		}
	}
	f := sum.Failures[0]
	if js, _ := json.Marshal(f); !strings.Contains(string(js), `"design":"ccnvm","workload":"kv"`) {
		t.Fatalf("-json failure does not name its cell: %s", js)
	}
	if f.ShrinkRuns == 0 || f.Cell.Batches > kvBatches {
		t.Fatalf("failure was not shrunk: %+v", f)
	}
	spec := strings.TrimSuffix(strings.TrimPrefix(f.Repro, "go run ./cmd/ccnvm-torture -repro '"), "'")
	cell, err := ParseCell(spec)
	if err != nil || cell != f.Cell {
		t.Fatalf("repro %q does not parse back to %s: %v", f.Repro, f.Cell, err)
	}
	if again := r.RunCell(cell); again == nil || again.Oracle != f.Oracle {
		t.Fatalf("minimized repro %s no longer fails %s: %v", f.Repro, f.Oracle, again)
	}
	if g := DefaultRunner().RunCell(cell); g != nil {
		t.Fatalf("minimized cell also fails the real compactor: %v", g)
	}
	t.Logf("break-compact-switch caught by oracle %q, shrunk in %d runs: %s", f.Oracle, f.ShrinkRuns, f.Repro)
}

// FuzzKVCompactCell fuzzes the compaction axis: any (seed, batches,
// crash point, compaction stride, reboot count) combination must
// satisfy every compaction oracle on the real recovery path.
func FuzzKVCompactCell(f *testing.F) {
	f.Add(int64(7), uint8(6), int16(4), uint8(2), uint8(0))
	f.Add(int64(11), uint8(5), int16(12), uint8(1), uint8(2))
	f.Add(int64(3), uint8(8), int16(-1), uint8(3), uint8(0))
	r := DefaultRunner()
	f.Fuzz(func(t *testing.T, seed int64, batches uint8, crash int16, every, reboots uint8) {
		c := Cell{
			Design:       "ccnvm",
			Workload:     KVWorkload,
			Seed:         seed,
			Batches:      1 + int(batches)%8,
			CompactEvery: 1 + int(every)%4,
			CrashAt:      max(-1, int(crash)%96),
		}
		if n := int(reboots) % 4; n > 0 {
			c.Reboots, c.RebootEvery = n, 2
		}
		if fail := r.RunCell(c); fail != nil {
			t.Fatalf("%v\nrepro: %s", fail, fail.Cell.Repro())
		}
	})
}
