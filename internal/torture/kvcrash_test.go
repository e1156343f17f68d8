package torture

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"ccnvm/internal/bmt"
	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/store"
)

// runKVSweep runs every stride-th cell of a KV spec's write-boundary
// sweep on r, failing the test on the first oracle violation, and
// returns the number of cells run.
func runKVSweep(t *testing.T, r *Runner, spec Cell, stride int) int {
	t.Helper()
	cells := kvSweep(spec)
	n := 0
	for i := 0; i < len(cells); i += stride {
		if f := r.RunCell(cells[i]); f != nil {
			t.Fatalf("%v\nrepro: %s", f, f.Cell.Repro())
		}
		n++
	}
	return n
}

// TestKVCrashSweepEveryWriteBoundary crashes the KV namespace at every
// host-write boundary — including between a frame's payload lines and
// its commit header — for every crash-consistent design, and demands
// the recovered namespace is an exact batch prefix every time.
func TestKVCrashSweepEveryWriteBoundary(t *testing.T) {
	designs := KVDesigns()
	if len(designs) == 0 {
		t.Fatal("no crash-consistent designs registered")
	}
	r := DefaultRunner()
	for _, d := range designs {
		t.Run(d, func(t *testing.T) {
			t.Parallel()
			cells := runKVSweep(t, r, Cell{Design: d, Workload: KVWorkload, Seed: 7, Batches: 5, Attack: "none"}, 1)
			if cells < 10 {
				t.Fatalf("sweep covered only %d crash points; workload too small to matter", cells)
			}
			t.Logf("%s: %d crash boundaries swept clean", d, cells)
		})
	}
}

// TestKVCellValidate holds Validate to the KV design rule and the KV
// axes' ranges on a Cell with workload=kv.
func TestKVCellValidate(t *testing.T) {
	kvCell := func(design string, batches, reboots int) Cell {
		return Cell{Design: design, Workload: KVWorkload, Attack: "none", Batches: batches, Reboots: reboots}
	}
	for _, tc := range []struct {
		cell Cell
		want string
	}{
		{kvCell("wocc", 1, 0), "not crash-consistent"},
		{kvCell("no-such", 1, 0), "unknown design"},
		{kvCell("ccnvm", 0, 0), "at least 1 batch"},
		{kvCell("ccnvm", 1, 2), "revery >= 1"},
	} {
		if err := tc.cell.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%s) = %v, want %q", tc.cell, err, tc.want)
		}
	}
	if err := kvCell("ccnvm", 3, 0).Validate(); err != nil {
		t.Errorf("valid cell rejected: %v", err)
	}
	if slices.Contains(KVDesigns(), "wocc") {
		t.Fatal("wocc listed as a KV design")
	}
}

// TestKVCrashRebootLoopAxis re-crashes recovery itself while it is
// recovering a crashed KV namespace: every third write boundary of the
// workload, with three interrupted recovery passes before the final
// uninterrupted one. Acked batches must survive the whole gauntlet.
func TestKVCrashRebootLoopAxis(t *testing.T) {
	spec := Cell{Design: "ccnvm", Workload: KVWorkload, Seed: 11, Batches: 4, Attack: "none", Reboots: 3, RebootEvery: 2}
	cells := runKVSweep(t, DefaultRunner(), spec, 3)
	if cells < 4 {
		t.Fatalf("only %d reboot-loop cells ran", cells)
	}
	t.Logf("%d reboot-loop cells survived", cells)
}

// TestKVOraclesCatchSabotagedRecovery proves the KV oracles bite: a
// runner whose resumed Apply never commits must trip kv-reboot-bounded,
// and a recovery that cries wolf on a clean crash must trip
// kv-clean-recovery. Both failures name their cell and a KV row of the
// oracle table.
func TestKVOraclesCatchSabotagedRecovery(t *testing.T) {
	cell := Cell{Design: "ccnvm", Workload: KVWorkload, Seed: 3, Batches: 3, CrashAt: 4, Attack: "none"}
	caught := func(t *testing.T, r *Runner, c Cell, oracle string) {
		t.Helper()
		f := r.RunCell(c)
		if f == nil || f.Oracle != oracle {
			t.Fatalf("sabotage not caught by %s: %+v", oracle, f)
		}
		kvRow := func(o Oracle) bool { return o.Name == oracle && o.Scope.covers(c) }
		if f.Cell != c || !slices.ContainsFunc(Oracles(), kvRow) {
			t.Fatalf("failure names cell %s and oracle %s; want %s and a KV row of Oracles", f.Cell, f.Oracle, c)
		}
	}
	t.Run("never-commits", func(t *testing.T) {
		r := &Runner{
			ApplyInterrupted: func(img *engine.CrashImage, rep *recovery.Report, itr *recovery.Interrupt) (recovery.Recovered, bool) {
				return recovery.Recovered{}, false
			},
		}
		c := cell
		c.Reboots, c.RebootEvery = 2, 2
		caught(t, r, c, "kv-reboot-bounded")
	})
	t.Run("cries-wolf", func(t *testing.T) {
		r := &Runner{
			Recover: func(img *engine.CrashImage) *recovery.Report {
				rep := recovery.Recover(img)
				rep.TreeMismatches = append(rep.TreeMismatches, bmt.Mismatch{})
				return rep
			},
		}
		caught(t, r, cell, "kv-clean-recovery")
	})
}

// TestBrokenReorderPersistKVCaught gives reorder-persist teeth at the
// KV storey: with a batch closing no epoch, the victim write is a KV
// cell's first (reorderKVAfterCommits). Every KV design must fail some
// cell, and an acknowledged frame that lost the write must fail the
// reopen with kv.ErrDamagedFrame, tripping kv-clean-recovery (on cc-NVM
// the counter retry flags the stale line first, so the recovery report
// trips it there); a scan that ended the log at the frame left the loss
// to kv-acked-durable. That failure names a KV cell, and its shrunk
// repro replays under the defect and passes without it.
func TestBrokenReorderPersistKVCaught(t *testing.T) {
	r, err := BrokenRunner("reorder-persist")
	if err != nil {
		t.Fatal(err)
	}
	sum := RunMatrix(context.Background(), r, EnumerateCells(MatrixOpts{Seeds: 1, KV: true}), 0, nil)
	for _, d := range KVDesigns() {
		if !slices.ContainsFunc(sum.Failures, func(f MatrixFailure) bool { return f.Cell.Design == d }) {
			t.Errorf("reorder-persist slipped past every oracle on %s", d)
		}
	}
	i := slices.IndexFunc(sum.Failures, func(f MatrixFailure) bool {
		return f.Oracle == "kv-clean-recovery" && strings.Contains(f.Detail, kv.ErrDamagedFrame.Error())
	})
	if i < 0 {
		t.Fatalf("no reopen refused a damaged frame under reorder-persist over %d KV cells (%d failures)", sum.Cells, len(sum.Failures))
	}
	f := sum.Failures[i]
	if !f.Cell.KV() {
		t.Fatalf("failure on a non-KV cell %s", f.Cell)
	}
	if again := r.RunCell(f.Cell); again == nil || again.Oracle != f.Oracle {
		t.Fatalf("repro %s no longer fails %s: %v", f.Repro, f.Oracle, again)
	}
	if g := DefaultRunner().RunCell(f.Cell); g != nil {
		t.Fatalf("cell %s also fails without the defect: %v", f.Cell, g)
	}
	t.Logf("reorder-persist caught by a refused reopen: %s", f.Repro)
}

// TestReorderPersistIgnoresRequests: the defect edits an image the
// same whether the writes came as multi-line requests, in which HMAC
// updates merge into queued entries, or one line per call, in which
// nothing merges. The victim's prior content is read through the
// controller (Store.Peek), which holds a request's owed line before the
// device does. With today's designs the first write accepted after a
// commit is a data line, never a merged HMAC update (a drain ends a
// write-back or precedes the next one's data write); the controller's
// side of a merged victim is TestOwedWriteRetires in memctrl.
func TestReorderPersistIgnoresRequests(t *testing.T) {
	open := func() *store.Store {
		st, err := store.Open(store.Options{Design: "ccnvm", Capacity: 1 << 20,
			Params: engine.Params{UpdateLimit: 16, QueueEntries: 64}})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	var calls [][]store.LineWrite
	for i := range 16 {
		var ws []store.LineWrite
		for j := range 4 {
			ws = append(ws, store.LineWrite{Addr: mem.Addr(j+i%3*4) * mem.LineSize, Line: mem.Line{byte(i + 1), byte(j + 1)}})
		}
		calls = append(calls, ws)
	}
	for after := range 4 {
		req, one := open(), open()
		editReq, editOne := reorderPersist(req, after), reorderPersist(one, after)
		edited := false
		for i, ws := range calls {
			if _, err := req.WriteLines(ws); err != nil {
				t.Fatal(err)
			}
			for _, w := range ws {
				if err := one.Write(w.Addr, w.Line); err != nil {
					t.Fatal(err)
				}
			}
			a, b := req.Snapshot(), one.Snapshot()
			if !a.Store.Equal(b.Store) {
				t.Fatalf("after %d commits, call %d: the images differ before the edit", after, i)
			}
			plain := a.Clone()
			editReq(a)
			editOne(b)
			if !a.Store.Equal(b.Store) {
				t.Fatalf("after %d commits, call %d: the defect edits the image of requests other than that of one-line writes", after, i)
			}
			edited = edited || !a.Store.Equal(plain.Store)
		}
		if !edited || req.CtrlStats().RequestMerges == 0 {
			t.Fatalf("after %d commits: the defect edited no image or the requests merged nothing; the test shows nothing", after)
		}
	}
}

// TestKVWriteTapObserves is the twin-run rule for kv-header-last's
// evidence: a KV cell driven with the store's event tap recording each
// batch's writes leaves the same crash image, write count, batch counts,
// generation and recorded frames as the same cell driven by a runner
// whose Arm seam installs a tap of its own, at every crash point of a
// compacting sweep. The recorder chains to the seam's tap, which sees
// every data write the recorder does, in the same order.
func TestKVWriteTapObserves(t *testing.T) {
	var seen []mem.Addr
	armed := &Runner{Arm: func(_ Cell, st *store.Store) func(*nvm.Image) {
		seen = nil
		lay := st.Layout()
		st.SetEventTap(func(ev store.Event) {
			if ev.Kind == store.EvWriteAccept && lay.RegionOf(ev.Addr) == mem.RegionData {
				seen = append(seen, ev.Addr)
			}
		})
		return nil
	}}
	for _, c := range kvSweep(Cell{Design: "ccnvm", Workload: KVWorkload, Seed: 3, Batches: 4, CompactEvery: 2, Attack: "none"}) {
		tapped, f1 := DefaultRunner().driveKV(c)
		twin, f2 := armed.driveKV(c)
		if f1 != nil || f2 != nil {
			t.Fatalf("%s: %v / %v", c, f1, f2)
		}
		img1, err1 := store.EncodeImage(tapped.img)
		img2, err2 := store.EncodeImage(twin.img)
		if err1 != nil || err2 != nil || !bytes.Equal(img1, img2) || tapped.writes != twin.writes ||
			tapped.acked != twin.acked || tapped.issued != twin.issued || tapped.gen != twin.gen {
			t.Fatalf("%s: the tap changed the run: writes %d/%d, acked %d/%d, generation %d/%d, images equal %v (%v, %v)",
				c, tapped.writes, twin.writes, tapped.acked, twin.acked, tapped.gen, twin.gen, bytes.Equal(img1, img2), err1, err2)
		}
		if len(tapped.frames) != tapped.acked || !slices.EqualFunc(tapped.frames, twin.frames, slices.Equal) {
			t.Fatalf("%s: recorded %d frames for %d acknowledged batches, %d under the seam's tap",
				c, len(tapped.frames), tapped.acked, len(twin.frames))
		}
		rest := seen
		for _, f := range twin.frames {
			for _, a := range f {
				i := slices.Index(rest, a)
				if i < 0 {
					t.Fatalf("%s: the seam's tap missed the recorded write %#x", c, a)
				}
				rest = rest[i+1:]
			}
		}
	}
}
