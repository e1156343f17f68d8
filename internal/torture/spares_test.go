package torture

import (
	"context"
	"strings"
	"testing"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/store"
)

// spareMatrixOpts is the finite-spare sweep the tests share: every
// design, two workloads, pool sizes 3/1 layered over the consuming
// fault profiles.
func spareMatrixOpts() MatrixOpts {
	return MatrixOpts{
		Workloads:  []string{"hot", "mixed"},
		Attacks:    []string{"none"},
		Seeds:      2,
		Ops:        200,
		CrashPts:   1,
		FaultSeeds: 0,
		Spares:     3,
	}
}

func spareCellsOnly(opts MatrixOpts) []Cell {
	var cells []Cell
	for _, c := range EnumerateCells(opts) {
		if c.Spares > 0 {
			cells = append(cells, c)
		}
	}
	return cells
}

// TestSpareMatrix is the spare-exhaustion sweep: every cell must pass
// every oracle, and every cell must land in exactly one outcome class —
// healed, lost-but-detected or read-only-refused.
func TestSpareMatrix(t *testing.T) {
	cells := spareCellsOnly(spareMatrixOpts())
	if len(cells) == 0 {
		t.Fatal("spare sweep enumerated no cells")
	}
	sum := RunMatrix(context.Background(), DefaultRunner(), cells, 0, nil)
	for _, f := range sum.Failures {
		t.Errorf("%s\n  repro: %s", f.Error(), f.Repro)
	}
	if sum.SpareCells != len(cells) {
		t.Errorf("summary counted %d spare cells, ran %d", sum.SpareCells, len(cells))
	}
	classified := sum.SpareHealed + sum.SpareLost + sum.SpareRefused
	if classified+len(sum.Failures) != len(cells) {
		t.Errorf("classification does not partition the sweep: %d healed + %d lost + %d refused + %d failed != %d cells",
			sum.SpareHealed, sum.SpareLost, sum.SpareRefused, len(sum.Failures), len(cells))
	}
	t.Logf("spare sweep: %d cells — %d healed, %d lost-but-detected, %d read-only-refused",
		len(cells), sum.SpareHealed, sum.SpareLost, sum.SpareRefused)
}

// TestSpareSweepReachesReadOnly guards the sweep's reach: at least one
// cell must exhaust its pool and be refused, or the degradation oracles
// are running vacuously.
func TestSpareSweepReachesReadOnly(t *testing.T) {
	cells := spareCellsOnly(spareMatrixOpts())
	sum := RunMatrix(context.Background(), DefaultRunner(), cells, 0, nil)
	if sum.Failed() {
		t.Skip("sweep failed; TestSpareMatrix owns the diagnosis")
	}
	if sum.SpareRefused == 0 {
		t.Error("no cell in the spare sweep ever reached read-only; the refusal path is untested")
	}
	if sum.SpareHealed == 0 {
		t.Error("no cell in the spare sweep healed cleanly; the pool sizes are too tight")
	}
}

// TestBrokenRemapCommitCaught proves the spare oracles have teeth: a
// device that consumes spares but drops the durable remap record must be
// caught, the failure must shrink, and the shrunk cell must pass the
// unsabotaged runner.
func TestBrokenRemapCommitCaught(t *testing.T) {
	r, err := BrokenRunner("break-remap-commit")
	if err != nil {
		t.Fatal(err)
	}
	cells := spareCellsOnly(spareMatrixOpts())
	sum := RunMatrix(context.Background(), r, cells, 0, nil)
	if !sum.Failed() {
		t.Fatalf("break-remap-commit slipped past every oracle over %d cells", sum.Cells)
	}
	f := sum.Failures[0]
	if !strings.HasPrefix(f.Repro, "go run ./cmd/ccnvm-torture -repro '") {
		t.Fatalf("failure carries no usable repro line: %q", f.Repro)
	}
	spec := strings.TrimSuffix(strings.TrimPrefix(f.Repro, "go run ./cmd/ccnvm-torture -repro '"), "'")
	cell, err := ParseCell(spec)
	if err != nil {
		t.Fatalf("repro spec does not parse: %v", err)
	}
	again := r.RunCell(cell)
	if again == nil {
		t.Fatalf("minimized repro %s no longer fails", f.Repro)
	}
	if again.Oracle != f.Oracle {
		t.Fatalf("repro fails a different oracle: %s vs %s", again.Oracle, f.Oracle)
	}
	if g := DefaultRunner().RunCell(cell); g != nil {
		t.Fatalf("minimized cell also fails the real device: %v", g)
	}
	t.Logf("break-remap-commit caught by oracle %q after %d shrink runs: %s", f.Oracle, f.ShrinkRuns, f.Repro)
}

// TestSpareCellEvidence drives one deliberately tight cell end to end
// and inspects the evidence the oracles run on, pinning the degraded
// modes to concrete observations rather than just "no oracle fired":
// four stuck lines on the hot workload use up a one-spare pool, so the
// controller goes read-only, refuses stores and is probed there, and
// the remap table, the device's pool and the recovery report must all
// name the one remap.
func TestSpareCellEvidence(t *testing.T) {
	c := Cell{
		Design: "ccnvm", Workload: "hot", Seed: 1, Ops: 400, CrashAt: 399,
		Attack: "none", FaultSeed: 7, Stuck: 4, Spares: 1,
	}
	r := DefaultRunner()
	ctx, fail := r.runCell(c.normalized())
	if fail != nil {
		t.Fatalf("cell failed: %v", fail)
	}
	s := ctx.SpareStats
	if !s.Finite() || s.Total != 1 {
		t.Fatalf("pool not armed: %+v", s)
	}
	if s.Used != 1 || s.Used != len(ctx.RemapEntriesAtCrash) {
		t.Fatalf("spares consumed %d, remaps recorded %d; want the one spare used", s.Used, len(ctx.RemapEntriesAtCrash))
	}
	if ctx.HealthAtCrash != store.HealthReadOnly || ctx.RefusedStores == 0 || !ctx.ROProbed {
		t.Fatalf("exhausted pool: health %v, %d stores refused, probed %v; want read-only, refusals and the probe",
			ctx.HealthAtCrash, ctx.RefusedStores, ctx.ROProbed)
	}
	rec, ok, torn := nvm.LoadRemapTable(ctx.Img.Image.RemapTable)
	if !ok {
		t.Fatal("crash image carries no decodable remap table")
	}
	if torn {
		t.Fatal("recovery left the table torn")
	}
	if rec.Total != 1 || len(rec.Entries) != s.Used {
		t.Fatalf("persisted table (total=%d used=%d) disagrees with the device (total=%d used=%d)",
			rec.Total, len(rec.Entries), s.Total, s.Used)
	}
	if ctx.Rep.SparesTotal != 1 || ctx.Rep.SparesUsed != len(rec.Entries) {
		t.Fatalf("recovery report (total=%d used=%d) disagrees with the table", ctx.Rep.SparesTotal, ctx.Rep.SparesUsed)
	}
	t.Logf("evidence: health=%v used=%d/%d refusedStores=%d probed=%v",
		ctx.HealthAtCrash, s.Used, s.Total, ctx.RefusedStores, ctx.ROProbed)

	// Under the same trace and damage a bigger pool never goes read-only
	// sooner: every store after the controller degrades is refused, so
	// the refusals may only fall as the pool grows. Four stuck lines on
	// the hot workload starve a one-spare pool on every design and never
	// exhaust a four-spare one.
	for _, d := range DesignNames() {
		refused := make([]int, 4)
		for i := range refused {
			ctx, fail := r.runCell(Cell{Design: d, Workload: "hot", Seed: 1, Ops: 400, CrashAt: 399,
				Attack: "none", FaultSeed: 7, Stuck: 4, Spares: i + 1}.normalized())
			if fail != nil {
				t.Fatalf("%s, %d spares: %v", d, i+1, fail)
			}
			refused[i] = ctx.RefusedStores
			if i > 0 && refused[i] > refused[i-1] {
				t.Errorf("%s: %d spares refused %d stores, %d spares only %d", d, i+1, refused[i], i, refused[i-1])
			}
		}
		if refused[0] == 0 || refused[3] != 0 {
			t.Errorf("%s: refusals by pool size 1..4 are %v, want a starved pool 1 and a pool 4 that lasts", d, refused)
		}
	}
}

// TestRemapCommitRecoveryEveryChunk is the exhaustive crash-mid-commit
// property at the recovery layer, mirroring TestRebootCrashEveryWrite
// for the remap table: take a real crash image with committed remaps,
// simulate the next commit being interrupted after every 64-byte chunk
// write, and require recovery to (a) never classify the tear as
// tampering, (b) land on either the old or the new mapping count, and
// (c) leave a repaired table a re-entered recovery reads identically.
func TestRemapCommitRecoveryEveryChunk(t *testing.T) {
	eng, ctrl, err := BuildEngine("ccnvm", engine.Params{UpdateLimit: 4},
		&nvm.FaultModel{Seed: 7, StuckLines: 2, SpareLines: 3})
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	for i := 0; i < 40; i++ {
		a := mem.Addr(i) * mem.LineSize
		now = eng.WriteBack(now, a, pattern(a, byte(i))) + 8
	}
	dev := ctrl.Device()
	for _, a := range dev.InjectStuckLines() {
		if err := dev.Remap(a, false); err != nil {
			t.Fatal(err)
		}
	}
	crash := eng.Crash()
	rec, ok, torn := nvm.LoadRemapTable(crash.Image.RemapTable)
	if !ok || torn {
		t.Fatalf("crash image table: ok=%v torn=%v", ok, torn)
	}
	n := len(rec.Entries)
	if rec.Seq == 0 || n == 0 || n >= rec.Total {
		t.Fatalf("setup produced no tearable commit: seq=%d used=%d total=%d", rec.Seq, n, rec.Total)
	}
	base := recovery.Recover(crash.Clone())

	// The in-flight commit: one more remap appended to the live entries.
	newAddr := mem.Addr(mem.LineSize)
	for {
		taken := false
		for _, e := range rec.Entries {
			if e.Addr == newAddr {
				taken = true
				break
			}
		}
		if !taken {
			break
		}
		newAddr += mem.LineSize
	}
	next := nvm.RemapRecord{
		Seq:     rec.Seq + 1,
		Total:   rec.Total,
		Entries: append(append([]nvm.RemapEntry(nil), rec.Entries...), nvm.RemapEntry{Addr: newAddr, Exempt: true}),
	}
	enc := nvm.EncodeRemapRecord(next)
	off := int((rec.Seq+1)%2) * nvm.RemapSlotLen

	chunks := nvm.RemapSlotLen / 64
	for k := 0; k <= chunks; k++ {
		img := crash.Clone()
		copy(img.Image.RemapTable[off:off+k*64], enc[:k*64])
		rep := recovery.Recover(img)

		// (a) A torn remap commit is crash damage, never an attack.
		if len(rep.Tampered) != len(base.Tampered) || len(rep.TreeMismatches) != len(base.TreeMismatches) ||
			rep.PotentialReplay != base.PotentialReplay {
			t.Fatalf("chunk %d: tamper verdict shifted: tampered %d->%d, tree %d->%d, replay %v->%v",
				k, len(base.Tampered), len(rep.Tampered), len(base.TreeMismatches), len(rep.TreeMismatches),
				base.PotentialReplay, rep.PotentialReplay)
		}
		// (b) The ruling count is the old mapping set or the new one.
		want := n
		if k == chunks {
			want = n + 1
		}
		if rep.SparesUsed != want || rep.SparesTotal != rec.Total {
			t.Fatalf("chunk %d: recovery reports %d/%d spares used, want %d/%d",
				k, rep.SparesUsed, rep.SparesTotal, want, rec.Total)
		}
		wantTorn := k > 0 && k < chunks
		if rep.RemapTableTorn != wantTorn {
			t.Fatalf("chunk %d: RemapTableTorn=%v, want %v", k, rep.RemapTableTorn, wantTorn)
		}
		// (c) Recovery repaired the table in place; re-entry converges.
		if _, ok2, torn2 := nvm.LoadRemapTable(img.Image.RemapTable); !ok2 || torn2 {
			t.Fatalf("chunk %d: table not repaired (ok=%v torn=%v)", k, ok2, torn2)
		}
		rep2 := recovery.Recover(img)
		if rep2.SparesUsed != want || rep2.RemapTableTorn {
			t.Fatalf("chunk %d: second recovery diverged (used=%d torn=%v)", k, rep2.SparesUsed, rep2.RemapTableTorn)
		}
	}
}

// FuzzSpareCell explores the finite-spare dimension on top of the media
// faults: any (design, workload, seed, crash, fault seed, torn, weak,
// stuck, spares) combination must satisfy every oracle, including the
// three spare-pool ones. A separate target keeps the FuzzFaultCell
// corpus arity valid.
func FuzzSpareCell(f *testing.F) {
	f.Add(uint8(4), uint8(0), int64(1), uint16(200), uint16(150), int64(7), true, uint8(20), uint8(2), uint8(3))
	f.Add(uint8(2), uint8(1), int64(9), uint16(300), uint16(222), int64(3), false, uint8(0), uint8(4), uint8(1))
	f.Add(uint8(6), uint8(3), int64(42), uint16(120), uint16(100), int64(11), true, uint8(35), uint8(1), uint8(7))
	r := DefaultRunner()
	f.Fuzz(func(t *testing.T, design, workload uint8, seed int64, ops, crash uint16, fseed int64, torn bool, weak, stuck, spares uint8) {
		designs, workloads := DesignNames(), WorkloadNames()
		c := Cell{
			Design:    designs[int(design)%len(designs)],
			Workload:  workloads[int(workload)%len(workloads)],
			Seed:      seed,
			Ops:       1 + int(ops)%400,
			Attack:    "none",
			FaultSeed: fseed,
			Torn:      torn,
			WeakPct:   int(weak) % 101,
			Stuck:     1 + int(stuck)%8, // a consumer axis keeps the cell valid
			Spares:    1 + int(spares)%nvm.RemapMaxEntries,
		}
		c.CrashAt = 1 + int(crash)%c.Ops
		if fail := r.RunCell(c); fail != nil {
			t.Fatalf("%v\nrepro: %s", fail, fail.Cell.Repro())
		}
	})
}
