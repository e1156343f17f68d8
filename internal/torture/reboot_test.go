package torture

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"ccnvm/internal/engine"
	"ccnvm/internal/recovery"
)

// crashImage drives a cell's trace to its crash point on a fresh engine
// (fault model armed when the cell has one) and returns the crash image.
func crashImage(t *testing.T, c Cell) *engine.CrashImage {
	t.Helper()
	c = c.normalized()
	ops, err := GenOps(c.Workload, c.Seed, c.Ops)
	if err != nil {
		t.Fatal(err)
	}
	eng, _, err := BuildEngine(c.Design, engine.Params{UpdateLimit: c.N, QueueEntries: c.M}, c.faultModel())
	if err != nil {
		t.Fatal(err)
	}
	driveTrace(eng, ops[:c.CrashAt], nil, nil)
	return eng.Crash()
}

// diffImages returns a description of the first divergence between two
// crash images (store content, stuck set, TCB registers), or "".
func diffImages(got, want *engine.CrashImage) string {
	if !got.Image.Store.Equal(want.Image.Store) {
		for _, a := range want.Image.Store.Addrs() {
			wl, _ := want.Image.Store.Read(a)
			if gl, _ := got.Image.Store.Read(a); gl != wl {
				return fmt.Sprintf("store content differs at %#x", uint64(a))
			}
		}
		for _, a := range got.Image.Store.Addrs() {
			gl, _ := got.Image.Store.Read(a)
			if wl, _ := want.Image.Store.Read(a); gl != wl {
				return fmt.Sprintf("store content differs at %#x", uint64(a))
			}
		}
	}
	if len(got.Image.Stuck) != len(want.Image.Stuck) {
		return fmt.Sprintf("stuck sets differ: %d vs %d lines", len(got.Image.Stuck), len(want.Image.Stuck))
	}
	for a := range want.Image.Stuck {
		if !got.Image.Stuck[a] {
			return fmt.Sprintf("line %#x stuck in one image only", uint64(a))
		}
	}
	if got.TCB.RootNew != want.TCB.RootNew || got.TCB.RootOld != want.TCB.RootOld || got.TCB.Nwb != want.TCB.Nwb {
		return fmt.Sprintf("TCB registers differ (Nwb %d vs %d)", got.TCB.Nwb, want.TCB.Nwb)
	}
	return ""
}

// TestApplyIdempotentAllDesigns is the re-entrancy base case: recovering
// and applying an already-recovered image must change nothing, for every
// design, on the idealized device and under an active fault model.
func TestApplyIdempotentAllDesigns(t *testing.T) {
	for _, d := range DesignNames() {
		for _, faulty := range []bool{false, true} {
			name := d + "/faultless"
			cell := Cell{Design: d, Workload: "mixed", Seed: 5, Ops: 140, CrashAt: 110, N: 8}
			if faulty {
				name = d + "/faulty"
				cell.FaultSeed, cell.Torn, cell.ADRBudget = 11, true, 4
			}
			t.Run(name, func(t *testing.T) {
				img := crashImage(t, cell)
				rep := recovery.Recover(img)
				rec1 := recovery.Apply(img, rep)
				once := img.Clone()

				rep2 := recovery.Recover(img)
				rec2 := recovery.Apply(img, rep2)
				if d := diffImages(img, once); d != "" {
					t.Fatalf("second Apply changed the image: %s", d)
				}
				if rec1.TCB.RootNew != rec2.TCB.RootNew || rec1.TCB.RootOld != rec2.TCB.RootOld || rec1.TCB.Nwb != rec2.TCB.Nwb {
					t.Fatalf("second Apply committed different registers: %+v vs %+v", rec2.TCB, rec1.TCB)
				}
				if recovery.JournalActive(img) {
					t.Fatal("journal left active after a completed Apply")
				}
			})
		}
	}
}

// TestRebootCrashEveryWrite is the exhaustive re-entrancy property: for
// every design, crash the Apply pass at its k-th persisted recovery
// write for every k, re-enter recovery until it converges, and require
// the final image bit-identical to the single-shot recovery.
func TestRebootCrashEveryWrite(t *testing.T) {
	for _, d := range DesignNames() {
		d := d
		t.Run(d, func(t *testing.T) {
			t.Parallel()
			cell := Cell{Design: d, Workload: "hot", Seed: 2, Ops: 80, CrashAt: 64, N: 4}
			img := crashImage(t, cell)
			rep := recovery.Recover(img)
			if !rep.Clean() {
				t.Skipf("%s crash image not clean (Clean=%v); reboot loop is gated on clean first recovery", d, rep.Clean())
			}

			golden := img.Clone()
			grep := recovery.Recover(golden)
			grec := recovery.Apply(golden, grep)
			// Probe the total write count with an unstruck pass.
			probe := img.Clone()
			pitr := &recovery.Interrupt{}
			if _, ok := recovery.ApplyInterrupted(probe, recovery.Recover(probe), pitr); !ok {
				t.Fatal("unstruck probe pass failed to commit")
			}
			w := pitr.Writes
			if w < 2 {
				// Even a no-op recovery persists jBegin and jCommit.
				t.Fatalf("probe pass issued only %d writes; journal protocol broken", w)
			}

			for k := 1; k <= w; k++ {
				work := img.Clone()
				wrep := recovery.Recover(work)
				done := false
				for pass := 1; pass <= w+2 && !done; pass++ {
					itr := &recovery.Interrupt{After: k, Seq: uint64(pass)}
					rec, ok := recovery.ApplyInterrupted(work, wrep, itr)
					if ok {
						done = true
						if diff := diffImages(work, golden); diff != "" {
							t.Fatalf("k=%d: converged image diverges: %s", k, diff)
						}
						if rec.TCB.RootNew != grec.TCB.RootNew {
							t.Fatalf("k=%d: committed root diverges from single-shot recovery", k)
						}
						break
					}
					wrep = recovery.Recover(work)
					// k=1 kills every pass's first write; no pass can make
					// progress, so go straight to the final clean pass.
					if k == 1 {
						break
					}
				}
				if !done {
					itr := &recovery.Interrupt{Seq: uint64(w + 3)}
					if _, ok := recovery.ApplyInterrupted(work, wrep, itr); !ok {
						t.Fatalf("k=%d: final uninterrupted pass failed to commit", k)
					}
					if diff := diffImages(work, golden); diff != "" {
						t.Fatalf("k=%d: image after final pass diverges: %s", k, diff)
					}
				}
				if recovery.JournalActive(work) {
					t.Fatalf("k=%d: journal still active after convergence", k)
				}
			}
		})
	}
}

// TestRebootMatrixShort pins the reboot axis into tier-1: every design
// crosses the default strike strides, faultless and faulty, and all
// reboot oracles must hold.
func TestRebootMatrixShort(t *testing.T) {
	opts := MatrixOpts{
		Workloads: []string{"hot"},
		Attacks:   []string{"none"},
		Seeds:     2,
		Ops:       160,
		CrashPts:  1,
		Reboots:   4,
	}
	var cells []Cell
	for _, c := range EnumerateCells(opts) {
		if c.Reboots > 0 {
			cells = append(cells, c)
		}
	}
	if want := len(DesignNames()) * 3 * 2; len(cells) != want {
		t.Fatalf("reboot matrix has %d cells, want %d", len(cells), want)
	}
	sum := RunMatrix(context.Background(), DefaultRunner(), cells, 0, nil)
	for _, f := range sum.Failures {
		t.Errorf("%s\n  repro: %s", f.Error(), f.Repro)
	}
	t.Logf("%s", sum.Describe())
}

// TestBrokenRebootCaught proves the convergence oracle bites: a recovery
// that accepts a half-applied image as converged must be caught on
// faultless reboot cells (where no other oracle can fire first), the
// failure must shrink, and the repro must replay — broken runner failing
// the same oracle, real recovery passing.
func TestBrokenRebootCaught(t *testing.T) {
	r, err := BrokenRunner("accept-divergent")
	if err != nil {
		t.Fatal(err)
	}
	opts := MatrixOpts{
		Designs:   []string{"ccnvm", "arsenal"},
		Workloads: []string{"hot"},
		Attacks:   []string{"none"},
		Seeds:     2,
		Ops:       160,
		CrashPts:  1,
		Reboots:   3,
	}
	var cells []Cell
	for _, c := range EnumerateCells(opts) {
		if c.Reboots > 0 && !c.Faulty() {
			cells = append(cells, c)
		}
	}
	sum := RunMatrix(context.Background(), r, cells, 0, nil)
	if !sum.Failed() {
		t.Fatalf("accept-divergent slipped past every oracle over %d cells", sum.Cells)
	}
	var f *MatrixFailure
	for i := range sum.Failures {
		if sum.Failures[i].Oracle == "reboot-convergence" {
			f = &sum.Failures[i]
			break
		}
	}
	if f == nil {
		t.Fatalf("no failure on the convergence oracle; got %+v", sum.Failures)
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
		t.Fatalf("minimized cell also fails the real recovery: %v", g)
	}
	t.Logf("accept-divergent caught by %q after %d shrink runs: %s", f.Oracle, f.ShrinkRuns, f.Repro)
}

// FuzzRebootCell explores the reboot-loop dimensions on top of the
// fault dimensions: any (design, workload, seeds, crash point, fault
// axes, strike stride, reboot count) combination must satisfy every
// oracle — in particular, re-entered recovery must converge to the
// single-shot image without manufacturing loss. A separate target
// (rather than new FuzzFaultCell parameters) keeps the existing corpus
// arity valid.
func FuzzRebootCell(f *testing.F) {
	f.Add(uint8(4), uint8(0), int64(1), uint16(160), uint16(110), int64(0), false, uint8(0), uint8(2), uint8(3))
	f.Add(uint8(6), uint8(2), int64(9), uint16(200), uint16(150), int64(7), true, uint8(4), uint8(3), uint8(4))
	f.Add(uint8(1), uint8(1), int64(3), uint16(120), uint16(80), int64(2), false, uint8(2), uint8(5), uint8(2))
	f.Add(uint8(5), uint8(3), int64(21), uint16(240), uint16(200), int64(5), true, uint8(1), uint8(1), uint8(1))
	r := DefaultRunner()
	f.Fuzz(func(t *testing.T, design, workload uint8, seed int64, ops, crash uint16, fseed int64, torn bool, adr, revery, reboots uint8) {
		designs, workloads := DesignNames(), WorkloadNames()
		c := Cell{
			Design:      designs[int(design)%len(designs)],
			Workload:    workloads[int(workload)%len(workloads)],
			Seed:        seed,
			Ops:         1 + int(ops)%400,
			Attack:      "none",
			FaultSeed:   fseed,
			Torn:        torn,
			ADRBudget:   int(adr) % 17,
			RebootEvery: 1 + int(revery)%8,
			Reboots:     1 + int(reboots)%6,
		}
		c.CrashAt = 1 + int(crash)%c.Ops
		if c.RebootEvery == 1 {
			c.Reboots = 1 // striking every first write cannot converge over multiple reboots
		}
		if fail := r.RunCell(c); fail != nil {
			t.Fatalf("%v\nrepro: %s", fail, fail.Cell.Repro())
		}
	})
}

// TestRebootCellValidate pins the reboot-axis vocabulary rules.
func TestRebootCellValidate(t *testing.T) {
	base := Cell{Design: "ccnvm", Workload: "hot", Attack: "none", Ops: 100, CrashAt: 50}
	valid := []Cell{
		{RebootEvery: 2, Reboots: 4},
		{RebootEvery: 1, Reboots: 1}, // a single first-write strike is a valid probe
		{RebootEvery: 100, Reboots: 64},
	}
	for _, v := range valid {
		c := base
		c.RebootEvery, c.Reboots = v.RebootEvery, v.Reboots
		if err := c.Validate(); err != nil {
			t.Errorf("revery=%d,reboots=%d rejected: %v", v.RebootEvery, v.Reboots, err)
		}
	}
	invalid := []Cell{
		{Reboots: 65},                // over budget
		{Reboots: 2},                 // reboots without a stride
		{RebootEvery: 2},             // stride without reboots
		{RebootEvery: 1, Reboots: 2}, // livelock by construction
		{RebootEvery: -1, Reboots: 1},
	}
	for _, v := range invalid {
		c := base
		c.RebootEvery, c.Reboots = v.RebootEvery, v.Reboots
		if err := c.Validate(); err == nil {
			t.Errorf("revery=%d,reboots=%d accepted", v.RebootEvery, v.Reboots)
		}
	}
}

// TestRebootReproRoundTrip extends the spec round trip to the reboot
// fields: String and ParseCell must invert each other.
func TestRebootReproRoundTrip(t *testing.T) {
	orig := Cell{
		Design: "arsenal", Workload: "hammer", Seed: 9, Ops: 200, CrashAt: 133,
		Attack: "none", N: 16, M: 32, FaultSeed: 3, Torn: true, ADRBudget: 2,
		RebootEvery: 3, Reboots: 5,
	}
	back, err := ParseCell(orig.String())
	if err != nil {
		t.Fatalf("ParseCell(%q): %v", orig.String(), err)
	}
	if back != orig.normalized() {
		t.Fatalf("round trip changed the cell: %s -> %s", orig.String(), back.String())
	}
	if !strings.Contains(orig.String(), "revery=3,reboots=5") {
		t.Fatalf("spec does not carry the reboot axis: %s", orig.String())
	}
	if _, err := ParseCell("design=ccnvm,ops=10,crash=5,revery=1,reboots=2"); err == nil {
		t.Fatal("ParseCell accepted a livelocking reboot spec")
	}
}
