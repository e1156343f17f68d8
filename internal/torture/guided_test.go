package torture

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestProfileTraceDeterministic: profiling the same trace twice yields
// the identical graph, and the graph is non-trivial for an epoch-based
// design (it must contain both ADR and epoch edges to guide on).
func TestProfileTraceDeterministic(t *testing.T) {
	g1, err := ProfileTrace("ccnvm", "hot", 0, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ProfileTrace("ccnvm", "hot", 0, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1, g2) {
		t.Fatal("ProfileTrace is not deterministic")
	}
	if len(g1.Events) == 0 || g1.CuttableCount() == 0 {
		t.Fatalf("trivial profile: %d events, %d cuttable edges", len(g1.Events), g1.CuttableCount())
	}
}

// TestGuidedBeatsRandomCoverage is the acceptance criterion: at equal
// per-trace point budget on a fixed seed set, guided enumeration cuts
// strictly more distinct ordering edges than the evenly spaced
// placement, on every design×workload row that has cuttable edges.
func TestGuidedBeatsRandomCoverage(t *testing.T) {
	o := MatrixOpts{
		Designs: DesignNames(), Workloads: []string{"hot", "mixed"},
		Attacks: []string{"none"}, Seeds: 2, Ops: 160, CrashPts: 2,
	}
	_, stats, err := EnumerateGuidedCells(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(o.Designs)*len(o.Workloads) {
		t.Fatalf("coverage rows = %d, want %d", len(stats), len(o.Designs)*len(o.Workloads))
	}
	for _, s := range stats {
		if s.EdgesCuttable == 0 {
			t.Fatalf("%s/%s: no cuttable edges to guide on", s.Design, s.Workload)
		}
		if s.GuidedCut <= s.RandomCut {
			t.Fatalf("%s/%s: guided cut %d edges, random %d — guided must be strictly better",
				s.Design, s.Workload, s.GuidedCut, s.RandomCut)
		}
		if s.GuidedPoints > s.RandomPoints {
			t.Fatalf("%s/%s: guided used %d points vs random %d — budgets must match",
				s.Design, s.Workload, s.GuidedPoints, s.RandomPoints)
		}
	}
	if DescribeCoverage(stats) == "" {
		t.Fatal("DescribeCoverage rendered nothing")
	}
}

// TestGuidedCellsRunClean: guided cells are ordinary cells — the full
// oracle set passes on them, and the fault/reboot axes ride along
// exactly as in the random matrix.
func TestGuidedCellsRunClean(t *testing.T) {
	o := MatrixOpts{
		Designs: []string{"ccnvm", "sc"}, Workloads: []string{"hot"},
		Attacks: []string{"none", "spoof"}, Seeds: 1, Ops: 120, CrashPts: 2,
		FaultSeeds: 2,
	}
	cells, _, err := EnumerateGuidedCells(o)
	if err != nil {
		t.Fatal(err)
	}
	faulty := 0
	for _, c := range cells {
		if err := c.Validate(); err != nil {
			t.Fatalf("guided cell %s invalid: %v", c, err)
		}
		if c.Faulty() {
			faulty++
		}
	}
	if want := len(o.Designs) * 2; faulty != want {
		t.Fatalf("fault cells = %d, want %d", faulty, want)
	}
	sum := RunMatrix(context.Background(), DefaultRunner(), cells, 0, nil)
	if sum.Failed() {
		t.Fatalf("guided cells failed the oracles: %v", sum.Failures[0])
	}
}

// TestBudgetExcludesRefusedCells pins the -budget accounting fix: cells
// the harness refuses (reboot loops on tamper-on-crash designs) no
// longer consume budget, so a budgeted sweep buys that many *executed*
// cells; unbudgeted enumeration keeps the historical shape.
func TestBudgetExcludesRefusedCells(t *testing.T) {
	o := MatrixOpts{
		Designs: []string{"wocc", "ccnvm"}, Workloads: []string{"hot"},
		Attacks: []string{"none"}, Seeds: 1, Ops: 120, CrashPts: 1,
		Reboots: 2,
	}
	full := EnumerateCells(o)
	refused := 0
	for _, c := range full {
		if c.RefusalReason() != "" {
			refused++
		}
	}
	// wocc contributes len(RebootEvery) faultless + as many faulty
	// reboot cells, all refused (its recovery flags tamper on every
	// crash, so the reboot loop never runs).
	if want := 2 * 3; refused != want {
		t.Fatalf("refused cells in the full matrix = %d, want %d", refused, want)
	}

	o.Budget = len(full) - refused - 1
	sampled := EnumerateCells(o)
	if len(sampled) != o.Budget {
		t.Fatalf("budgeted enumeration returned %d cells, want %d", len(sampled), o.Budget)
	}
	for _, c := range sampled {
		if reason := c.RefusalReason(); reason != "" {
			t.Fatalf("budgeted sweep wasted a cell on %s (%s)", c, reason)
		}
	}
}

// TestReorderPersistSelfTest is the ordering-sabotage self-test: on the
// pinned slice, guided mode catches the injected reorder-persist bug,
// the failure shrinks to a replayable repro that still fails under the
// sabotage and passes under real recovery — while the evenly spaced
// matrix of the SAME slice at the SAME cell budget misses the bug
// entirely.
func TestReorderPersistSelfTest(t *testing.T) {
	opts := SabotageMatrixOpts()
	br, err := BrokenRunner("reorder-persist")
	if err != nil {
		t.Fatal(err)
	}

	randomCells := EnumerateCells(opts)
	guidedCells, stats, err := EnumerateGuidedCells(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(guidedCells) > len(randomCells) || len(guidedCells) == 0 {
		t.Fatalf("cell budgets: guided %d, random %d — guided must not exceed random",
			len(guidedCells), len(randomCells))
	}
	if len(stats) != 1 || stats[0].GuidedCut <= stats[0].RandomCut {
		t.Fatalf("pinned slice coverage must favor guided: %+v", stats)
	}

	// Random placement at the same budget sails past the injected bug.
	if sum := RunMatrix(context.Background(), br, randomCells, 0, nil); sum.Failed() {
		t.Fatalf("evenly spaced points caught the sabotage (%v) — the pinned window drifted; re-tune SabotageMatrixOpts", sum.Failures[0])
	}

	// Guided placement cuts the victim's persist edge and catches it.
	sum := RunMatrix(context.Background(), br, guidedCells, 0, nil)
	if !sum.Failed() {
		t.Fatalf("guided mode missed the reorder-persist bug over %d cells", sum.Cells)
	}
	f := sum.Failures[0]
	if f.ShrinkRuns == 0 {
		t.Fatalf("failure was not shrunk: %+v", f)
	}

	// The shrunk repro replays: same oracle under the sabotage, clean
	// under the real controller.
	spec := strings.TrimSuffix(strings.TrimPrefix(f.Repro, "go run ./cmd/ccnvm-torture -repro '"), "'")
	cell, err := ParseCell(spec)
	if err != nil {
		t.Fatalf("repro spec %q does not parse: %v", f.Repro, err)
	}
	again := br.RunCell(cell)
	if again == nil {
		t.Fatalf("minimized repro %s no longer fails under the sabotage", f.Repro)
	}
	if again.Oracle != f.Oracle {
		t.Fatalf("repro fails oracle %s, matrix reported %s", again.Oracle, f.Oracle)
	}
	if g := DefaultRunner().RunCell(cell); g != nil {
		t.Fatalf("minimized cell fails real recovery too: %v", g)
	}
	t.Logf("reorder-persist caught by %q, shrunk in %d runs: %s", f.Oracle, f.ShrinkRuns, f.Repro)
}

// TestGuidedCarriesSpareCells: guided enumeration rides the same fault,
// reboot and spare cells as the evenly spaced matrix — spares included,
// which it once dropped.
func TestGuidedCarriesSpareCells(t *testing.T) {
	o := MatrixOpts{
		Designs: []string{"ccnvm"}, Workloads: []string{"hot"},
		Attacks: []string{"none"}, Seeds: 1, CrashPts: 1, Spares: 3,
	}
	guided, _, err := EnumerateGuidedCells(o)
	if err != nil {
		t.Fatal(err)
	}
	count := func(cells []Cell) int {
		n := 0
		for _, c := range cells {
			if c.Spares > 0 {
				n++
			}
		}
		return n
	}
	if got, want := count(guided), count(EnumerateCells(o)); got != want || want != 3 {
		t.Fatalf("guided enumeration carries %d spare cells, evenly spaced %d; want 3 each", got, want)
	}
}
