package torture

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"ccnvm/internal/design/names"
)

// Class is one durability behavior class a campaign cell lands in.
// Every executed cell is classified — the campaign's report is a
// complete census, not a failure list.
type Class string

const (
	// ClassClean: crash (possibly with an ineffective attack) and a
	// recovery reporting no tamper evidence and a lossless image.
	ClassClean Class = "clean"
	// ClassHealed: something was damaged — an effective attack whose
	// rewind counter recovery legitimately replays, or media faults —
	// and recovery restored a clean, lossless image anyway.
	ClassHealed Class = "healed"
	// ClassLostDetected: acknowledged writes were lost, and recovery
	// says so — enumerated lost blocks, media errors, a bounded loss
	// window, or (for designs without crash consistency) a blanket
	// staleness flag. Loss without a lie.
	ClassLostDetected Class = "lost-but-detected"
	// ClassTamperCaught: an effective attack was flagged by recovery.
	ClassTamperCaught Class = "tampered-caught"
	// ClassOracleFailure: the cell violated an oracle — on a healthy
	// tree this class is populated only by the campaign's deliberate
	// sabotage section, which proves the harness still has teeth.
	ClassOracleFailure Class = "oracle-failure"
)

// Classes lists the behavior classes in report order.
func Classes() []Class {
	return []Class{ClassClean, ClassHealed, ClassLostDetected, ClassTamperCaught, ClassOracleFailure}
}

// classDoc is the fixed prose describing each class in the report.
func classDoc(cl Class) string {
	switch cl {
	case ClassClean:
		return "A crash (or an attack that changed nothing) followed by a recovery that reports no tamper evidence and restores every acknowledged write."
	case ClassHealed:
		return "Something was damaged — an attack inside the replay window, or media faults at the power failure — and recovery restored a clean, lossless image anyway."
	case ClassLostDetected:
		return "Acknowledged writes were lost and recovery says so: enumerated lost blocks, media errors, a bounded loss window, or a blanket staleness flag on designs without crash consistency. Loss without a lie."
	case ClassTamperCaught:
		return "An attack that changed persistent bytes was flagged by recovery (located where the design's capabilities promise location)."
	case ClassOracleFailure:
		return "The cell violated an invariant oracle. On a healthy tree only the deliberate ordering-sabotage section below populates this class."
	}
	return string(cl)
}

// Outcome is one classified campaign cell.
type Outcome struct {
	Cell   Cell   `json:"cell"`
	Class  Class  `json:"class"`
	Detail string `json:"detail"`
	Oracle string `json:"oracle,omitempty"` // set for oracle-failure outcomes
}

// ClassifyCell executes one cell and classifies its behavior. Panics
// are converted like RunCell's.
func (r *Runner) ClassifyCell(c Cell) (out Outcome) {
	c = c.normalized()
	out = Outcome{Cell: c}
	defer func() {
		if p := recover(); p != nil {
			out.Class = ClassOracleFailure
			out.Oracle = "panic"
			out.Detail = fmt.Sprintf("cell panicked: %v", p)
		}
	}()
	ctx, fail := r.runCell(c)
	if fail != nil {
		return Outcome{Cell: c, Class: ClassOracleFailure, Detail: fail.Detail, Oracle: fail.Oracle}
	}
	cl, detail := classify(ctx)
	return Outcome{Cell: c, Class: cl, Detail: detail}
}

// classify maps a passing cell's evidence to its behavior class. The
// mapping leans on the oracles having already passed: e.g. a non-clean
// report without an attack can only be a tamper-on-crash design's
// blanket staleness flag, anything else would have failed
// clean-recovery.
func classify(ctx *Context) (Class, string) {
	rep := ctx.baseRep()
	switch {
	case ctx.attackInPlay() && !rep.Clean():
		return ClassTamperCaught, fmt.Sprintf(
			"%s attack flagged: %d tampered blocks, %d tree mismatches, %d replayed pages, potential-replay=%v",
			ctx.Cell.Attack, len(rep.Tampered), len(rep.TreeMismatches), len(rep.ReplayedPages), rep.PotentialReplay)
	case ctx.attackInPlay():
		return ClassHealed, fmt.Sprintf(
			"%s attack healed: the rewind sits inside the replay window and counter recovery restores it (%d blocks re-derived)",
			ctx.Cell.Attack, rep.RecoveredBlocks)
	case !rep.Clean():
		return ClassLostDetected, fmt.Sprintf(
			"crash staleness flagged: %d tree mismatches, %d tampered blocks on a design that cannot distinguish its own crash loss from tampering",
			len(rep.TreeMismatches), len(rep.Tampered))
	case !rep.Lossless():
		return ClassLostDetected, fmt.Sprintf(
			"crash loss surfaced: %d lost blocks, %d media errors, loss-window=%v",
			len(rep.LostBlocks), len(rep.MediaErrors), rep.CrashLossWindow)
	case ctx.Media != nil && len(ctx.Media.Events) > 0:
		return ClassHealed, fmt.Sprintf(
			"%d media-fault events at the crash healed: recovery clean and lossless", len(ctx.Media.Events))
	}
	return ClassClean, fmt.Sprintf(
		"clean crash, clean recovery (%d blocks re-derived, root=%q)",
		rep.RecoveredBlocks, rep.ConsistentRoot)
}

// CampaignSpec is the campaign's fixed configuration as it appears in
// the JSON artifact.
type CampaignSpec struct {
	Designs    []string `json:"designs"`
	Workloads  []string `json:"workloads"`
	Attacks    []string `json:"attacks"`
	Seeds      int      `json:"seeds"`
	Ops        int      `json:"ops"`
	CrashPts   int      `json:"crash_points"`
	FaultSeeds int      `json:"fault_seeds,omitempty"`
	Reboots    int      `json:"reboots,omitempty"`
}

// Exemplar is one class's representative cell: the first cell of the
// class in enumeration order, with the one-line command that replays it
// and the exit code that command must produce.
type Exemplar struct {
	Cell     Cell   `json:"cell"`
	Detail   string `json:"detail"`
	Oracle   string `json:"oracle,omitempty"`
	Repro    string `json:"repro"`
	ExitCode int    `json:"exit_code"`
}

// ClassSummary is one row of the campaign census.
type ClassSummary struct {
	Class    Class     `json:"class"`
	Cells    int       `json:"cells"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// SabotageResult records the campaign's ordering-sabotage self-test:
// the reorder-persist defect run over the pinned slice under both
// enumeration modes at equal cell budget.
type SabotageResult struct {
	Mode        string `json:"mode"`
	GuidedCells int    `json:"guided_cells"`
	RandomCells int    `json:"random_cells"`
	Caught      bool   `json:"caught"`
	RandomMiss  bool   `json:"random_missed"`
	Oracle      string `json:"oracle,omitempty"`
	Detail      string `json:"detail,omitempty"`
	ShrinkRuns  int    `json:"shrink_runs,omitempty"`
	Repro       string `json:"repro,omitempty"`
	ExitCode    int    `json:"exit_code"`
}

// CampaignResult is the durability campaign's complete, deterministic
// outcome: the census over behavior classes, the guided-mode edge
// coverage, and the sabotage self-test.
type CampaignResult struct {
	Schema   int            `json:"schema"`
	Spec     CampaignSpec   `json:"spec"`
	Cells    int            `json:"cells"`
	Classes  []ClassSummary `json:"classes"`
	Coverage []CoverageStat `json:"edge_coverage"`
	Sabotage SabotageResult `json:"sabotage"`
}

// CampaignSchema versions the artifact.
const CampaignSchema = 1

// DefaultCampaignOpts is the slice `make campaign` runs: every design,
// two workloads, the full attack set, media faults and reboot loops —
// sized so the campaign finishes in seconds and every behavior class
// has cells to populate it.
func DefaultCampaignOpts() MatrixOpts {
	return MatrixOpts{
		Workloads:  []string{"hot", "mixed"},
		Seeds:      2,
		Ops:        200,
		CrashPts:   3,
		FaultSeeds: 3,
		Reboots:    2,
	}
}

// RegressionCells are shrunk repros of fixed bugs. Every campaign runs
// them after its enumerated cells and counts them in the census, so a
// regression lands in the oracle-failure class.
var RegressionCells = []Cell{
	// A counter overflow whose page re-encryption emptied the spare
	// pool: its epoch drain was once parked by read-only degradation,
	// and recovery flagged the whole page tampered.
	{Design: names.CCNVM, Workload: "hammer", Seed: -28, Ops: 352, CrashAt: 352, Attack: "none", FaultSeed: 92, Stuck: 6, Spares: 1},
}

// Healthy reports whether the campaign saw no real oracle failures and
// the sabotage self-test behaved as designed (guided caught the
// injected bug, random missed it).
func (res *CampaignResult) Healthy() bool {
	for _, cs := range res.Classes {
		if cs.Class == ClassOracleFailure && cs.Cells > 0 {
			return false
		}
	}
	return res.Sabotage.Caught && res.Sabotage.RandomMiss
}

// RunCampaign executes the durability campaign: guided enumeration of
// o and the RegressionCells, every cell classified, plus the pinned
// ordering-sabotage self-test. The result is deterministic for fixed
// options — cells are classified on a worker pool but collected by
// index, and nothing depends on time or scheduling.
func RunCampaign(ctx context.Context, o MatrixOpts, parallel int) (*CampaignResult, error) {
	o = o.withDefaults()
	cells, stats, err := EnumerateGuidedCells(o)
	if err != nil {
		return nil, err
	}
	cells = append(cells, RegressionCells...)
	outcomes := classifyCells(ctx, DefaultRunner(), cells, parallel)

	res := &CampaignResult{
		Schema: CampaignSchema,
		Spec: CampaignSpec{
			Designs:    o.Designs,
			Workloads:  o.Workloads,
			Attacks:    o.Attacks,
			Seeds:      o.Seeds,
			Ops:        o.Ops,
			CrashPts:   o.CrashPts,
			FaultSeeds: o.FaultSeeds,
			Reboots:    o.Reboots,
		},
		Cells:    len(cells),
		Coverage: stats,
	}
	for _, cl := range Classes() {
		cs := ClassSummary{Class: cl}
		for _, out := range outcomes {
			if out.Class != cl {
				continue
			}
			cs.Cells++
			if cs.Exemplar == nil {
				code := 0
				if cl == ClassOracleFailure {
					code = 1
				}
				cs.Exemplar = &Exemplar{
					Cell:     out.Cell,
					Detail:   out.Detail,
					Oracle:   out.Oracle,
					Repro:    out.Cell.Repro(),
					ExitCode: code,
				}
			}
		}
		res.Classes = append(res.Classes, cs)
	}
	res.Sabotage = runSabotageSection(ctx)
	return res, nil
}

// classifyCells classifies every cell on a worker pool, collecting
// outcomes by index so the census is deterministic under parallelism.
func classifyCells(ctx context.Context, r *Runner, cells []Cell, parallel int) []Outcome {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(cells) && len(cells) > 0 {
		parallel = len(cells)
	}
	outcomes := make([]Outcome, len(cells))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				outcomes[i] = r.ClassifyCell(cells[i])
			}
		}()
	}
	for i := range cells {
		select {
		case <-ctx.Done():
		case idxCh <- i:
		}
	}
	close(idxCh)
	wg.Wait()
	return outcomes
}

// runSabotageSection runs the reorder-persist defect over the pinned
// slice in both enumeration modes at equal budget, shrinking the guided
// catch into the report's oracle-failure exemplar.
func runSabotageSection(ctx context.Context) SabotageResult {
	res := SabotageResult{Mode: "reorder-persist", ExitCode: 1}
	br, err := BrokenRunner(res.Mode)
	if err != nil {
		res.Detail = err.Error()
		return res
	}
	opts := SabotageMatrixOpts()
	randomCells := EnumerateCells(opts)
	guidedCells, _, err := EnumerateGuidedCells(opts)
	if err != nil {
		res.Detail = err.Error()
		return res
	}
	res.GuidedCells = len(guidedCells)
	res.RandomCells = len(randomCells)

	res.RandomMiss = !RunMatrix(ctx, br, randomCells, 0, nil).Failed()
	guided := RunMatrix(ctx, br, guidedCells, 0, nil)
	if guided.Failed() {
		f := guided.Failures[0]
		res.Caught = true
		res.Oracle = f.Oracle
		res.Detail = f.Detail
		res.ShrinkRuns = f.ShrinkRuns
		res.Repro = fmt.Sprintf("go run ./cmd/ccnvm-torture -break %s -repro '%s'", res.Mode, f.Cell.String())
	}
	return res
}

// RenderJSON encodes the campaign artifact exactly as the CLI writes
// it.
func (res *CampaignResult) RenderJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RenderMarkdown renders the durability report. artifact is the name of
// the JSON artifact written beside the report. The output is
// deterministic: no timestamps, no environment, cell order fixed by
// enumeration — regenerating the report after a behavior change yields
// a reviewable diff and `make campaign-short` asserts byte-identity in
// CI.
func (res *CampaignResult) RenderMarkdown(artifact string) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "# Durability report\n\n")
	fmt.Fprintf(&b, "A complete census of the fixed-seed torture campaign: every executed\n")
	fmt.Fprintf(&b, "cell lands in exactly one behavior class below, and every observed class\n")
	fmt.Fprintf(&b, "carries a one-line repro of its exemplar cell with the exit code that\n")
	fmt.Fprintf(&b, "command must produce. Crash points are chosen by guided persist-ordering\n")
	fmt.Fprintf(&b, "enumeration (`internal/porder`); the coverage table at the bottom scores\n")
	fmt.Fprintf(&b, "them against evenly spaced points of equal budget.\n\n")
	fmt.Fprintf(&b, "Regenerate with `make campaign`; `make campaign-short` (part of `make ci`)\n")
	fmt.Fprintf(&b, "asserts this file is byte-identical to a fresh run.\n\n")

	s := res.Spec
	fmt.Fprintf(&b, "Campaign: designs=%s; workloads=%s; attacks=%s; seeds=%d; ops=%d;\n",
		strings.Join(s.Designs, ","), strings.Join(s.Workloads, ","), strings.Join(s.Attacks, ","), s.Seeds, s.Ops)
	fmt.Fprintf(&b, "guided crash points (≤%d per trace); fault seeds=%d; reboot loops=%d.\n",
		s.CrashPts, s.FaultSeeds, s.Reboots)
	fmt.Fprintf(&b, "Cells executed: %d. Machine-readable artifact: [`%s`](%s).\n", res.Cells, artifact, artifact)
	fmt.Fprintf(&b, "Of these, %d `RegressionCells` (shrunk repros of fixed bugs) run after the enumerated ones:\n\n", len(RegressionCells))
	for _, c := range RegressionCells {
		fmt.Fprintf(&b, "- `%s`\n", c.Repro())
	}
	fmt.Fprintf(&b, "\n")

	fmt.Fprintf(&b, "## Behavior classes\n\n")
	fmt.Fprintf(&b, "| class | cells | exemplar exit |\n|---|---:|---:|\n")
	for _, cs := range res.Classes {
		exit := "—"
		if cs.Exemplar != nil {
			exit = fmt.Sprintf("%d", cs.Exemplar.ExitCode)
		}
		fmt.Fprintf(&b, "| %s | %d | %s |\n", cs.Class, cs.Cells, exit)
	}
	fmt.Fprintf(&b, "\n")
	for _, cs := range res.Classes {
		fmt.Fprintf(&b, "### %s — %d cells\n\n", cs.Class, cs.Cells)
		fmt.Fprintf(&b, "%s\n\n", classDoc(cs.Class))
		if cs.Exemplar == nil {
			if cs.Class == ClassOracleFailure {
				fmt.Fprintf(&b, "No cell violated an oracle; the sabotage section below proves the\nclass is reachable.\n\n")
			} else {
				fmt.Fprintf(&b, "Not observed in this campaign.\n\n")
			}
			continue
		}
		ex := cs.Exemplar
		fmt.Fprintf(&b, "Exemplar: %s\n\n", ex.Detail)
		fmt.Fprintf(&b, "- repro: `%s`\n", ex.Repro)
		fmt.Fprintf(&b, "- expected exit code: %d\n", ex.ExitCode)
		fmt.Fprintf(&b, "- artifact: `%s` → `classes[%s].exemplar`\n\n", artifact, cs.Class)
	}

	sab := res.Sabotage
	fmt.Fprintf(&b, "## Ordering-sabotage self-test\n\n")
	fmt.Fprintf(&b, "The `%s` break mode injects a controller bug that delays one write's\n", sab.Mode)
	fmt.Fprintf(&b, "durability past the next epoch commit — observable only at a crash point\n")
	fmt.Fprintf(&b, "inside that single persist-ordering edge. At equal cell budget (%d guided\n", sab.GuidedCells)
	fmt.Fprintf(&b, "vs %d evenly spaced cells on the pinned slice):\n\n", sab.RandomCells)
	if sab.Caught {
		fmt.Fprintf(&b, "- guided mode CAUGHT it: oracle `%s`, shrunk in %d runs — %s\n", sab.Oracle, sab.ShrinkRuns, sab.Detail)
		fmt.Fprintf(&b, "- repro: `%s`\n", sab.Repro)
		fmt.Fprintf(&b, "- expected exit code: %d\n", sab.ExitCode)
	} else {
		fmt.Fprintf(&b, "- guided mode MISSED the injected bug — the guided enumeration has regressed\n")
	}
	if sab.RandomMiss {
		fmt.Fprintf(&b, "- evenly spaced points at the same budget passed cleanly: the bug is\n  invisible to uniform sampling, which is the argument for guided mode\n\n")
	} else {
		fmt.Fprintf(&b, "- evenly spaced points ALSO caught it — the pinned window drifted; re-tune\n  `SabotageMatrixOpts`\n\n")
	}

	fmt.Fprintf(&b, "## Edge coverage (guided vs evenly spaced, equal point budget)\n\n")
	fmt.Fprintf(&b, "| design | workload | edges | cuttable | guided cut | random cut | guided %% | random %% |\n")
	fmt.Fprintf(&b, "|---|---|---:|---:|---:|---:|---:|---:|\n")
	for _, st := range res.Coverage {
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %d | %d | %.1f | %.1f |\n",
			st.Design, st.Workload, st.EdgesTotal, st.EdgesCuttable,
			st.GuidedCut, st.RandomCut, 100*st.GuidedCoverage(), 100*st.RandomCoverage())
	}
	fmt.Fprintf(&b, "\n")
	return []byte(b.String())
}
