package torture

import (
	"fmt"
	"strings"

	"ccnvm/internal/design/names"
	"ccnvm/internal/engine"
	"ccnvm/internal/porder"
	"ccnvm/internal/trace"
)

// CoverageStat is one design×workload row of the edge-coverage table a
// guided enumeration produces. Counts aggregate over the row's traces
// (one graph per seed). Each row also scores the evenly spaced crash
// points of equal count on the same graphs, so guided and random
// placement are directly comparable at identical budget: GuidedCut and
// RandomCut count the distinct persist-ordering edges each placement
// cuts out of EdgesCuttable.
type CoverageStat struct {
	Design        string `json:"design"`
	Workload      string `json:"workload"`
	Traces        int    `json:"traces"`
	EdgesTotal    int    `json:"edges_total"`
	EdgesCuttable int    `json:"edges_cuttable"`
	GuidedPoints  int    `json:"guided_points"`
	GuidedCut     int    `json:"guided_cut"`
	RandomPoints  int    `json:"random_points"`
	RandomCut     int    `json:"random_cut"`
}

// GuidedCoverage is the fraction of cuttable edges the guided points
// cut; RandomCoverage the same for the evenly spaced points.
func (s CoverageStat) GuidedCoverage() float64 { return frac(s.GuidedCut, s.EdgesCuttable) }

// RandomCoverage is the evenly spaced placement's edge-coverage
// fraction on the same graphs.
func (s CoverageStat) RandomCoverage() float64 { return frac(s.RandomCut, s.EdgesCuttable) }

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// ProfileTrace drives the full (design, workload, seed, ops, n) trace
// on a fresh faultless engine with a persist-order recorder attached
// and returns the resulting ordering graph. The drive loop is RunCell's
// (driveTrace), so the event op tags align with the harness's
// crash-point semantics: a cell crashing at k observes precisely the
// events tagged Op < k.
func ProfileTrace(designName, workload string, seed int64, ops int, n uint64) (*porder.Graph, error) {
	trOps, err := GenOps(workload, seed, ops)
	if err != nil {
		return nil, err
	}
	eng, ctrl, err := BuildEngine(designName, engine.Params{UpdateLimit: n}, nil)
	if err != nil {
		return nil, err
	}
	rec := porder.NewRecorder()
	rec.Attach(ctrl)
	driveTrace(eng, trOps, nil, func(i int, _ trace.Op, now int64) (int64, bool) {
		rec.BeginOp(i)
		return now, true
	})
	if err := ctrl.Err(); err != nil {
		return nil, fmt.Errorf("torture: profiling %s/%s seed %d: %w", designName, workload, seed, err)
	}
	return porder.Build(rec.Events()), nil
}

// EnumerateGuidedCells is EnumerateCells's ordering-aware counterpart:
// instead of dividing each trace evenly, it profiles the trace's
// persist-ordering graph and schedules one crash point per distinct
// edge cut (greedy set cover, at most CrashPts points — the same
// per-trace budget the random matrix spends). Traces pin their update
// limit by seed so one profiling run serves all of the trace's crash
// points. Fault, reboot and spare cells ride along unchanged — their
// crash points probe media damage, re-entrancy and wear, not ordering —
// and the budget applies after the same refusal filtering as the random
// matrix, so -budget sweeps are mode-comparable. KV cells crash at
// write boundaries, not trace ops: with o.KV the enumeration is
// EnumerateCells's, without coverage rows.
func EnumerateGuidedCells(o MatrixOpts) ([]Cell, []CoverageStat, error) {
	o = o.withDefaults()
	if o.KV {
		return EnumerateCells(o), nil, nil
	}
	var cells []Cell
	var stats []CoverageStat
	for _, d := range o.Designs {
		for _, w := range o.Workloads {
			st := CoverageStat{Design: d, Workload: w}
			for seed := 0; seed < o.Seeds; seed++ {
				n := o.Ns[seed%len(o.Ns)]
				g, err := ProfileTrace(d, w, int64(seed), o.Ops, n)
				if err != nil {
					return nil, nil, err
				}
				guided := g.EnumeratePoints(o.CrashPts, o.Ops)
				random := porder.EvenPoints(o.CrashPts, o.Ops)
				st.Traces++
				st.EdgesTotal += len(g.Edges)
				st.EdgesCuttable += g.CuttableCount()
				st.GuidedPoints += len(guided)
				st.GuidedCut += len(g.CutSet(guided))
				st.RandomPoints += len(random)
				st.RandomCut += len(g.CutSet(random))
				for _, cp := range guided {
					for _, atk := range o.Attacks {
						cells = append(cells, o.traceCell(d, w, seed, cp, atk, n))
					}
				}
			}
			stats = append(stats, st)
		}
	}
	return applyBudget(appendAxisCells(cells, o), o), stats, nil
}

// SabotageMatrixOpts is the pinned matrix slice of the guided-mode
// self-test: under the reorder-persist sabotage (BrokenRunner), the
// guided enumeration of this slice must catch the injected ordering
// bug while the evenly spaced enumeration of the SAME slice — the same
// cell budget — passes cleanly. The numbers are empirical and fixed
// forever: on this trace the victim-write→commit window is ops
// (66,100], the evenly spaced points land at 53 and 106 (both
// outside), and the guided set cover picks a point inside it.
func SabotageMatrixOpts() MatrixOpts {
	return MatrixOpts{
		Designs:   []string{names.CCNVM},
		Workloads: []string{"mixed"},
		Attacks:   []string{"none"},
		Seeds:     1,
		Ops:       160,
		CrashPts:  2,
		Ns:        []uint64{4},
	}
}

// DescribeCoverage renders the edge-coverage table for text output.
func DescribeCoverage(stats []CoverageStat) string {
	if len(stats) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "edge coverage (guided vs evenly spaced, equal point budget):\n")
	fmt.Fprintf(&b, "  %-12s %-8s %6s %9s %7s %7s\n", "design", "workload", "edges", "cuttable", "guided", "random")
	for _, s := range stats {
		fmt.Fprintf(&b, "  %-12s %-8s %6d %9d %6.1f%% %6.1f%%\n",
			s.Design, s.Workload, s.EdgesTotal, s.EdgesCuttable,
			100*s.GuidedCoverage(), 100*s.RandomCoverage())
	}
	return b.String()
}
