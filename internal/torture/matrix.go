package torture

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// MatrixOpts selects the slice of the torture matrix to run. Zero-value
// fields take the defaults documented on each field.
type MatrixOpts struct {
	Designs   []string // default: DesignNames()
	Workloads []string // default: WorkloadNames()
	Attacks   []string // default: AttackNames() (includes the clean control)
	Seeds     int      // trace seeds per combination; default 4
	Ops       int      // trace length per cell; default 240
	CrashPts  int      // crash points per trace; default 3
	Ns        []uint64 // update limits cycled across cells; default {4, 16}
	Budget    int      // max cells (0 = unbounded); evenly sampled when exceeded

	// FaultSeeds appends media-fault cells: for every design and
	// workload, this many fault seeds are cycled through FaultProfiles.
	// Zero (the default) adds no fault cells, keeping the faultless
	// matrix byte-identical to its historical shape.
	FaultSeeds int

	// Reboots appends reboot-loop cells: for every design, workload and
	// stride in RebootEvery, one faultless cell and one fault-profile
	// cell whose recovery is interrupted at every stride-th persisted
	// write up to Reboots times before the final uninterrupted pass.
	// Zero (the default) adds no reboot cells.
	Reboots     int
	RebootEvery []int // strike strides cycled per reboot cell; default {2, 3, 5}

	// Spares appends finite-spare cells: for every design and workload,
	// pool sizes from Spares down to a single line are layered over the
	// consuming fault profiles (weak/stuck), sweeping the controller
	// through healthy, degraded and read-only service. Zero (the
	// default) adds no spare cells.
	Spares int

	// KV enumerates KV-namespace crash cells instead of trace cells: for
	// every KV-capable design and seed, the batch workload swept across
	// every host-write boundary, again under the reboot axis when
	// Reboots is set (strides default to {2}), and both again with a
	// compaction pass after every KVCompact-th acknowledged batch when
	// KVCompact is set. The trace, attack and fault options do not apply.
	KV        bool
	KVCompact int
}

// FaultProfiles are the media-fault shapes the matrix cycles fault cells
// through. Torn-write profiles always pair with a finite ADR budget: the
// harness drains epochs synchronously inside WriteBack, so the WPQ holds
// no end-signal-less entries at a crash point and tearing only bites on
// entries past the budget.
func FaultProfiles() []Cell {
	return []Cell{
		{Torn: true, ADRBudget: 8},
		{ADRBudget: 4},
		{Torn: true, ADRBudget: 2, WeakPct: 10},
		{WeakPct: 20, Stuck: 2},
		{Torn: true, ADRBudget: 1, Stuck: 1},
	}
}

// withProfile layers fault profile p, under fault seed seed, onto c.
func (c Cell) withProfile(p Cell, seed int64) Cell {
	c.FaultSeed, c.Torn, c.ADRBudget, c.WeakPct, c.Stuck = seed, p.Torn, p.ADRBudget, p.WeakPct, p.Stuck
	return c
}

func (o MatrixOpts) withDefaults() MatrixOpts {
	if len(o.Designs) == 0 {
		o.Designs = DesignNames()
	}
	if len(o.Workloads) == 0 {
		o.Workloads = WorkloadNames()
	}
	if len(o.Attacks) == 0 {
		o.Attacks = AttackNames()
	}
	if o.Seeds <= 0 {
		o.Seeds = 4
	}
	if o.Ops <= 0 {
		o.Ops = 240
	}
	if o.CrashPts <= 0 {
		o.CrashPts = 3
	}
	if len(o.Ns) == 0 {
		o.Ns = []uint64{4, 16}
	}
	if o.Reboots > 0 && len(o.RebootEvery) == 0 {
		o.RebootEvery = []int{2, 3, 5}
		if o.KV {
			o.RebootEvery = []int{2}
		}
	}
	return o
}

// EnumerateCells expands the options into the concrete cell list, in
// deterministic order. Crash points divide the trace evenly; the update
// limit cycles through Ns so neighbouring cells differ in replay-window
// size. When a budget is set, the full matrix is sampled evenly rather
// than truncated, so every design and attack still appears.
func EnumerateCells(o MatrixOpts) []Cell {
	o = o.withDefaults()
	if o.KV {
		return applyBudget(kvCells(o), o)
	}
	var cells []Cell
	for _, d := range o.Designs {
		for _, w := range o.Workloads {
			for seed := 0; seed < o.Seeds; seed++ {
				for cp := 0; cp < o.CrashPts; cp++ {
					crash := (cp + 1) * o.Ops / (o.CrashPts + 1)
					for ai, atk := range o.Attacks {
						cells = append(cells, o.traceCell(d, w, seed, crash, atk, o.Ns[(seed+cp+ai)%len(o.Ns)]))
					}
				}
			}
		}
	}
	return applyBudget(appendAxisCells(cells, o), o)
}

// traceCell is one trace cell of the matrix: o.Ops ops of workload w
// on design d under trace seed seed, crashed after crash ops with update
// limit n.
func (o MatrixOpts) traceCell(d, w string, seed, crash int, attack string, n uint64) Cell {
	return Cell{Design: d, Workload: w, Seed: int64(seed), Ops: o.Ops, CrashAt: crash, Attack: attack, N: n}.normalized()
}

// appendAxisCells rides the fault, reboot and spare cells after the
// crash-point cells; EnumerateCells and EnumerateGuidedCells share it.
func appendAxisCells(cells []Cell, o MatrixOpts) []Cell {
	return appendSpareCells(appendRebootCells(appendFaultCells(cells, o), o), o)
}

// kvCells enumerates the KV crash cells (see MatrixOpts.KV), each spec
// expanded by kvSweep into one cell per host-write boundary. Designs
// outside KVDesigns are skipped: the KV contract does not apply to them.
func kvCells(o MatrixOpts) []Cell {
	var cells []Cell
	for _, d := range o.Designs {
		if !slices.Contains(KVDesigns(), d) {
			continue
		}
		for seed := 0; seed < o.Seeds; seed++ {
			specs := []Cell{{Design: d, Workload: KVWorkload, Seed: int64(seed), Batches: kvBatches, Attack: "none"}}
			if o.Reboots > 0 {
				rb := specs[0]
				rb.Reboots, rb.RebootEvery = o.Reboots, o.RebootEvery[seed%len(o.RebootEvery)]
				specs = append(specs, rb)
			}
			if o.KVCompact > 0 {
				for _, s := range specs {
					s.CompactEvery = o.KVCompact
					specs = append(specs, s)
				}
			}
			for _, s := range specs {
				cells = append(cells, kvSweep(s)...)
			}
		}
	}
	return cells
}

// appendFaultCells rides media-fault cells after the faultless matrix:
// clean crashes under deterministic media damage, cycled through the
// fault profiles.
func appendFaultCells(cells []Cell, o MatrixOpts) []Cell {
	if o.FaultSeeds <= 0 {
		return cells
	}
	profiles := FaultProfiles()
	for _, d := range o.Designs {
		for _, w := range o.Workloads {
			for fs := 0; fs < o.FaultSeeds; fs++ {
				c := o.traceCell(d, w, fs%o.Seeds, o.Ops*2/3, "none", o.Ns[fs%len(o.Ns)])
				cells = append(cells, c.withProfile(profiles[fs%len(profiles)], int64(fs)*7919+1))
			}
		}
	}
	return cells
}

// appendRebootCells rides reboot-loop cells last: clean crashes whose
// recovery is interrupted and re-entered, half on the idealized device
// and half under a fault profile, so re-entrancy is exercised both
// ways.
func appendRebootCells(cells []Cell, o MatrixOpts) []Cell {
	if o.Reboots <= 0 {
		return cells
	}
	profiles := FaultProfiles()
	for _, d := range o.Designs {
		for wi, w := range o.Workloads {
			for ri, stride := range o.RebootEvery {
				faultless := o.traceCell(d, w, ri%o.Seeds, o.Ops*2/3, "none", o.Ns[ri%len(o.Ns)])
				faultless.RebootEvery, faultless.Reboots = stride, o.Reboots
				faulty := faultless
				faulty.Seed = int64((ri + 1) % o.Seeds)
				p := profiles[(wi+ri)%len(profiles)]
				cells = append(cells, faultless, faulty.withProfile(p, int64(wi+ri)*7919+1))
			}
		}
	}
	return cells
}

// appendSpareCells rides finite-spare cells last: pool sizes from the
// requested maximum down to a single line, each layered over a fault
// profile that actually consumes spares (weak or stuck lines). Large
// pools stay healthy, halved pools brush the degraded threshold, and
// single-line pools exhaust into read-only, so one sweep crosses every
// health state the controller can reach.
func appendSpareCells(cells []Cell, o MatrixOpts) []Cell {
	if o.Spares <= 0 {
		return cells
	}
	var profiles []Cell
	for _, p := range FaultProfiles() {
		if p.WeakPct > 0 || p.Stuck > 0 {
			profiles = append(profiles, p)
		}
	}
	pools := []int{o.Spares}
	if h := max(1, o.Spares/2); h != o.Spares {
		pools = append(pools, h)
	}
	if o.Spares > 1 {
		pools = append(pools, 1)
	}
	for di, d := range o.Designs {
		for wi, w := range o.Workloads {
			for pi, pool := range pools {
				c := o.traceCell(d, w, (wi+pi)%o.Seeds, o.Ops*2/3, "none", o.Ns[pi%len(o.Ns)])
				c.Spares = pool
				cells = append(cells, c.withProfile(profiles[(di+wi+pi)%len(profiles)], int64(di*len(pools)+pi)*7919+1))
			}
		}
	}
	return cells
}

// applyBudget samples the matrix down to the budget. A budgeted sweep
// buys executed cells, so cells the harness would refuse or waste (see
// Cell.RefusalReason) are dropped before sampling — they used to count
// against the budget, which made guided and random sweeps at the same
// budget execute different numbers of effective cells. Unbudgeted
// enumeration keeps the full matrix, refusable cells included, so the
// historical cell counts (and the axis-shape tests pinning them) are
// unchanged.
func applyBudget(cells []Cell, o MatrixOpts) []Cell {
	if o.Budget <= 0 || len(cells) <= o.Budget {
		return cells
	}
	runnable := make([]Cell, 0, len(cells))
	for _, c := range cells {
		if c.RefusalReason() == "" {
			runnable = append(runnable, c)
		}
	}
	cells = runnable
	if len(cells) <= o.Budget {
		return cells
	}
	sampled := make([]Cell, o.Budget)
	for i := range sampled {
		sampled[i] = cells[i*len(cells)/o.Budget]
	}
	return sampled
}

// MatrixFailure is one shrunk failure from a matrix run.
type MatrixFailure struct {
	Failure
	Repro      string `json:"repro"`
	ShrinkRuns int    `json:"shrink_runs"`
}

// Summary aggregates a matrix run.
type Summary struct {
	Cells    int             `json:"cells"`
	Failures []MatrixFailure `json:"failures"`

	// Interrupted marks a run cut short by context cancellation (SIGINT
	// or -timeout); Skipped counts the cells that never executed. A
	// partial summary still lists every failure seen before the cut.
	Interrupted bool `json:"interrupted,omitempty"`
	Skipped     int  `json:"skipped,omitempty"`

	// Mode records how crash points were enumerated: "guided" when the
	// ordering-aware enumeration chose them, empty for the historical
	// evenly spaced matrix. Coverage is the per-design×workload
	// edge-coverage table a guided enumeration produces (each row also
	// scores the evenly spaced points of equal budget on the same
	// graphs, so the two modes are directly comparable).
	Mode     string         `json:"mode,omitempty"`
	Coverage []CoverageStat `json:"edge_coverage,omitempty"`

	// Spare-axis outcome classification, populated only when the matrix
	// carried finite-spare cells. Every executed spare cell lands in
	// exactly one bucket: healed (lossless recovery, no refusals), lost
	// but detected (the report enumerates the loss), or read-only
	// refused (the pool exhausted and the controller refused stores).
	// Cells that failed an oracle are counted in SpareCells only.
	SpareCells   int `json:"spare_cells,omitempty"`
	SpareHealed  int `json:"spare_healed,omitempty"`
	SpareLost    int `json:"spare_lost_detected,omitempty"`
	SpareRefused int `json:"spare_readonly_refused,omitempty"`
}

// spareClass returns the outcome counter a passing finite-spare cell
// lands in — the degraded-mode contract that a dying device heals what
// it can, detects what it loses, and refuses what it can no longer
// serve.
func (s *Summary) spareClass(ev *Context) *int {
	switch {
	case ev.RefusedStores > 0:
		return &s.SpareRefused
	case !ev.baseRep().Lossless():
		return &s.SpareLost
	}
	return &s.SpareHealed
}

// Failed reports whether any cell violated an oracle.
func (s *Summary) Failed() bool { return len(s.Failures) > 0 }

// RunMatrix executes the cells on a worker pool (each cell builds its
// own engine and reference; nothing is shared between cells), shrinks
// every failure, and returns the summary with failures in cell-index
// order. parallel <= 0 selects GOMAXPROCS workers; progress, when
// non-nil, is called after each cell with (done, total, failure-or-nil).
// Cancelling ctx stops dispatching new cells — in-flight cells finish —
// and skips the shrink pass, so a partial summary is returned promptly.
func RunMatrix(ctx context.Context, r *Runner, cells []Cell, parallel int, progress func(done, total int, f *Failure)) *Summary {
	type result struct {
		i     int
		f     *Failure
		class *int // the spare-outcome counter a passing spare cell adds to
	}
	sum := &Summary{Cells: len(cells)}
	results := make(chan result)
	go func() {
		defer close(results)
		sum.Skipped = forEachCell(ctx, len(cells), parallel, func(i int) {
			ev, f := r.runCell(cells[i])
			res := result{i: i, f: f}
			if f == nil && cells[i].Spares > 0 {
				res.class = sum.spareClass(ev)
			}
			results <- res
		})
	}()
	failed := make([]*Failure, len(cells))
	done := 0
	for rr := range results {
		done++
		failed[rr.i] = rr.f
		if cells[rr.i].Spares > 0 {
			sum.SpareCells++
		}
		if rr.class != nil {
			*rr.class++
		}
		if progress != nil {
			progress(done, len(cells), rr.f)
		}
	}
	sum.Interrupted = ctx.Err() != nil

	for _, f := range failed {
		if f == nil {
			continue
		}
		if sum.Interrupted {
			// No time to shrink: report the raw failure with its repro.
			sum.Failures = append(sum.Failures, MatrixFailure{Failure: *f, Repro: f.Cell.Repro()})
			continue
		}
		min, runs := Shrink(r, *f, 64)
		sum.Failures = append(sum.Failures, MatrixFailure{
			Failure:    min,
			Repro:      min.Cell.Repro(),
			ShrinkRuns: runs,
		})
	}
	return sum
}

// forEachCell runs fn(i) for every cell index in [0,n) on a pool of
// parallel workers (<= 0: GOMAXPROCS) and returns how many indices it
// skipped: once ctx is cancelled, in-flight calls finish and no further
// call starts. RunMatrix and the campaign share it.
func forEachCell(ctx context.Context, n, parallel int, fn func(i int)) int {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	idx := make(chan int)
	var skipped atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(parallel, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					skipped.Add(1)
					continue
				}
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return int(skipped.Load())
}

// Describe renders a short human-readable summary line.
func (s *Summary) Describe() string {
	note := ""
	if s.Interrupted {
		note = fmt.Sprintf(" (interrupted, %d cells skipped)", s.Skipped)
	}
	if s.SpareCells > 0 {
		note += fmt.Sprintf(" [spares: %d cells, %d healed, %d lost-detected, %d readonly-refused]",
			s.SpareCells, s.SpareHealed, s.SpareLost, s.SpareRefused)
	}
	if !s.Failed() {
		return fmt.Sprintf("torture: %d cells, all oracles passed%s", s.Cells-s.Skipped, note)
	}
	return fmt.Sprintf("torture: %d cells, %d FAILED%s", s.Cells-s.Skipped, len(s.Failures), note)
}
