package torture

// Shrink minimizes a failing cell while preserving the violated oracle,
// re-running candidate cells against the same runner. It exploits the
// prefix-stability of GenOps: a cell with a smaller CrashAt executes a
// strict prefix of the original trace, so bisecting the crash point is a
// sound reduction. The search spends at most budget cell executions and
// returns the smallest still-failing cell plus the number of runs used.
//
// Six phases, each kept only if the cell still fails the same oracle:
//  1. drop the attack (a failure that survives as a clean crash is a
//     strictly simpler repro, whatever oracle it then trips);
//  2. reduce the fault dimensions: first all of them at once (a
//     faultless repro is strictly simpler, whatever oracle it trips),
//     then one dimension at a time, then the fault seed to 1;
//  3. reduce the reboot axis: drop it entirely, then halve the reboot
//     count toward one and walk the strike stride down toward 2;
//  4. on a KV cell, drop the crash entirely (a cell that fails with
//     power lost only after its last batch is the simplest repro there
//     is), halve the batch count toward one, and tighten the compaction
//     stride to every batch;
//  5. bisect CrashAt downward (to one op, or zero host writes), then
//     walk it down linearly;
//  6. trim Ops to CrashAt so the repro generates no dead trace tail.
func Shrink(r *Runner, f Failure, budget int) (Failure, int) {
	if budget <= 0 {
		budget = 64
	}
	best := f
	best.Cell = best.Cell.normalized()
	runs := 0

	// try runs the candidate; it accepts the result as the new best when
	// it fails with the same oracle (sameOracle) or with any oracle.
	try := func(c Cell, sameOracle bool) bool {
		if runs >= budget {
			return false
		}
		runs++
		g := r.RunCell(c)
		if g == nil {
			return false
		}
		if sameOracle && g.Oracle != best.Oracle {
			return false
		}
		best = *g
		best.Cell = best.Cell.normalized()
		return true
	}
	// descend walks one axis down toward floor while the cell keeps
	// failing the same oracle: halve it, else step it down by one, else
	// stop.
	descend := func(axis func(*Cell) *int, floor int) {
		for runs < budget && *axis(&best.Cell) > floor {
			c := best.Cell
			*axis(&c) /= 2
			if try(c, true) {
				continue
			}
			c = best.Cell
			*axis(&c)--
			if !try(c, true) {
				break
			}
		}
	}

	// Phase 1: a cell that fails even without its attack is simpler.
	if best.Cell.Attack != "none" {
		c := best.Cell
		c.Attack = "none"
		try(c, false)
	}

	// Phase 2: reduce the fault dimensions.
	if best.Cell.Faulty() {
		c := best.Cell
		c.FaultSeed, c.Torn, c.ADRBudget, c.WeakPct, c.Stuck, c.Spares = 0, false, 0, 0, 0, 0
		try(c, false)
	}
	if best.Cell.Faulty() {
		if best.Cell.Torn {
			c := best.Cell
			c.Torn = false
			try(c, true)
		}
		if best.Cell.ADRBudget > 0 {
			c := best.Cell
			c.ADRBudget = 0
			try(c, true)
		}
		// Dropping the spare pool must precede dropping its consumer axes:
		// Validate forbids spares without weak or stuck lines.
		if best.Cell.Spares > 0 {
			c := best.Cell
			c.Spares = 0
			try(c, true)
		}
		if best.Cell.WeakPct > 0 && (best.Cell.Spares == 0 || best.Cell.Stuck > 0) {
			c := best.Cell
			c.WeakPct = 0
			try(c, true)
		}
		if best.Cell.Stuck > 0 && (best.Cell.Spares == 0 || best.Cell.WeakPct > 0) {
			c := best.Cell
			c.Stuck = 0
			try(c, true)
		}
		for runs < budget && best.Cell.Spares > 1 {
			// A smaller pool exhausts sooner; walk it toward one line.
			c := best.Cell
			c.Spares = best.Cell.Spares / 2
			if !try(c, true) {
				break
			}
		}
		if best.Cell.Faulty() && best.Cell.FaultSeed != 1 {
			c := best.Cell
			c.FaultSeed = 1
			try(c, true)
		}
	}

	// Phase 3: reduce the reboot axis. A cell that fails without reboots
	// is strictly simpler, whatever oracle it trips; otherwise fewer
	// passes and a smaller stride mean fewer recovery re-entries to read
	// through. The stride floor is 2 (Validate forbids stride 1 with
	// multiple reboots), reachable only once the count is down to 1.
	if best.Cell.Reboots > 0 {
		c := best.Cell
		c.Reboots, c.RebootEvery = 0, 0
		try(c, false)
	}
	for runs < budget && best.Cell.Reboots > 1 {
		c := best.Cell
		c.Reboots = best.Cell.Reboots / 2
		if !try(c, true) {
			break
		}
	}
	for runs < budget && best.Cell.Reboots > 0 && best.Cell.RebootEvery > 2 {
		c := best.Cell
		c.RebootEvery = best.Cell.RebootEvery - 1
		if !try(c, true) {
			break
		}
	}
	if best.Cell.Reboots == 1 && best.Cell.RebootEvery == 2 {
		c := best.Cell
		c.RebootEvery = 1
		try(c, true)
	}

	// Phase 4: shrink a KV cell's workload.
	floor := 1
	if best.Cell.KV() {
		floor = 0
		if best.Cell.CrashAt >= 0 {
			c := best.Cell
			c.CrashAt = -1
			try(c, true)
		}
		descend(func(c *Cell) *int { return &c.Batches }, 1)
		if best.Cell.CompactEvery > 1 {
			c := best.Cell
			c.CompactEvery = 1
			try(c, true)
		}
	}

	// Phase 5: bisect the crash point down, then creep linearly.
	descend(func(c *Cell) *int { return &c.CrashAt }, floor)

	// Phase 6: drop the trace tail past the crash.
	if !best.Cell.KV() && best.Cell.Ops > best.Cell.CrashAt {
		c := best.Cell
		c.Ops = c.CrashAt
		try(c, true)
	}
	return best, runs
}
