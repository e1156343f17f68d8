package torture

import (
	"fmt"
	"math/rand"
	"slices"

	"ccnvm/internal/attack"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/seccrypto"
	"ccnvm/internal/store"
	"ccnvm/internal/trace"
)

// Failure is one oracle violation, tied to the exact cell that produced
// it.
type Failure struct {
	Cell   Cell   `json:"cell"`
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

// Error renders the failure; Failure satisfies error so cell runs can be
// returned from helpers directly.
func (f *Failure) Error() string {
	return fmt.Sprintf("oracle %s: %s (cell %s)", f.Oracle, f.Detail, f.Cell.String())
}

// failf builds the failure of oracle on cell c.
func failf(c Cell, oracle, format string, args ...any) *Failure {
	return &Failure{Cell: c, Oracle: oracle, Detail: fmt.Sprintf(format, args...)}
}

// Runner executes torture cells. The Recover, Apply and ApplyInterrupted
// seams default to the real recovery implementation; tests substitute
// deliberately broken ones to prove the oracles catch them. Arm and
// Reopen break what reaches the media instead, from the harness side,
// leaving the store itself nominal. Arm, when set, is invoked on every
// cell's freshly built store before the workload is driven; the edit it
// returns (nil: none) is applied to each image taken of the device
// afterwards — the adversary's mid-trace snapshot and the crash image.
// Reopen, when set, edits a KV cell's recovered store before the
// namespace is rebuilt over it.
type Runner struct {
	Recover          func(*engine.CrashImage) *recovery.Report
	Apply            func(*engine.CrashImage, *recovery.Report) recovery.Recovered
	ApplyInterrupted func(*engine.CrashImage, *recovery.Report, *recovery.Interrupt) (recovery.Recovered, bool)
	Arm              func(c Cell, st *store.Store) func(*nvm.Image)
	Reopen           func(c Cell, st *store.Store) error
}

// DefaultRunner runs cells against the real recovery path.
func DefaultRunner() *Runner { return &Runner{} }

// withSeams returns a copy of r whose unset recovery seams run the real
// recovery implementation.
func (r *Runner) withSeams() *Runner {
	s := *r
	if s.Recover == nil {
		s.Recover = recovery.Recover
	}
	if s.Apply == nil {
		s.Apply = recovery.Apply
	}
	if s.ApplyInterrupted == nil {
		s.ApplyInterrupted = recovery.ApplyInterrupted
	}
	return &s
}

// arm runs the Arm seam on a cell's fresh store and returns its image
// edit, a no-op when the seam is unset or declines the cell.
func (r *Runner) arm(c Cell, st *store.Store) func(*nvm.Image) {
	if r.Arm != nil {
		if edit := r.Arm(c, st); edit != nil {
			return edit
		}
	}
	return func(*nvm.Image) {}
}

// pattern derives a block's store content from its address and the op
// sequence number, so every write is distinguishable from every other.
func pattern(addr mem.Addr, v byte) mem.Line {
	var l mem.Line
	for i := range l {
		l[i] = byte(uint64(addr)>>(8*(i%8))) ^ v ^ byte(i)
	}
	return l
}

// RunCell executes one cell end to end and returns the first oracle
// violation, or nil when every oracle passes. A panic anywhere in the
// cell (engine, recovery, oracle) is converted into a "panic" failure —
// fuzzed and fault-injected paths must degrade to typed errors, never
// take the harness down.
func (r *Runner) RunCell(c Cell) *Failure {
	_, fail := r.runCell(c)
	return fail
}

// runCell is RunCell's body, returning the evidence context alongside
// the first oracle violation so the durability campaign can classify
// passing cells too. Trace and KV cells differ only in setup (runTrace,
// runKV), which may fail the cell itself; the oracle rows whose scope
// covers the cell then judge it in table order. ctx is nil when setup
// failed before a workload was driven, or the cell panicked.
func (r *Runner) runCell(c Cell) (ctx *Context, fail *Failure) {
	c = c.normalized()
	defer func() {
		if p := recover(); p != nil {
			ctx, fail = nil, failf(c, "panic", "cell panicked: %v", p)
		}
	}()
	if err := c.Validate(); err != nil {
		return nil, failf(c, "cell-spec", "%v", err)
	}
	r = r.withSeams()
	setup := r.runTrace
	if c.KV() {
		setup = r.runKV
	}
	if ctx, fail = setup(c); fail != nil {
		return ctx, fail
	}
	for _, o := range oracles {
		if !o.Scope.covers(c) {
			continue
		}
		if detail := o.Check(ctx); detail != "" {
			return ctx, &Failure{Cell: c, Oracle: o.Name, Detail: detail}
		}
	}
	return ctx, nil
}

// runTrace is a trace cell's setup: drive the trace to the crash point,
// inject the attack, recover, and run the reboot loop.
func (r *Runner) runTrace(c Cell) (*Context, *Failure) {
	ops, err := GenOps(c.Workload, c.Seed, c.Ops)
	if err != nil {
		return nil, failf(c, "cell-spec", "%v", err)
	}
	eng, ctrl, err := BuildEngine(c.Design, engine.Params{UpdateLimit: c.N, QueueEntries: c.M}, c.faultModel())
	if err != nil {
		return nil, failf(c, "cell-spec", "%v", err)
	}
	edit := r.arm(c, ctrl)
	ref := NewReference(mem.MustLayout(Capacity), seccrypto.DefaultKeys())
	ctx := &Context{Cell: c, Ref: ref, Runner: r}

	// Drive the trace to the crash point, mirroring stores into the
	// reference and checking loads against it. The adversary snapshots
	// the DIMM halfway to the crash — the "old version" replay attacks
	// restore from. On weak-line cells the same point doubles as the
	// maintenance window: a scrub pass rewrites every unstable line, and
	// the read-error oracle asserts none survives it.
	snapAt := c.CrashAt / 2
	var snap *nvm.Image
	var snapWrites map[mem.Addr]uint64
	ctx.ReadDivergence = driveTrace(eng, ops[:c.CrashAt], ref, func(i int, op trace.Op, now int64) (int64, bool) {
		if i == snapAt {
			snap = eng.(interface{ NVMSnapshot() *nvm.Image }).NVMSnapshot()
			edit(snap)
			snapWrites = ref.WriteCounts()
			if c.Spares > 0 && c.Stuck > 0 {
				// The spare axis needs live stuck lines to consume the
				// pool: model a mid-trace power event that stuck the
				// cell's lines now, so the rest of the trace heals them
				// through spares on rewrite, remaps them on retry
				// exhaustion at reads, and — once the pool empties —
				// degrades the controller for real.
				ctx.MidTraceStuck = len(ctrl.Device().InjectStuckLines())
			}
			if c.WeakPct > 0 {
				now = ctrl.Scrub(now)
				ctx.PostScrubWeak = len(ctrl.Device().WeakLines())
			}
		}
		if op.Kind == trace.Store && c.Spares > 0 && ctrl.Health() == store.HealthReadOnly {
			// Front door of the degraded mode: a spare-exhausted
			// controller accepts no new stores, so the harness skips
			// them (the reference must not advance past what the
			// device acknowledged). On the first refusal it probes the
			// back door once — a direct controller write to a line the
			// reference never touched — so the degradation oracle can
			// prove the refusal is real, not just advisory.
			ctx.RefusedStores++
			if !ctx.ROProbed {
				if probe := roProbeAddr(ref); probe != 0 {
					ctx.ROProbed = true
					ctx.ROProbeAddr = probe
					ctrl.HostWrite(now, probe, pattern(probe, 0xA5))
				}
			}
			return now, false
		}
		return now, true
	})
	ctx.RunViolations = eng.Stats().IntegrityViolations

	ctx.Img = eng.Crash()
	edit(ctx.Img.Image)
	ctx.Media = ctx.Img.MediaLog
	ctx.CtrlStats = ctrl.CtrlStats()
	if c.Spares > 0 {
		// The device-side pool counters are in-memory state the crash tear
		// cannot touch, so this snapshot is the ground truth the persisted
		// remap table (possibly torn by the crash) is judged against.
		ctx.SpareStats = ctrl.Device().SpareStats()
		ctx.HealthAtCrash = ctrl.Health()
		ctx.RemapEntriesAtCrash = ctrl.Device().RemapEntries()
	}
	if err := ctrl.Err(); err != nil {
		return ctx, failf(c, "device-fault", "controller recorded a device/protocol error: %v", err)
	}
	ctx.Victims, ctx.AttackChanged, err = injectAttack(c, ctx.Img, snap, snapWrites, ref)
	if err != nil {
		return ctx, failf(c, "cell-spec", "%v", err)
	}
	ctx.Rep = r.Recover(ctx.Img)
	if !r.runRebootLoop(ctx) {
		return ctx, failf(c, "reboot-bounded", "uninterrupted final recovery pass failed to commit")
	}
	return ctx, nil
}

// runRebootLoop executes the cell's reboot axis, for trace and KV cells
// alike: after a clean first recovery, run Apply with an interrupt
// striking the RebootEvery-th persisted recovery write, re-enter
// recovery on the half-applied image, and repeat, finishing with one
// uninterrupted pass; it reports false when that pass fails to commit.
// Before the first strike it clones the crash image and recovers the
// clone single-shot through the same runner seams — the convergence
// oracles' golden final state. Cells whose first recovery is not clean
// skip the loop: their Apply semantics stay owned by the single-shot
// oracles (this also exempts w/o CC, whose crash images always flag
// tamper).
func (r *Runner) runRebootLoop(ctx *Context) bool {
	c := ctx.Cell
	if c.Reboots <= 0 || !ctx.Rep.Clean() {
		return true
	}
	ctx.FirstRep = ctx.Rep
	ctx.GoldenImg = ctx.Img.Clone()
	ctx.GoldenRep = r.Recover(ctx.GoldenImg)
	grec := r.Apply(ctx.GoldenImg, ctx.GoldenRep)
	ctx.GoldenRec = &grec
	ctx.FinalPlan = -1
	rep := ctx.Rep
	done := false
	for pass := 1; pass <= c.Reboots && !done; pass++ {
		itr := &recovery.Interrupt{After: c.RebootEvery, Faults: c.faultModel(), Seq: uint64(pass)}
		rec, ok := r.ApplyInterrupted(ctx.Img, rep, itr)
		ctx.RebootPlans = append(ctx.RebootPlans, itr.Plan)
		if ok {
			// The pass finished before its strike point: converged early.
			ctx.Recovered = &rec
			done = true
		} else {
			rep = r.Recover(ctx.Img)
		}
	}
	if !done {
		itr := &recovery.Interrupt{Seq: uint64(c.Reboots + 1)}
		rec, ok := r.ApplyInterrupted(ctx.Img, rep, itr)
		ctx.FinalPlan = itr.Plan
		if !ok {
			return false
		}
		ctx.Recovered = &rec
	}
	ctx.Rep = rep
	ctx.applied = true
	ctx.rebootRan = true
	return true
}

// driveTrace is the one trace-drive loop every trace path shares, so
// crash points mean the same op boundary everywhere: ops run in order,
// each after its gap; a store writes pattern(addr, i) and a load reads
// the block back. ref, when non-nil, mirrors every store and checks
// every load, and the first load diverging from it is returned. hook,
// when non-nil, runs ahead of op i's gap: it returns the clock (a scrub
// pass advances it) and whether the op runs (a refused store does not).
func driveTrace(eng engine.Engine, ops []trace.Op, ref *Reference, hook func(i int, op trace.Op, now int64) (int64, bool)) string {
	divergence := ""
	now := int64(0)
	for i, op := range ops {
		run := true
		if hook != nil {
			now, run = hook(i, op, now)
		}
		now += int64(op.Gap)
		if !run {
			continue
		}
		switch op.Kind {
		case trace.Store:
			pt := pattern(op.Addr, byte(i))
			now = eng.WriteBack(now, op.Addr, pt) + 8
			if ref != nil {
				ref.WriteBack(op.Addr, pt)
			}
		case trace.Load:
			got, done := eng.ReadBlock(now, op.Addr)
			if ref != nil && got != ref.Plaintext(op.Addr) && divergence == "" {
				divergence = fmt.Sprintf("op %d: load of %#x returned content diverging from the reference plaintext",
					i, uint64(mem.Align(op.Addr)))
			}
			now = done + 8
		}
	}
	return divergence
}

// injectAttack mutates the crash image according to the cell's attack
// kind. It returns the primary victim addresses and whether the image
// content actually changed — a replay that restores identical bytes is a
// no-op the oracles must not demand detection of.
func injectAttack(c Cell, img *engine.CrashImage, snap *nvm.Image, snapWrites map[mem.Addr]uint64, ref *Reference) ([]mem.Addr, bool, error) {
	if c.Attack == "none" {
		return nil, false, nil
	}
	rng := rand.New(rand.NewSource(c.Seed ^ int64(c.CrashAt)<<20 ^ attackSalt(c.Attack)))
	addrs := ref.Written()
	if len(addrs) == 0 {
		return nil, false, nil
	}
	lay := img.Image.Layout
	switch c.Attack {
	case "spoof":
		victim := addrs[rng.Intn(len(addrs))]
		if err := attack.SpoofData(img, victim); err != nil {
			return nil, false, err
		}
		return []mem.Addr{victim}, true, nil

	case "splice":
		if len(addrs) < 2 {
			return nil, false, nil
		}
		a := addrs[rng.Intn(len(addrs))]
		b := addrs[rng.Intn(len(addrs))]
		for b == a {
			b = addrs[rng.Intn(len(addrs))]
		}
		la, _ := img.Image.Read(a)
		lb, _ := img.Image.Read(b)
		if err := attack.SpliceData(img, a, b); err != nil {
			return nil, false, err
		}
		return []mem.Addr{a, b}, la != lb, nil

	case "counter-replay":
		// Prefer a victim whose counter line moved since the snapshot, so
		// the replay actually rewinds state.
		victim := pickVictim(rng, addrs, func(a mem.Addr) bool {
			ca := lay.CounterLineOf(a)
			cur, _ := img.Image.Read(ca)
			old, _ := snap.Read(ca)
			return cur != old
		})
		ca := lay.CounterLineOf(victim)
		before, _ := img.Image.Read(ca)
		if err := attack.ReplayCounterLine(img, snap, victim); err != nil {
			return nil, false, err
		}
		after, _ := img.Image.Read(ca)
		return []mem.Addr{victim}, before != after, nil

	case "data-replay":
		// Prefer a block written on both sides of the snapshot: its old
		// (data, HMAC) pair verifies against the old counter, which is the
		// Figure 4 replay the Nwb bookkeeping exists for.
		victim := pickVictim(rng, addrs, func(a mem.Addr) bool {
			return snapWrites[a] > 0 && ref.writes[a] > snapWrites[a]
		})
		before, _ := img.Image.Read(victim)
		ha, _ := lay.HMACLineOf(victim)
		beforeH, _ := img.Image.Read(ha)
		if err := attack.ReplayBlock(img, snap, victim); err != nil {
			return nil, false, err
		}
		after, _ := img.Image.Read(victim)
		afterH, _ := img.Image.Read(ha)
		return []mem.Addr{victim}, before != after || beforeH != afterH, nil

	case "tree-spoof":
		// Corrupt a persisted level-1 tree node. Designs that keep the
		// tree on chip only never persist one, making this a no-op there.
		var nodes []mem.Addr
		for _, a := range img.Image.Store.Range(lay.Bounds(mem.RegionTree)) {
			if lv, _ := lay.NodeAt(a); lv == 1 {
				nodes = append(nodes, a)
			}
		}
		if len(nodes) == 0 {
			return nil, false, nil
		}
		slices.Sort(nodes)
		na := nodes[rng.Intn(len(nodes))]
		_, idx := lay.NodeAt(na)
		if err := attack.SpoofTreeNode(img, 1, idx); err != nil {
			return nil, false, err
		}
		return []mem.Addr{na}, true, nil
	}
	return nil, false, fmt.Errorf("torture: unknown attack %q", c.Attack)
}

// roProbeAddr picks a data line the reference machine never wrote — the
// degradation probe's target, chosen so a leaked write is unambiguously
// the probe's. It scans down from the top of the data region; 0 (never a
// probe-worthy line: the trace's working set starts there) means no free
// line was found.
func roProbeAddr(ref *Reference) mem.Addr {
	for a := mem.Addr(Capacity) - mem.LineSize; a > 0; a -= mem.LineSize {
		if ref.writes[a] == 0 {
			return a
		}
	}
	return 0
}

// pickVictim returns a random address satisfying pref, falling back to
// any address when none does.
func pickVictim(rng *rand.Rand, addrs []mem.Addr, pref func(mem.Addr) bool) mem.Addr {
	var good []mem.Addr
	for _, a := range addrs {
		if pref(a) {
			good = append(good, a)
		}
	}
	if len(good) > 0 {
		return good[rng.Intn(len(good))]
	}
	return addrs[rng.Intn(len(addrs))]
}

func attackSalt(kind string) int64 {
	var h int64
	for _, b := range []byte(kind) {
		h = h*131 + int64(b)
	}
	return h
}
