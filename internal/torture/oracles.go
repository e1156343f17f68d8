package torture

import (
	"fmt"
	"slices"
	"strings"

	"ccnvm/internal/bmt"
	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/seccrypto"
	"ccnvm/internal/store"
)

// Context carries one executed cell's evidence to the oracles: the
// reference machine, the (possibly attacked) crash image, the recovery
// report, and the bookkeeping the run recorded on the way.
type Context struct {
	Cell   Cell
	Ref    *Reference
	Img    *engine.CrashImage
	Rep    *recovery.Report
	Runner *Runner

	// AttackChanged reports whether the injected attack actually altered
	// persistent bytes; a no-op mutation leaves nothing to detect and the
	// cell is judged as a clean crash.
	AttackChanged bool
	// Victims are the attack's primary targets: data blocks for
	// spoof/splice/replay, the node address for tree-spoof.
	Victims []mem.Addr

	// RunViolations is the engine's runtime integrity-violation count at
	// the crash; ReadDivergence records the first load that returned
	// content diverging from the reference ("" when none).
	RunViolations  uint64
	ReadDivergence string

	// Media is the harness-side ground-truth fault log the controller
	// recorded at the crash (nil on faultless cells); CtrlStats carries
	// the controller's retry/scrub/crash-damage counters. PostScrubWeak
	// is the number of weak lines surviving the mid-trace scrub pass.
	Media         *nvm.FaultLog
	CtrlStats     store.ControllerStats
	PostScrubWeak int
	// MidTraceStuck counts the stuck lines the spare axis injects
	// mid-trace (see RunCell) — damage with no crash-time fault event,
	// so the cry-wolf arm of adr-budget must not blame the crash for it.
	MidTraceStuck int

	// Spare-pool evidence, populated only when the cell arms a finite
	// pool (Spares > 0). SpareStats, HealthAtCrash and
	// RemapEntriesAtCrash snapshot the device's in-memory pool state at
	// the crash — ground truth the persisted (possibly torn) remap table
	// is judged against. RefusedStores counts trace stores the harness
	// skipped at the read-only front door; ROProbed/ROProbeAddr record
	// the single direct write pushed past it to prove the refusal bites.
	SpareStats          nvm.SpareStats
	HealthAtCrash       store.HealthState
	RemapEntriesAtCrash []nvm.RemapEntry
	RefusedStores       int
	ROProbed            bool
	ROProbeAddr         mem.Addr

	// Recovered is the TCB state Apply produced, once applyRecovery ran.
	Recovered *recovery.Recovered

	// Reboot-loop evidence, populated only when the cell's reboot axis
	// ran (Reboots > 0 and the first recovery was clean). FirstRep is the
	// pre-reboot report; the Golden* trio is the crash image cloned and
	// recovered single-shot through the same runner seams; RebootPlans
	// records each interrupted pass's plan size and FinalPlan the
	// uninterrupted pass's (-1 when the loop converged early).
	FirstRep    *recovery.Report
	GoldenImg   *engine.CrashImage
	GoldenRep   *recovery.Report
	GoldenRec   *recovery.Recovered
	RebootPlans []int
	FinalPlan   int

	// kv is a KV cell's evidence (see runKV); nil on trace cells.
	kv *kvEvidence

	applied    bool
	rebootRan  bool
	goldenDivs []string
	goldenRun  bool
}

// caps resolves the cell's declared capability set from the design
// registry; the oracles read expectations from it instead of matching on
// design names. Cells are validated before running, so the lookup
// cannot miss.
func (c *Context) caps() design.Capabilities { return design.MustLookup(c.Cell.Design).Caps }

// applyRecovery runs the runner's Apply seam once; oracles that inspect
// post-recovery state share the applied image.
func (c *Context) applyRecovery() {
	if !c.applied {
		rec := c.Runner.Apply(c.Img, c.Rep)
		c.Recovered = &rec
		c.applied = true
	}
}

// golden returns the divergences between the image, recovered by
// Apply, and the reference machine, computing them once.
func (c *Context) golden() []string {
	if !c.goldenRun {
		c.goldenRun = true
		c.applyRecovery()
		c.goldenDivs = c.Ref.VerifyImage(c.Img)
	}
	return c.goldenDivs
}

// attackInPlay reports whether this cell carries an attack that changed
// persistent state.
func (c *Context) attackInPlay() bool {
	return c.Cell.Attack != "none" && c.AttackChanged
}

// baseRep is the report the single-shot oracles judge. When the reboot
// axis ran, that is the first, pre-reboot report: reboot passes
// legitimately heal stuck lines and shrink the loss evidence as they
// re-apply, and the final (resumed) report's own invariants are owned
// by the reboot oracles, which hold it against the single-shot golden.
func (c *Context) baseRep() *recovery.Report {
	if c.rebootRan {
		return c.FirstRep
	}
	return c.Rep
}

// Oracle is one invariant: its name, the statement it holds cells to,
// the cells it applies to, and its check. Check returns "" on pass,
// otherwise a human-readable failure detail.
type Oracle struct {
	Name  string
	Doc   string
	Scope Scope
	Check func(*Context) string
}

// Scope names the cells an oracle applies to, in the words the oracle
// table prints; runCell evaluates a row only on the cells it covers.
type Scope string

const (
	scopeTrace   Scope = "trace cells"
	scopeFault   Scope = "fault cells"
	scopeWeak    Scope = "weak-line cells"
	scopeSpares  Scope = "finite-spare cells"
	scopePlainKV Scope = "KV cells without compaction"
	scopeCompact Scope = "compacting KV cells"
	scopeKV      Scope = "KV cells"
	scopeEvery   Scope = "every cell"
)

// covers reports whether the scope includes cell c. Validate keeps the
// fault, weak and spare axes off KV cells and compaction off trace cells.
func (s Scope) covers(c Cell) bool {
	switch s {
	case scopeTrace:
		return !c.KV()
	case scopeFault:
		return c.Faulty()
	case scopeWeak:
		return c.WeakPct > 0
	case scopeSpares:
		return c.Spares > 0
	case scopePlainKV:
		return c.KV() && c.CompactEvery == 0
	case scopeCompact:
		return c.CompactEvery > 0
	case scopeKV:
		return c.KV()
	}
	return s == scopeEvery
}

// Oracles returns the invariant table in evaluation order; runCell
// reports the first violation among the rows that apply to the cell.
func Oracles() []Oracle { return oracles }

// OracleTable renders the oracles, then the harness failures, as the
// markdown table `ccnvm-torture -oracles` prints and DESIGN.md embeds.
func OracleTable() string {
	var b strings.Builder
	b.WriteString("| name | applies to | holds that |\n|---|---|---|\n")
	for _, o := range slices.Concat(oracles, harnessFailures) {
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", o.Name, o.Scope, o.Doc)
	}
	return b.String()
}

// harnessFailures are the failures setup raises when it cannot produce
// evidence for the rows (it also raises three rows' own names).
var harnessFailures = []Oracle{
	{Name: "cell-spec", Scope: scopeEvery, Doc: "Setup: the cell validates, and its workload, engine and attack build."},
	{Name: "panic", Scope: scopeEvery, Doc: "Setup: nothing in the cell panics; fuzzed and fault-injected paths " +
		"degrade to typed errors."},
	{Name: "device-fault", Scope: scopeTrace, Doc: "Setup: the controller records no device or protocol error."},
	{Name: "kv-batch-error", Scope: scopeKV, Doc: "Setup: every batch issued before the crash is acknowledged."},
	{Name: "kv-compact-error", Scope: scopeCompact, Doc: "Setup: every compaction pass run before the crash succeeds."},
}

var oracles = []Oracle{
	{
		Name: "runtime-reads", Scope: scopeTrace,
		Doc: "Before the crash, every load returns the reference plaintext and " +
			"the engine flags zero integrity violations on its own traffic.",
		Check: checkRuntimeReads,
	},
	{
		Name: "clean-recovery", Scope: scopeTrace,
		Doc: "A crash without an effective attack recovers with zero tamper flags " +
			"on every recoverable design (w/o CC is exempt: unbounded staleness is " +
			"its motivating defect). SC additionally needs zero counter retries.",
		Check: checkCleanRecovery,
	},
	{
		Name: "attack-caught", Scope: scopeTrace,
		Doc: "Every injected attack that changed persistent state is detected, " +
			"and designs that claim location pin it: spoof/splice to the victim " +
			"blocks, counter replay to the victim's counter line, data replay " +
			"(ccnvm-ext) to the victim's page. A report that stays clean is " +
			"tolerated only if recovery provably healed the image back to the " +
			"reference state.",
		Check: checkAttackCaught,
	},
	{
		Name: "epoch-atomicity", Scope: scopeTrace,
		Doc: "For epoch-draining designs the NVM tree verifies against exactly " +
			"one root register (drains are all-or-nothing), and on clean crashes " +
			"the recovery retries account exactly for the replay window (Nretry " +
			"== Nwb; 0 for SC).",
		Check: checkEpochAtomicity,
	},
	{
		Name: "golden-state", Scope: scopeTrace,
		Doc: "Whenever recovery reports clean, the recovered image must match the " +
			"golden unmemoized reference machine bit-for-bit: counter lines, " +
			"decrypted data and stored HMACs.",
		Check: checkGoldenState,
	},
	{
		Name: "torn-write-detected", Scope: scopeFault,
		Doc: "Every surviving block of the recovered image verifies as a version " +
			"the trace actually wrote, any block left at a stale version is covered " +
			"by a loss report, stuck lines surface as media errors, and the " +
			"post-recovery tree matches the recovered root.",
		Check: checkTornWriteDetected,
	},
	{
		Name: "adr-budget", Scope: scopeFault,
		Doc: "The crash-time ADR flush never exceeds its energy budget, every " +
			"damaged line is covered by the suspects manifest recovery consumes, " +
			"and an undamaged fault cell recovers lossless — recovery neither " +
			"trusts torn lines nor cries wolf.",
		Check: checkADRBudget,
	},
	{
		Name: "read-error-bounded-retry", Scope: scopeWeak,
		Doc: "Transient read errors are absorbed by bounded retry (no read ever " +
			"exhausts the retry budget) and a scrub pass rewrites or remaps every " +
			"weak line, so none survives the maintenance window.",
		Check: checkReadErrorBoundedRetry,
	},
	{
		Name: "reboot-convergence", Scope: scopeTrace,
		Doc: "A recovery interrupted at every k-th persisted write and re-entered " +
			"across reboots converges bit-for-bit to the single-shot golden clone: " +
			"store content, stuck-line set and committed root registers.",
		Check: checkRebootConvergence,
	},
	{
		Name: "reboot-no-new-loss", Scope: scopeTrace,
		Doc: "Interrupted recovery never makes the verdict worse: the final report " +
			"loses or flags no block the single-shot report did not, and a clean " +
			"single-shot recovery stays clean through any number of reboots.",
		Check: checkRebootNoNewLoss,
	},
	{
		Name: "reboot-bounded", Scope: scopeTrace,
		Doc: "Interrupted recovery converges within the journaled Apply's reboot " +
			"budget: the uninterrupted final pass commits, write plans shrink " +
			"monotonically across passes, no plan size repeats across more than " +
			"three interrupted passes, and the converged image carries no active " +
			"recovery journal.",
		Check: checkRebootBounded,
	},
	{
		Name: "remap-consistency", Scope: scopeSpares,
		Doc: "The crash image carries a decodable remap table whose entries are " +
			"unique, line-aligned and in-range, recovery's report agrees with the " +
			"table it replayed, and every remapped data line the report does not " +
			"enumerate as lost reads back bit-identical to a version the trace actually wrote.",
		Check: checkRemapConsistency,
	},
	{
		Name: "spare-accounting", Scope: scopeSpares,
		Doc: "Spares consumed equal remap-table entries and never exceed the " +
			"pool (or go negative); the persisted table trails the in-memory " +
			"count by at most the one commit a torn crash may roll back; and a " +
			"refused remap proves the pool was genuinely empty.",
		Check: checkSpareAccounting,
	},
	{
		Name: "degradation-correctness", Scope: scopeSpares,
		Doc: "A spare-exhausted controller goes read-only for real: the harness " +
			"only ever skips stores once the pool is empty, the direct probe " +
			"write issued past the front door never lands on the device and is " +
			"counted as refused, and no write is refused while the controller " +
			"still claims write service.",
		Check: checkDegradationCorrectness,
	},

	// The KV rows judge a recovered namespace against the prefix states
	// of its issued batch sequence (kvcrash.go). A row that cannot judge
	// a claim leaves it to the later row that owns it: the shrinker keeps
	// only candidates failing the same name, so the order is behaviour.
	{Name: "kv-compact-gen", Scope: scopeCompact, Check: checkKVCompactGen, Doc: "The recovered manifest " +
		"generation, the count of committed tail moves, equals the in-memory one at the crash: a pass moved the " +
		"tail iff its single-slot commit was accepted."},
	{Name: "kv-batch-atomic", Scope: scopeKV, Check: checkKVBatchAtomic, Doc: "The namespace equals the state " +
		"after batch j for some j in [acked, issued]: no partial batch is ever visible, compaction or not."},
	{Name: "kv-acked-durable", Scope: scopePlainKV, Check: checkKVAckedDurable, Doc: "Every acknowledged batch " +
		"is applied: the recovered log holds at least the acknowledged batch count."},
	{Name: "kv-header-last", Scope: scopeKV, Check: checkKVHeaderLast, Doc: "Every acknowledged batch's last " +
		"accepted data-region write is its lowest-address line, the frame header, so a crash inside a frame " +
		"leaves its header unwritten (recorded through the store's event tap, chained behind any tap the runner's " +
		"Arm seam installs)."},
	{Name: "kv-no-ghost-resurrection", Scope: scopeCompact, Check: checkKVNoGhostResurrection, Doc: "A key " +
		"deleted (or never written) in every reachable prefix state never reappears through compact + crash + recover."},
	{Name: "kv-compact-lost-acked", Scope: scopeCompact, Check: checkKVCompactLostAcked, Doc: "A key live in " +
		"every reachable prefix state never disappears through compact + crash + recover."},
	{Name: "kv-no-ghosts", Scope: scopeKV, Check: checkKVNoGhosts, Doc: "Nothing beyond the issued batches " +
		"appears: the recovered log holds at most the issued batch count, and the keymap has exactly the matched " +
		"prefix state's keys."},
	{Name: "kv-reopen-idempotent", Scope: scopeCompact, Check: checkKVReopenIdempotent, Doc: "A second reopen " +
		"of the recovered store rebuilds the first's keymap, frame seq and log head."},
	{Name: "kv-clean-recovery", Scope: scopeKV, Check: checkKVCleanRecovery, Doc: "An un-attacked KV crash " +
		"recovers clean — the first pass, the last re-entered pass of the reboot loop and the single-shot golden " +
		"alike — and the recovered store reopens with its keymap rebuilt, twice over for compacting cells."},
	{Name: "kv-compact-idempotent", Scope: scopeCompact, Check: checkKVCompactIdempotent, Doc: "Under the " +
		"reboot axis, the reboot-looped recovery lands on the same generation and namespace as a single-shot " +
		"recovery of a pristine clone."},
	{Name: "kv-reboot-bounded", Scope: scopeKV, Check: checkFinalPassCommitted, Doc: "Under the reboot axis, " +
		"the uninterrupted final recovery pass commits and leaves no active recovery journal."},
}

func checkRuntimeReads(c *Context) string {
	if c.ReadDivergence != "" {
		return c.ReadDivergence
	}
	if c.RunViolations != 0 {
		return fmt.Sprintf("engine flagged %d integrity violations on untampered traffic", c.RunViolations)
	}
	return ""
}

func checkCleanRecovery(c *Context) string {
	if c.attackInPlay() {
		return "" // attack-caught owns attacked cells
	}
	if c.caps().TamperOnCrash {
		return "" // legitimately unrecoverable; golden-state still guards its clean cases
	}
	rep := c.baseRep()
	if !rep.Clean() {
		// This holds on fault cells too: pure media damage must be
		// classified as crash loss (LostBlocks / CrashLossWindow), never
		// as tampering — the loss-vs-attack distinguishability claim.
		return fmt.Sprintf("clean crash flagged: mismatches=%d tampered=%d replayedPages=%d potentialReplay=%v (Nwb=%d Nretry=%d)",
			len(rep.TreeMismatches), len(rep.Tampered), len(rep.ReplayedPages),
			rep.PotentialReplay, rep.Nwb, rep.Nretry)
	}
	if !c.Cell.Faulty() && c.caps().ZeroRetryRecovery && (rep.Nretry != 0 || rep.RecoveredBlocks != 0) {
		return fmt.Sprintf("design persists the full path per write-back yet recovery needed %d retries over %d blocks",
			rep.Nretry, rep.RecoveredBlocks)
	}
	return ""
}

func checkAttackCaught(c *Context) string {
	if !c.attackInPlay() || c.caps().TamperOnCrash {
		// A tamper-on-crash design cannot distinguish an attack from its
		// own staleness; its attacked cells assert nothing.
		return ""
	}
	rep := c.Rep
	if c.Cell.Faulty() {
		// Under media faults the located-evidence minimums are waived:
		// damage may displace the evidence, and a loss verdict already
		// proves the attacked state was not silently trusted. Only a
		// report that claims a lossless clean image must prove it healed.
		if rep.Clean() && rep.Lossless() {
			if _, divs := c.goldenVersions(); len(divs) > 0 {
				return fmt.Sprintf("%s attack on %s went undetected under faults: %s",
					c.Cell.Attack, victimList(c.Victims), divs[0])
			}
		}
		return ""
	}
	if rep.Clean() {
		// Recovery noticed nothing. That is acceptable only when the
		// recovered state provably equals the reference (e.g. Osiris's
		// online recovery re-deriving a replayed counter line).
		if divs := c.golden(); len(divs) > 0 {
			return fmt.Sprintf("%s attack on %s went undetected and corrupted state: %s",
				c.Cell.Attack, victimList(c.Victims), divs[0])
		}
		return ""
	}
	// Detected. Enforce the location minimums each design claims.
	switch c.Cell.Attack {
	case "spoof":
		if !tamperedContains(rep, c.Victims[0]) {
			return fmt.Sprintf("spoofed block %#x not located (tampered=%v)", uint64(c.Victims[0]), rep.Tampered)
		}
	case "splice":
		for _, v := range c.Victims {
			if !tamperedContains(rep, v) {
				return fmt.Sprintf("splice endpoint %#x not located (tampered=%v)", uint64(v), rep.Tampered)
			}
		}
	case "counter-replay":
		if c.caps().EpochAtomic {
			want := c.Img.Image.Layout.CounterLineOf(c.Victims[0])
			if !mismatchContains(rep, want) {
				return fmt.Sprintf("replayed counter line %#x not located by the tree check (mismatches=%v)",
					uint64(want), rep.TreeMismatches)
			}
		}
	case "data-replay":
		if c.caps().Replay == design.ReplayPerLinePage {
			// The replayed HMAC line spans 8 neighbouring blocks, so the
			// tamper evidence may land on a neighbour; §4.4 claims page
			// granularity, and that is what the oracle demands.
			page := pageOf(c.Victims[0])
			if !slices.Contains(rep.ReplayedPages, page) &&
				!slices.ContainsFunc(rep.Tampered, func(tb recovery.TamperedBlock) bool { return pageOf(tb.Addr) == page }) {
				return fmt.Sprintf("extension failed to localize the data replay to page %#x (pages=%v tampered=%v)",
					uint64(page), rep.ReplayedPages, rep.Tampered)
			}
		}
	case "tree-spoof":
		if c.caps().EpochAtomic && !mismatchContains(rep, c.Victims[0]) {
			return fmt.Sprintf("spoofed tree node %#x not located (mismatches=%v)",
				uint64(c.Victims[0]), rep.TreeMismatches)
		}
	}
	return ""
}

func checkEpochAtomicity(c *Context) string {
	caps := c.caps()
	if !caps.EpochAtomic {
		return ""
	}
	if c.Cell.Faulty() {
		// Torn or dropped drain writes legitimately leave the tree
		// matching neither root and skew the retry accounting; the
		// torn-write-detected oracle owns fault cells.
		return ""
	}
	rep := c.baseRep()
	treeAttacked := c.attackInPlay() &&
		(c.Cell.Attack == "counter-replay" || c.Cell.Attack == "tree-spoof")
	if !treeAttacked && rep.ConsistentRoot != "old" && rep.ConsistentRoot != "new" {
		return fmt.Sprintf("NVM tree verifies against neither root register (partial epoch leaked?): %d mismatches",
			len(rep.TreeMismatches))
	}
	if c.attackInPlay() {
		return ""
	}
	if caps.ZeroRetryRecovery {
		if rep.Nretry != 0 {
			return fmt.Sprintf("zero-retry crash image needed %d counter retries", rep.Nretry)
		}
	} else if rep.Nretry != rep.Nwb {
		return fmt.Sprintf("replay-window bookkeeping broken on a clean crash: Nretry=%d Nwb=%d", rep.Nretry, rep.Nwb)
	}
	return ""
}

func checkGoldenState(c *Context) string {
	if c.Cell.Faulty() {
		// Accepted crash loss means the latest reference state is not
		// the contract; the torn-write-detected oracle holds fault cells
		// to the versioned contract instead.
		return ""
	}
	if !c.baseRep().Clean() {
		return "" // a flagged image is not claimed to be serviceable
	}
	if c.caps().TamperOnCrash && c.attackInPlay() {
		// w/o CC cannot detect replays (its motivating defect): a clean
		// report over an attacked image asserts nothing there.
		return ""
	}
	if divs := c.golden(); len(divs) > 0 {
		return "recovered image diverges from the golden reference: " + strings.Join(divs, "; ")
	}
	return ""
}

// goldenVersions verifies the recovered image against the reference's
// version history (see VerifyImageVersions), excluding the blocks the
// report enumerates as lost or tampered, after applying recovery.
// Nothing is cached: every call walks the image again.
func (c *Context) goldenVersions() (stale []mem.Addr, divs []string) {
	excluded := map[mem.Addr]bool{}
	for _, lb := range c.baseRep().LostBlocks {
		excluded[lb.Addr] = true
	}
	for _, tb := range c.baseRep().Tampered {
		excluded[tb.Addr] = true
	}
	c.applyRecovery()
	return c.Ref.VerifyImageVersions(c.Img, excluded)
}

// checkTornWriteDetected is the tentpole oracle: on fault cells, every
// line the crash damaged must end up healed (rebuilt to a written
// version) or lost-but-detected (enumerated or covered by a loss
// verdict) — never silently accepted.
func checkTornWriteDetected(c *Context) string {
	if c.attackInPlay() {
		return ""
	}
	rep := c.baseRep()
	stale, divs := c.goldenVersions()
	if len(divs) > 0 {
		return "recovered image silently accepts content the trace never wrote: " + divs[0]
	}
	if len(stale) > 0 && rep.Lossless() && !c.caps().TamperOnCrash {
		// Stale content is acceptable crash loss ONLY when the report
		// says so; a lossless verdict over rewound blocks is silent
		// acceptance. (w/o CC is exempt: unbounded staleness is its
		// motivating defect, and it makes no loss claims.)
		return fmt.Sprintf("block %#x recovered at a stale version but the report claims lossless recovery",
			uint64(stale[0]))
	}
	// Stuck lines the device reports must surface as media errors.
	if c.Media != nil {
		for _, ev := range c.Media.Events {
			if ev.Kind == "stuck" && !slices.Contains(rep.MediaErrors, ev.Addr) {
				return fmt.Sprintf("stuck line %#x not reported as a media error", uint64(ev.Addr))
			}
		}
	}
	// The post-recovery image must be self-consistent: the rebuilt tree
	// verifies against the root Apply installed. Mismatches at (or under)
	// a stuck line are waived — Apply cannot rewrite an unreadable node,
	// and the report already surfaces it as a media error.
	lay := c.Img.Image.Layout
	tree := bmt.New(lay, seccrypto.MustEngine(c.Img.Keys))
	stuck := c.Img.Image.Stuck
	for _, m := range tree.VerifyAll(c.Img.Image, c.Recovered.TCB.RootNew, c.Img.Image.Store.Addrs()) {
		if stuck[m.Addr] {
			continue
		}
		if m.Level < lay.TopLevel() {
			pl, pi, _ := lay.ParentOf(m.Level, m.Index)
			if stuck[lay.NodeAddr(pl, pi)] {
				continue
			}
		}
		return fmt.Sprintf("post-recovery tree mismatches the recovered root beyond any stuck line: %s", m.String())
	}
	return ""
}

// checkADRBudget asserts the crash-time fault machinery kept its own
// contract: the flush count respects the energy budget, the suspects
// manifest covers every damaged line, and a cell whose crash damaged
// nothing recovers lossless.
func checkADRBudget(c *Context) string {
	if c.Media == nil {
		return ""
	}
	rep := c.baseRep()
	if c.Cell.ADRBudget > 0 && c.Media.Flushed > c.Cell.ADRBudget {
		return fmt.Sprintf("ADR flushed %d entries over a budget of %d", c.Media.Flushed, c.Cell.ADRBudget)
	}
	for _, ev := range c.Media.Events {
		if ev.Kind == "stuck" {
			continue // stuck lines are reported by the device, not the manifest
		}
		if !slices.Contains(c.Img.Suspects, ev.Addr) {
			return fmt.Sprintf("%s line %#x damaged at crash but missing from the suspects manifest", ev.Kind, uint64(ev.Addr))
		}
	}
	// Cry-wolf: a crash that damaged nothing and left no unserviced
	// entries must not be blamed on the media. (Clean()-side verdicts are
	// the other oracles' business — w/o CC legitimately flags its own
	// staleness as tamper.) The spare axis injects stuck lines mid-trace
	// with no crash-time fault event; when the crash lands before the
	// remaining trace has healed them through the pool, the loss those
	// lines cause is real damage, not a false alarm — so the arm only
	// fires when no such injection happened.
	if !c.attackInPlay() && c.MidTraceStuck == 0 && len(c.Media.Events) == 0 && len(c.Img.Suspects) == 0 &&
		(len(rep.LostBlocks) > 0 || len(rep.MediaErrors) > 0 || rep.CrashLossWindow) {
		return fmt.Sprintf("crash damaged nothing yet recovery reports media loss (lost=%d mediaErrs=%d window=%v)",
			len(rep.LostBlocks), len(rep.MediaErrors), rep.CrashLossWindow)
	}
	if len(c.Img.Suspects) > 0 && rep.Lossless() {
		// An unserviced WPQ entry may have dropped a write whole, leaving
		// stale self-consistent bytes no check can flag: recovery must
		// report the loss window pessimistically, never claim lossless.
		return fmt.Sprintf("suspects manifest lists %d unserviced lines yet recovery claims a lossless image",
			len(c.Img.Suspects))
	}
	return ""
}

// checkReadErrorBoundedRetry asserts transient read errors never escape
// the bounded retry (no permanent read error on a weak-only cell) and
// that the scrub pass left no weak line behind. Finite-spare cells relax
// both arms exactly as far as the degraded modes allow: a permanent read
// error is legitimate only once the pool was empty (remap-on-demand had
// nothing to draw from), and a surviving weak line only when scrub ran
// throttled or give-up remaps started failing — states a healthy-at-crash
// controller by definition never entered.
func checkReadErrorBoundedRetry(c *Context) string {
	if c.CtrlStats.PermanentReadErrors != 0 {
		if c.Cell.Spares == 0 || c.SpareStats.Remaining() > 0 {
			return fmt.Sprintf("%d reads exhausted the retry budget (transient errors must stay transient)",
				c.CtrlStats.PermanentReadErrors)
		}
	}
	if c.PostScrubWeak != 0 {
		if c.Cell.Spares == 0 || c.HealthAtCrash == store.HealthHealthy {
			return fmt.Sprintf("%d weak lines survived the scrub pass", c.PostScrubWeak)
		}
	}
	return ""
}

// checkRemapConsistency holds the persisted remap table to its contract:
// it decodes (recovery repaired any torn slot in place), its entries are
// well-formed and unique, the recovery report reflects exactly the record
// it replayed, and remapped data lines still read back as written — a
// remap must be transparent to content.
func checkRemapConsistency(c *Context) string {
	rec, ok, torn := nvm.LoadRemapTable(c.Img.Image.RemapTable)
	if !ok {
		return "finite-pool crash image carries no decodable remap table"
	}
	if torn {
		return "recovery left a torn remap slot unrepaired"
	}
	if rec.Total != c.SpareStats.Total {
		return fmt.Sprintf("remap table claims a pool of %d spares, device was provisioned with %d",
			rec.Total, c.SpareStats.Total)
	}
	lay := c.Img.Image.Layout
	seen := map[mem.Addr]bool{}
	for _, e := range rec.Entries {
		if e.Addr != mem.Align(e.Addr) || uint64(e.Addr) >= lay.TotalBytes() {
			return fmt.Sprintf("remap entry %#x is not a line address inside the device", uint64(e.Addr))
		}
		if seen[e.Addr] {
			return fmt.Sprintf("line %#x remapped twice (one line, one spare)", uint64(e.Addr))
		}
		seen[e.Addr] = true
	}
	rep := c.baseRep()
	if rep.SparesTotal != rec.Total || rep.SparesUsed != len(rec.Entries) {
		return fmt.Sprintf("recovery report (total=%d used=%d) disagrees with the table it replayed (total=%d used=%d)",
			rep.SparesTotal, rep.SparesUsed, rec.Total, len(rec.Entries))
	}
	// Remap transparency: a remapped data line the report does not
	// enumerate as lost must carry a version the trace wrote. The stale
	// set from the versioned walk excludes lost/tampered blocks already,
	// so any remapped member is a remap that corrupted or rewound content.
	stale, _ := c.goldenVersions()
	for _, a := range stale {
		if seen[a] {
			return fmt.Sprintf("remapped line %#x recovered at a version the report does not account for", uint64(a))
		}
	}
	return ""
}

// checkSpareAccounting reconciles the three spare ledgers — in-memory
// pool counters, persisted remap table, recovery report — and pins the
// only divergence a crash may cause: a torn commit rolling back exactly
// one record.
func checkSpareAccounting(c *Context) string {
	s := c.SpareStats
	if s.Total != c.Cell.Spares {
		return fmt.Sprintf("device provisioned %d spares, cell asked for %d", s.Total, c.Cell.Spares)
	}
	if s.Used < 0 || s.Used > s.Total {
		return fmt.Sprintf("spare accounting out of range: used %d of %d", s.Used, s.Total)
	}
	if s.Used != len(c.RemapEntriesAtCrash) {
		return fmt.Sprintf("%d spares consumed but %d remap entries recorded in memory",
			s.Used, len(c.RemapEntriesAtCrash))
	}
	if s.Refused > 0 && s.Used != s.Total {
		return fmt.Sprintf("%d remaps refused while %d spares remained", s.Refused, s.Remaining())
	}
	rec, ok, _ := nvm.LoadRemapTable(c.Img.Image.RemapTable)
	if !ok {
		return "" // remap-consistency owns the undecodable case
	}
	if wn := len(rec.Entries); wn != s.Used && !(c.Cell.Torn && wn == s.Used-1) {
		return fmt.Sprintf("persisted table records %d remaps, device consumed %d spares (only a torn commit may roll back, and only one record)",
			wn, s.Used)
	}
	return ""
}

// checkDegradationCorrectness asserts read-only means read-only: stores
// are refused exactly when the pool is empty, and the probe write the
// harness pushed past the front door was rejected by the controller
// itself — counted, and never persisted.
func checkDegradationCorrectness(c *Context) string {
	if c.RefusedStores > 0 {
		if c.SpareStats.Remaining() > 0 {
			return fmt.Sprintf("%d stores skipped as read-only while %d spares remained",
				c.RefusedStores, c.SpareStats.Remaining())
		}
		if c.HealthAtCrash != store.HealthReadOnly {
			return fmt.Sprintf("stores were refused but the controller reports %v at the crash", c.HealthAtCrash)
		}
	}
	if c.ROProbed {
		if _, ok := c.Img.Image.Store.Read(c.ROProbeAddr); ok {
			return fmt.Sprintf("read-only controller silently persisted the probe write at %#x", uint64(c.ROProbeAddr))
		}
		if c.CtrlStats.RefusedWrites == 0 {
			return "the read-only probe write vanished without being counted as refused"
		}
	}
	if c.HealthAtCrash != store.HealthReadOnly && c.CtrlStats.RefusedWrites > 0 {
		return fmt.Sprintf("%d writes refused while the controller still claimed write service (%v)",
			c.CtrlStats.RefusedWrites, c.HealthAtCrash)
	}
	return ""
}

// checkRebootConvergence is the reboot tentpole oracle: the image the
// interrupted loop converged to must be bit-identical to the golden
// clone recovered in one uninterrupted shot — store content, stuck-line
// set and the committed root registers.
func checkRebootConvergence(c *Context) string {
	if !c.rebootRan {
		return ""
	}
	got, want := c.Img.Image, c.GoldenImg.Image
	if !got.Store.Equal(want.Store) {
		for _, a := range slices.Concat(want.Store.Addrs(), got.Store.Addrs()) {
			wl, _ := want.Store.Read(a)
			if gl, _ := got.Store.Read(a); gl != wl {
				return fmt.Sprintf("store diverges from single-shot recovery at %#x after %d interrupted passes",
					uint64(a), len(c.RebootPlans))
			}
		}
	}
	if len(got.Stuck) != len(want.Stuck) {
		return fmt.Sprintf("stuck-line set diverges from single-shot recovery (%d lines vs %d)",
			len(got.Stuck), len(want.Stuck))
	}
	for a := range want.Stuck {
		if !got.Stuck[a] {
			return fmt.Sprintf("line %#x stuck after single-shot recovery but not after the reboot loop", uint64(a))
		}
	}
	gt, wt := c.Recovered.TCB, c.GoldenRec.TCB
	if gt.RootNew != wt.RootNew || gt.RootOld != wt.RootOld || gt.Nwb != wt.Nwb {
		return fmt.Sprintf("committed TCB registers diverge from single-shot recovery (Nwb %d vs %d)",
			gt.Nwb, wt.Nwb)
	}
	return ""
}

// checkRebootNoNewLoss asserts interruption never worsens the verdict:
// re-entered recovery reports no loss, tamper or pessimism the
// single-shot recovery of the same image did not.
func checkRebootNoNewLoss(c *Context) string {
	if !c.rebootRan {
		return ""
	}
	g, f := c.GoldenRep, c.Rep
	if g.Clean() && !f.Clean() {
		return fmt.Sprintf("single-shot recovery is clean but the resumed report flags: mismatches=%d tampered=%d replayedPages=%d potentialReplay=%v",
			len(f.TreeMismatches), len(f.Tampered), len(f.ReplayedPages), f.PotentialReplay)
	}
	if a, ok := firstNew(f.LostBlocks, g.LostBlocks, func(b recovery.LostBlock) mem.Addr { return b.Addr }); ok {
		return fmt.Sprintf("reboots turned block %#x into crash loss (single-shot recovery kept it)", uint64(a))
	}
	if a, ok := firstNew(f.Tampered, g.Tampered, func(b recovery.TamperedBlock) mem.Addr { return b.Addr }); ok {
		return fmt.Sprintf("reboots turned block %#x into a tamper verdict (single-shot recovery kept it)", uint64(a))
	}
	if f.CrashLossWindow && !g.CrashLossWindow {
		return "reboots introduced a crash-loss window the single-shot recovery did not report"
	}
	if f.PotentialReplay && !g.PotentialReplay {
		return "reboots introduced a replay verdict the single-shot recovery did not report"
	}
	return ""
}

// rebootStride bounds the convergence of the shared journaled Apply,
// whatever the design: across any rebootStride consecutive interrupted
// passes (each struck at its k-th persisted write, k >= 2) the remaining
// write plan shrinks by at least one entry, so converging takes at most
// rebootStride reboots per initial plan entry, plus rebootStride for the
// journal bootstrap.
const rebootStride = 3

// checkRebootBounded asserts recovery converges within that budget:
// every pass's write plan is no larger than its predecessor's, no plan
// size repeats across more than rebootStride interrupted passes, and the
// converged image carries no active journal.
func checkRebootBounded(c *Context) string {
	if !c.rebootRan {
		return ""
	}
	plans := append([]int{}, c.RebootPlans...)
	if c.FinalPlan >= 0 {
		plans = append(plans, c.FinalPlan)
	}
	for i := 1; i < len(plans); i++ {
		if plans[i] > plans[i-1] {
			return fmt.Sprintf("recovery write plan grew across reboots: pass %d planned %d lines after %d",
				i+1, plans[i], plans[i-1])
		}
	}
	if c.Cell.RebootEvery >= 2 {
		// Striking the first write of every pass (RebootEvery == 1) makes
		// zero progress by construction, so the stride bound only binds
		// when each pass can persist at least one record.
		run := 1
		for i := 1; i < len(c.RebootPlans); i++ {
			if c.RebootPlans[i] != c.RebootPlans[i-1] {
				run = 1
				continue
			}
			if run++; run > rebootStride {
				return fmt.Sprintf("plan size %d repeated across %d interrupted passes (declared stride %d): recovery is not progressing",
					c.RebootPlans[i], run, rebootStride)
			}
		}
	}
	return checkFinalPassCommitted(c)
}

// checkFinalPassCommitted holds the reboot loop's final pass to its
// commit: runCell already fails a pass that reports failure, and a pass
// that claims success must have deactivated the recovery journal.
func checkFinalPassCommitted(c *Context) string {
	if c.rebootRan && recovery.JournalActive(c.Img) {
		return "converged recovery left an active journal behind"
	}
	return ""
}

// firstNew returns the address of the first record of f whose address
// no record of g carries: evidence the reboots added.
func firstNew[T any](f, g []T, addr func(T) mem.Addr) (mem.Addr, bool) {
	for _, x := range f {
		if !slices.ContainsFunc(g, func(y T) bool { return addr(y) == addr(x) }) {
			return addr(x), true
		}
	}
	return 0, false
}

func tamperedContains(rep *recovery.Report, a mem.Addr) bool {
	return slices.ContainsFunc(rep.Tampered, func(tb recovery.TamperedBlock) bool { return tb.Addr == a })
}

func mismatchContains(rep *recovery.Report, a mem.Addr) bool {
	return slices.ContainsFunc(rep.TreeMismatches, func(m bmt.Mismatch) bool { return m.Addr == a })
}

func pageOf(a mem.Addr) mem.Addr {
	return mem.Addr(uint64(a) / mem.PageSize * mem.PageSize)
}

func victimList(vs []mem.Addr) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%#x", uint64(v))
	}
	return strings.Join(parts, ",")
}
