package torture

import (
	"errors"
	"fmt"
	"math/rand"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/recovery"
	"ccnvm/internal/store"
)

// KV cells crash the KV namespace at host-write granularity: the
// facade's ArmCrash strikes the (CrashAt+1)-th write, so enumerating
// CrashAt from 0 up to an uncrashed run's write count (kvSweep) visits
// every write boundary inside every batch — including between a frame's
// payload lines and its commit header. After the full recovery path
// (four-step walk, the shared reboot loop under the reboot axis), the
// recovered namespace is judged against the prefix states of the issued
// batch sequence by the KVOracles. The compaction axis (CompactEvery >
// 0) runs a garbage-collection pass after every CompactEvery-th
// acknowledged batch, so the sweep also lands inside the pass's copy,
// commit and reclaim phases; compact cells swap the seq-based prefix
// check for the compaction oracles.

// KVWorkload is the workload name that makes a cell a KV cell.
const KVWorkload = "kv"

// KVCapacity sizes KV cells' stores: small enough that a full crash
// sweep across every write boundary stays fast.
const KVCapacity = 1 << 20

// kvBatches is the batch count EnumerateCells gives every KV cell; the
// shrinker lowers a failing cell's.
const kvBatches = 5

// kvParams are the engine parameters of every KV cell's store.
var kvParams = engine.Params{UpdateLimit: 16, QueueEntries: 64}

// KV reports whether the cell crashes the KV namespace.
func (c Cell) KV() bool { return c.Workload == KVWorkload }

// KVDesigns lists the registered designs KV cells apply to.
func KVDesigns() []string {
	var out []string
	for _, d := range design.All() {
		if d.Caps.CrashConsistent && !d.Caps.TamperOnCrash {
			out = append(out, d.Name)
		}
	}
	return out
}

// KVOracles lists the invariants KV cells are held to. runKV judges
// them inline, so the entries carry no Check; the list documents them
// beside Oracles (`ccnvm-torture -oracles` prints both).
func KVOracles() []Oracle { return kvOracleList }

var kvOracleList = []Oracle{
	{Name: "kv-clean-recovery", Doc: "An un-attacked KV crash recovers clean — the first pass, the last " +
		"re-entered pass of the reboot loop and the single-shot golden alike — and the recovered " +
		"store reopens with its keymap rebuilt, twice over for compact cells."},
	{Name: "kv-reboot-bounded", Doc: "Under the reboot axis, the uninterrupted final recovery pass commits."},
	{Name: "kv-acked-durable", Doc: "Every acknowledged batch is applied: the recovered log holds at least " +
		"the acknowledged batch count."},
	{Name: "kv-no-ghosts", Doc: "Nothing beyond the issued batches appears: the recovered log holds at most " +
		"the issued batch count, and the keymap has exactly the matched prefix state's keys."},
	{Name: "kv-batch-atomic", Doc: "The namespace equals the state after batch j for some j in " +
		"[acked, issued]: no partial batch is ever visible, compaction or not."},
	{Name: "kv-compact-gen", Doc: "The recovered manifest generation equals the in-memory one at the crash: " +
		"the switch happened iff its single-slot commit was accepted."},
	{Name: "kv-no-ghost-resurrection", Doc: "A key deleted (or never written) in every reachable prefix state " +
		"never reappears through compact + crash + recover."},
	{Name: "kv-compact-lost-acked", Doc: "A key live in every reachable prefix state never disappears " +
		"through compact + crash + recover."},
	{Name: "kv-reclaim-monotonic", Doc: "A second reopen of the recovered store reclaims zero further lines: " +
		"space reclaim converges."},
	{Name: "kv-compact-idempotent", Doc: "Under the reboot axis, the reboot-looped recovery lands on the same " +
		"generation and namespace as a single-shot recovery of a pristine clone."},
}

// genKVBatches derives the cell's deterministic batch sequence: ops
// over a 16-key pool with multi-line values and occasional deletes, so
// frames span several lines and crash points land inside payloads.
func genKVBatches(seed int64, n int) [][]kv.Op {
	rng := rand.New(rand.NewSource(seed*2654435761 + 97))
	batches := make([][]kv.Op, n)
	for i := range batches {
		ops := make([]kv.Op, 1+rng.Intn(4))
		for j := range ops {
			key := []byte(fmt.Sprintf("key-%02d", rng.Intn(16)))
			if rng.Intn(5) == 0 {
				ops[j] = kv.Op{Kind: kv.OpDelete, Key: key}
				continue
			}
			val := make([]byte, rng.Intn(150))
			for b := range val {
				val[b] = byte(rng.Intn(256))
			}
			ops[j] = kv.Op{Kind: kv.OpPut, Key: key, Val: val}
		}
		batches[i] = ops
	}
	return batches
}

// kvApply folds a batch into a model state (nil value = absent).
func kvApply(state map[string][]byte, ops []kv.Op) {
	for _, op := range ops {
		if op.Kind == kv.OpDelete {
			delete(state, string(op.Key))
		} else {
			state[string(op.Key)] = op.Val
		}
	}
}

func kvCloneState(s map[string][]byte) map[string][]byte {
	cp := make(map[string][]byte, len(s))
	for k, v := range s {
		cp[k] = v
	}
	return cp
}

// kvRun is a driven KV cell's evidence: the crash image, the prefix
// states of the batch sequence (states[j] is the namespace after
// batches [0,j)), the acknowledged and issued batch counts, the
// manifest generation when power failed, and the writes the store
// accepted.
type kvRun struct {
	img           *engine.CrashImage
	states        []map[string][]byte
	acked, issued int
	gen           uint64
	writes        int
}

// driveKV drives the cell's batches into a fresh namespace, armed
// through the runner's seam, with power failing at the armed write
// boundary.
func (r *Runner) driveKV(c Cell) (*kvRun, *Failure) {
	st, err := store.Open(store.Options{Design: c.Design, Capacity: KVCapacity, Params: kvParams})
	if err != nil {
		return nil, failf(c, "cell-spec", "%v", err)
	}
	db, err := kv.Open(st, kv.Options{})
	if err != nil {
		return nil, failf(c, "cell-spec", "%v", err)
	}
	if r.Arm != nil {
		r.Arm(c, st, db)
	}
	batches := genKVBatches(c.Seed, c.Batches)
	run := &kvRun{states: make([]map[string][]byte, len(batches)+1)}
	run.states[0] = map[string][]byte{}
	for i, b := range batches {
		run.states[i+1] = kvCloneState(run.states[i])
		kvApply(run.states[i+1], b)
	}

	if c.CrashAt >= 0 {
		st.ArmCrash(c.CrashAt)
	}
	before := st.Engine().Stats().Writebacks
	for i, b := range batches {
		run.issued = i + 1
		oracle, err := "kv-batch-error", db.Batch(b)
		if err == nil {
			run.acked = run.issued
			if c.CompactEvery > 0 && run.acked%c.CompactEvery == 0 {
				oracle, err = "kv-compact-error", db.Compact()
			}
		}
		if errors.Is(err, store.ErrCrashed) {
			break
		}
		if err != nil {
			return nil, failf(c, oracle, "batch %d failed before any crash: %v", i, err)
		}
	}
	run.writes = int(st.Engine().Stats().Writebacks - before)
	run.gen = db.Generation()
	run.img = db.Crash()
	return run, nil
}

// kvSweep expands a KV spec into one cell per host-write boundary:
// crash=0 through crash=W, where W counts the writes an uncrashed probe
// of the spec accepts, so the last cell arms a point that never strikes
// (the uncrashed control). A probe that fails yields the uncrashed cell
// alone, which reports the failure when run.
func kvSweep(spec Cell) []Cell {
	spec.CrashAt = -1
	run, fail := DefaultRunner().driveKV(spec)
	if fail != nil {
		return []Cell{spec}
	}
	cells := make([]Cell, run.writes+1)
	for n := range cells {
		cells[n] = spec
		cells[n].CrashAt = n
	}
	return cells
}

// runKV executes one KV cell end to end: drive the batches, crash,
// recover through the runner's seams (the shared reboot loop under the
// reboot axis), reopen the namespace and judge it.
func (r *Runner) runKV(c Cell) (*Context, *Failure) {
	run, fail := r.driveKV(c)
	if fail != nil {
		return nil, fail
	}
	ctx := &Context{Cell: c, Img: run.img, Runner: r}
	ctx.Rep = r.recoverFn()(ctx.Img)
	if !ctx.Rep.Clean() {
		return ctx, failf(c, "kv-clean-recovery", "un-attacked KV crash flagged: tampered=%d mismatches=%d",
			len(ctx.Rep.Tampered), len(ctx.Rep.TreeMismatches))
	}
	if !r.runRebootLoop(ctx) {
		return ctx, failf(c, "kv-reboot-bounded", "uninterrupted final recovery pass failed to commit")
	}
	if !ctx.Rep.Clean() {
		return ctx, failf(c, "kv-clean-recovery", "re-entered recovery flagged a clean KV image")
	}
	ctx.applyRecovery()
	db, st, err := reopenKV(ctx.Img, *ctx.Recovered)
	if err != nil {
		return ctx, failf(c, "kv-clean-recovery", "%v", err)
	}
	if g := db.Generation(); c.CompactEvery > 0 && g != run.gen {
		return ctx, failf(c, "kv-compact-gen", "recovered manifest generation %d, but the namespace was at %d "+
			"when power failed — the compaction commit tore", g, run.gen)
	}
	keys := allKVKeys(run.states[:run.issued+1])
	got, err := kvContents(db, keys)
	if err != nil {
		return ctx, failf(c, "kv-batch-atomic", "post-recovery %v", err)
	}
	if c.CompactEvery > 0 {
		return ctx, checkKVCompact(ctx, run, db, st, keys, got)
	}

	// Without compaction the recovered frame seq is the batch count.
	j, n := int(db.Stats().Seq), db.Stats().Keys
	switch {
	case j < run.acked:
		return ctx, failf(c, "kv-acked-durable", "recovered %d batches but %d were acknowledged", j, run.acked)
	case j > run.issued:
		return ctx, failf(c, "kv-no-ghosts", "recovered %d batches but only %d were issued", j, run.issued)
	case !kvStateEqual(got, run.states[j]):
		return ctx, failf(c, "kv-batch-atomic", "recovered namespace diverges from prefix state %d — partial batch visible", j)
	case n != len(run.states[j]):
		return ctx, failf(c, "kv-no-ghosts", "recovered keymap has %d keys, prefix state %d has %d", n, j, len(run.states[j]))
	}
	return ctx, nil
}

// reopenKV boots a store from a recovered KV crash image and rebuilds
// its keymap.
func reopenKV(img *engine.CrashImage, rec recovery.Recovered) (*kv.DB, *store.Store, error) {
	st, err := store.OpenRecovered(img, rec, store.Options{Params: kvParams})
	if err != nil {
		return nil, nil, fmt.Errorf("reopen after recovery: %w", err)
	}
	db, err := kv.Open(st, kv.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("keymap rebuild: %w", err)
	}
	return db, st, nil
}

// kvContents reads every key back and returns the live ones.
func kvContents(db *kv.DB, keys map[string]bool) (map[string][]byte, error) {
	got := map[string][]byte{}
	for k := range keys {
		v, ok, err := db.Get([]byte(k))
		if err != nil {
			return nil, fmt.Errorf("get %s: %w", k, err)
		}
		if ok {
			got[k] = v
		}
	}
	return got, nil
}

// checkKVCompact judges a recovered compact cell. The frame seq is not
// the batch count once a pass has renumbered the log, so the oracle
// matches the recovered contents against the reachable prefix states
// directly: the namespace must equal states[j] exactly for some j in
// [acked, issued]. A failed match is classified — a key live after
// recovery but dead in every reachable state is a resurrection; a key
// live in every reachable state but gone is a lost acked write; anything
// else is a visible partial batch. On top of that (runKV has already
// held the manifest generation to the one at the crash), reclaim must
// converge (a second reopen finds nothing more to zero), and under the
// reboot axis the looped recovery must agree with the loop's
// single-shot golden.
func checkKVCompact(ctx *Context, run *kvRun, db *kv.DB, st *store.Store, keys map[string]bool, got map[string][]byte) *Failure {
	c, acked, issued := ctx.Cell, run.acked, run.issued
	match := -1
	for j := acked; j <= issued; j++ {
		if kvStateEqual(got, run.states[j]) {
			match = j
			break
		}
	}
	if match < 0 {
		ghost, lost := "", ""
		for k := range keys {
			_, liveNow := got[k]
			anyPresent, allPresent := false, true
			for j := acked; j <= issued; j++ {
				if _, ok := run.states[j][k]; ok {
					anyPresent = true
				} else {
					allPresent = false
				}
			}
			if liveNow && !anyPresent {
				ghost = k
			}
			if !liveNow && allPresent {
				lost = k
			}
		}
		switch {
		case ghost != "":
			return failf(c, "kv-no-ghost-resurrection", "key %s is live after recovery but dead in every reachable "+
				"prefix state [%d,%d] — compaction resurrected it", ghost, acked, issued)
		case lost != "":
			return failf(c, "kv-compact-lost-acked", "key %s is live in every reachable prefix state [%d,%d] but "+
				"gone after recovery — compaction lost an acknowledged write", lost, acked, issued)
		default:
			return failf(c, "kv-batch-atomic", "recovered namespace matches no prefix state in [%d,%d] — "+
				"partial batch visible through compaction", acked, issued)
		}
	}
	if n, want := db.Stats().Keys, len(run.states[match]); n != want {
		return failf(c, "kv-no-ghosts", "recovered keymap has %d keys, prefix state %d has %d", n, match, want)
	}

	// Space-reclaimed-monotonic: the first reopen is allowed (required)
	// to finish an interrupted pass's reclaim; a second reopen over the
	// same recovered store must find nothing left to zero.
	db2, err := kv.Open(st, kv.Options{})
	if err != nil {
		return failf(c, "kv-clean-recovery", "second keymap rebuild: %v", err)
	}
	if cs := db2.Stats().Compaction; cs != nil && cs.ReclaimedLines != 0 {
		return failf(c, "kv-reclaim-monotonic", "second reopen reclaimed %d more lines — reclaim did not converge", cs.ReclaimedLines)
	}

	// Compaction-idempotent across the reboot loop: the crash image the
	// loop recovered single-shot must land on the same namespace the
	// interrupted-and-resumed passes did.
	if !ctx.rebootRan {
		return nil
	}
	if !ctx.GoldenRep.Clean() {
		return failf(c, "kv-clean-recovery", "single-shot recovery of the golden clone flagged a clean image")
	}
	dbG, _, err := reopenKV(ctx.GoldenImg, *ctx.GoldenRec)
	if err != nil {
		return failf(c, "kv-compact-idempotent", "golden %v", err)
	}
	if dbG.Generation() != db.Generation() {
		return failf(c, "kv-compact-idempotent", "reboot-looped recovery landed on generation %d, single-shot on %d",
			db.Generation(), dbG.Generation())
	}
	gotG, err := kvContents(dbG, keys)
	if err != nil {
		return failf(c, "kv-compact-idempotent", "golden %v", err)
	}
	if !kvStateEqual(gotG, got) {
		return failf(c, "kv-compact-idempotent", "reboot-looped and single-shot recovery hold different namespaces")
	}
	return nil
}

// kvStateEqual compares a recovered contents map against a model prefix
// state: same key set, same values.
func kvStateEqual(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || string(v) != string(w) {
			return false
		}
	}
	return true
}

// allKVKeys unions every key any prefix state mentions.
func allKVKeys(states []map[string][]byte) map[string]bool {
	keys := map[string]bool{}
	for _, s := range states {
		for k := range s {
			keys[k] = true
		}
	}
	return keys
}
