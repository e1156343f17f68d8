package torture

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
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
// batch sequence by the oracle table's KV rows. The compaction axis
// (CompactEvery > 0) runs a garbage-collection pass after every
// CompactEvery-th acknowledged batch, so the sweep also lands inside the
// pass's copy and commit phases; compacting cells swap the
// seq-based prefix claim for a search and answer to the compaction rows.

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
		if !d.Caps.TamperOnCrash {
			out = append(out, d.Name)
		}
	}
	return out
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

// kvApply returns the model state after a batch (nil value = absent).
func kvApply(state map[string][]byte, ops []kv.Op) map[string][]byte {
	state = maps.Clone(state)
	for _, op := range ops {
		if op.Kind == kv.OpDelete {
			delete(state, string(op.Key))
		} else {
			state[string(op.Key)] = op.Val
		}
	}
	return state
}

// kvRun is a driven KV cell's evidence: the crash image, the prefix
// states of the batch sequence (states[j] is the namespace after
// batches [0,j)), the acknowledged and issued batch counts, the
// manifest generation when power failed, the writes the store
// accepted, and the data-region lines each acknowledged batch wrote,
// in the order the store accepted them.
type kvRun struct {
	img           *engine.CrashImage
	states        []map[string][]byte
	acked, issued int
	gen           uint64
	writes        int
	frames        [][]mem.Addr
}

// driveKV drives the cell's batches into a fresh namespace, armed
// through the runner's seam, with power failing at the armed write
// boundary. It records each batch's data-region writes through the
// store's event tap, which only observes, chained in front of any tap
// the Arm seam installed.
func (r *Runner) driveKV(c Cell) (*kvRun, *Failure) {
	st, err := store.Open(store.Options{Design: c.Design, Capacity: KVCapacity, Params: kvParams})
	if err != nil {
		return nil, failf(c, "cell-spec", "%v", err)
	}
	db, err := kv.Open(st, kv.Options{})
	if err != nil {
		return nil, failf(c, "cell-spec", "%v", err)
	}
	edit := r.arm(c, st)
	batches := genKVBatches(c.Seed, c.Batches)
	run := &kvRun{states: make([]map[string][]byte, len(batches)+1)}
	run.states[0] = map[string][]byte{}
	for i, b := range batches {
		run.states[i+1] = kvApply(run.states[i], b)
	}

	var wrote []mem.Addr
	var armTap func(store.Event)
	lay := st.Layout()
	armTap = st.SetEventTap(func(ev store.Event) {
		if armTap != nil {
			armTap(ev)
		}
		if ev.Kind == store.EvWriteAccept && lay.RegionOf(ev.Addr) == mem.RegionData {
			wrote = append(wrote, ev.Addr)
		}
	})
	run.frames = [][]mem.Addr{}
	if c.CrashAt >= 0 {
		st.ArmCrash(c.CrashAt)
	}
	before := st.Engine().Stats().Writebacks
	for i, b := range batches {
		run.issued = i + 1
		wrote = nil
		err := db.Batch(b)
		if err == nil {
			run.acked = run.issued
			run.frames = append(run.frames, wrote)
			if c.CompactEvery > 0 && run.acked%c.CompactEvery == 0 {
				if err = db.Compact(); err != nil && !errors.Is(err, store.ErrCrashed) {
					return nil, failf(c, "kv-compact-error", "batch %d failed before any crash: %v", i, err)
				}
			}
		}
		if errors.Is(err, store.ErrCrashed) {
			break
		}
		if err != nil {
			return nil, failf(c, "kv-batch-error", "batch %d failed before any crash: %v", i, err)
		}
	}
	run.writes = int(st.Engine().Stats().Writebacks - before)
	run.gen = db.Generation()
	run.img = db.Crash()
	edit(run.img.Image)
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

// runKV is a KV cell's setup: drive the batches, crash, recover through
// the runner's seams (the shared reboot loop under the reboot axis),
// reopen the namespace and gather the evidence the KV rows judge.
func (r *Runner) runKV(c Cell) (*Context, *Failure) {
	run, fail := r.driveKV(c)
	if fail != nil {
		return nil, fail
	}
	ctx := &Context{Cell: c, Img: run.img, Runner: r}
	ctx.Rep = r.Recover(ctx.Img)
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
	db, st, err := r.reopenKV(c, ctx.Img, *ctx.Recovered)
	if err != nil {
		return ctx, failf(c, "kv-clean-recovery", "%v", err)
	}
	e := &kvEvidence{kvRun: run, keys: allKVKeys(run.states[:run.issued+1])}
	e.got = readKV(db, e.keys)
	ctx.kv = e
	// Without compaction the recovered frame seq is the batch count.
	e.prefix = e.got.seq
	if c.CompactEvery == 0 {
		return ctx, nil
	}
	// A pass appends copies with seqs of their own, so a compacting cell
	// claims the first reachable state its contents equal.
	e.prefix = slices.IndexFunc(run.states[run.acked:run.issued+1], func(s map[string][]byte) bool {
		return maps.EqualFunc(e.got.live, s, bytes.Equal)
	})
	if e.prefix >= 0 {
		e.prefix += run.acked
	}
	// A second reopen over the same store must rebuild the same
	// namespace: the first changed nothing the scan reads.
	if db2, err := kv.Open(st, kv.Options{}); err != nil {
		e.reopenErr = err
	} else {
		e.second = readKV(db2, e.keys)
	}
	if ctx.rebootRan && ctx.GoldenRep.Clean() {
		dbG, _, err := r.reopenKV(c, ctx.GoldenImg, *ctx.GoldenRec)
		e.golden = &kvView{err: err}
		if err == nil {
			*e.golden = readKV(dbG, e.keys)
		}
	}
	return ctx, nil
}

// kvEvidence is a reopened KV cell's evidence: the driven run, every key
// its reachable prefix states mention, the recovered namespace and the
// prefix state it claims to be (-1: a compacting cell matching none).
// Compacting cells add the outcome of a second reopen of the same store
// (its error, or the namespace it rebuilt) and, under the reboot axis,
// the namespace the single-shot golden clone reopens to (nil when that
// clone's recovery flagged it).
type kvEvidence struct {
	*kvRun
	keys      []string
	got       kvView
	prefix    int
	reopenErr error
	second    kvView
	golden    *kvView
}

// kvView is one reopened namespace: its manifest generation, frame seq,
// keymap size, log head (as the active half's used bytes) and the live
// value of every key; err is a failed reopen or read-back.
type kvView struct {
	gen        uint64
	seq, nkeys int
	logBytes   uint64
	live       map[string][]byte
	err        error
}

// readKV reads a reopened namespace back, every key included.
func readKV(db *kv.DB, keys []string) kvView {
	s := db.Stats()
	v := kvView{gen: db.Generation(), seq: int(s.Seq), nkeys: s.Keys, logBytes: s.LogBytes, live: map[string][]byte{}}
	for _, k := range keys {
		val, ok, err := db.Get([]byte(k))
		if err != nil {
			v.err = fmt.Errorf("get %s: %w", k, err)
			break
		}
		if ok {
			v.live[k] = val
		}
	}
	return v
}

// strays classifies a compacting cell's failed match: ghost is a key
// live after recovery but dead in every reachable prefix state, lost a
// key live in every reachable state but gone after recovery.
func (e *kvEvidence) strays() (ghost, lost string) {
	for _, k := range e.keys {
		_, liveNow := e.got.live[k]
		inAny, inAll := false, true
		for _, s := range e.states[e.acked : e.issued+1] {
			_, ok := s[k]
			inAny, inAll = inAny || ok, inAll && ok
		}
		if liveNow && !inAny && ghost == "" {
			ghost = k
		}
		if !liveNow && inAll && lost == "" {
			lost = k
		}
	}
	return ghost, lost
}

func checkKVCompactGen(c *Context) string {
	if e := c.kv; e.got.gen != e.gen {
		return fmt.Sprintf("recovered manifest generation %d, but the namespace was at %d "+
			"when power failed — the compaction commit tore", e.got.gen, e.gen)
	}
	return ""
}

// checkKVBatchAtomic holds the namespace to the prefix state it claims.
// A claim outside [acked, issued] belongs to kv-acked-durable or
// kv-no-ghosts, and a compacting cell that matches no reachable state
// is a resurrection or a lost write before it is a partial batch.
func checkKVBatchAtomic(c *Context) string {
	e := c.kv
	switch j := e.prefix; {
	case e.got.err != nil:
		return "post-recovery " + e.got.err.Error()
	case j < 0:
		if ghost, lost := e.strays(); ghost == "" && lost == "" {
			return fmt.Sprintf("recovered namespace matches no prefix state in [%d,%d] — "+
				"partial batch visible through compaction", e.acked, e.issued)
		}
	case j >= e.acked && j <= e.issued && !maps.EqualFunc(e.got.live, e.states[j], bytes.Equal):
		return fmt.Sprintf("recovered namespace diverges from prefix state %d — partial batch visible", j)
	}
	return ""
}

func checkKVAckedDurable(c *Context) string {
	if e := c.kv; e.prefix < e.acked {
		return fmt.Sprintf("recovered %d batches but %d were acknowledged", e.prefix, e.acked)
	}
	return ""
}

func checkKVNoGhostResurrection(c *Context) string {
	if ghost, _ := c.kv.strays(); ghost != "" {
		return fmt.Sprintf("key %s is live after recovery but dead in every reachable prefix state [%d,%d] — "+
			"compaction resurrected it", ghost, c.kv.acked, c.kv.issued)
	}
	return ""
}

func checkKVCompactLostAcked(c *Context) string {
	if _, lost := c.kv.strays(); lost != "" {
		return fmt.Sprintf("key %s is live in every reachable prefix state [%d,%d] but gone after recovery — "+
			"compaction lost an acknowledged write", lost, c.kv.acked, c.kv.issued)
	}
	return ""
}

// checkKVHeaderLast holds every acknowledged batch to the frame's
// commit order: its last accepted write is its lowest-address line, the
// header, so a crash inside the frame leaves the header unwritten.
func checkKVHeaderLast(c *Context) string {
	for i, ws := range c.kv.frames {
		if len(ws) == 0 || slices.Min(ws) != ws[len(ws)-1] {
			return fmt.Sprintf("acknowledged batch %d wrote data lines %#x: its header, the lowest, was not written last", i, ws)
		}
	}
	return ""
}

func checkKVNoGhosts(c *Context) string {
	e := c.kv
	switch j := e.prefix; {
	case j > e.issued:
		return fmt.Sprintf("recovered %d batches but only %d were issued", j, e.issued)
	case j >= 0 && e.got.nkeys != len(e.states[j]):
		return fmt.Sprintf("recovered keymap has %d keys, prefix state %d has %d", e.got.nkeys, j, len(e.states[j]))
	}
	return ""
}

// checkKVReopenIdempotent holds a second reopen of the recovered store
// to the first: the same keymap, frame seq and log head. A failed second
// reopen belongs to kv-clean-recovery.
func checkKVReopenIdempotent(c *Context) string {
	got, second := c.kv.got, c.kv.second
	switch {
	case c.kv.reopenErr != nil || got.err != nil:
	case second.err != nil:
		return "second reopen " + second.err.Error()
	case second.seq != got.seq || second.logBytes != got.logBytes:
		return fmt.Sprintf("second reopen rebuilt seq %d with %d log bytes, the first seq %d with %d",
			second.seq, second.logBytes, got.seq, got.logBytes)
	case second.nkeys != got.nkeys || !maps.EqualFunc(second.live, got.live, bytes.Equal):
		return "second reopen rebuilt a different keymap than the first"
	}
	return ""
}

// checkKVCleanRecovery judges the reopens setup leaves to it: the
// second keymap rebuild and the golden clone's recovery.
func checkKVCleanRecovery(c *Context) string {
	if err := c.kv.reopenErr; err != nil {
		return "second keymap rebuild: " + err.Error()
	}
	if c.rebootRan && !c.GoldenRep.Clean() {
		return "single-shot recovery of the golden clone flagged a clean image"
	}
	return ""
}

func checkKVCompactIdempotent(c *Context) string {
	got, g := c.kv.got, c.kv.golden
	switch {
	case g == nil:
		return ""
	case g.err != nil:
		return "golden " + g.err.Error()
	case g.gen != got.gen:
		return fmt.Sprintf("reboot-looped recovery landed on generation %d, single-shot on %d", got.gen, g.gen)
	case !maps.EqualFunc(g.live, got.live, bytes.Equal):
		return "reboot-looped and single-shot recovery hold different namespaces"
	}
	return ""
}

// reopenKV boots a store from a recovered KV crash image, runs the
// Reopen seam on it, and rebuilds its keymap.
func (r *Runner) reopenKV(c Cell, img *engine.CrashImage, rec recovery.Recovered) (*kv.DB, *store.Store, error) {
	st, err := store.OpenRecovered(img, rec, store.Options{Params: kvParams})
	if err != nil {
		return nil, nil, fmt.Errorf("reopen after recovery: %w", err)
	}
	if r.Reopen != nil {
		if err := r.Reopen(c, st); err != nil {
			return nil, nil, fmt.Errorf("reopen edit: %w", err)
		}
	}
	db, err := kv.Open(st, kv.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("keymap rebuild: %w", err)
	}
	return db, st, nil
}

// allKVKeys lists every key any prefix state mentions, sorted.
func allKVKeys(states []map[string][]byte) []string {
	var keys []string
	for _, s := range states {
		for k := range s {
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	return keys
}
