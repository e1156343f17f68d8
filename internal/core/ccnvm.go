package core

import (
	"errors"

	"ccnvm/internal/bmt"
	"ccnvm/internal/design/names"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/memctrl"
	"ccnvm/internal/metacache"
	"ccnvm/internal/nvm"
	"ccnvm/internal/seccrypto"
)

// DrainCause identifies which trigger fired a drain (paper §4.2).
type DrainCause int

// Draining triggers. Settle is the administrative end-of-run flush.
const (
	DrainQueueFull DrainCause = iota
	DrainEvict
	DrainUpdateLimit
	DrainOverflow
	DrainSettle
)

// String implements fmt.Stringer.
func (c DrainCause) String() string {
	switch c {
	case DrainQueueFull:
		return "queue-full"
	case DrainEvict:
		return "meta-evict"
	case DrainUpdateLimit:
		return "update-limit"
	case DrainOverflow:
		return "counter-overflow"
	case DrainSettle:
		return "settle"
	default:
		return "unknown"
	}
}

// CCNVM is the paper's design: security metadata is aggressively cached
// and mutated on chip, while the NVM copy of the Merkle tree only ever
// changes through atomic epoch drains, so it always verifies against
// ROOTold (or, once the end signal is in, ROOTnew). With deferred
// spreading enabled (the full cc-NVM), tree nodes are not recomputed per
// write-back at all; each drain recomputes every affected node exactly
// once, bottom-up. The ablation without deferred spreading (cc-NVM w/o
// DS) recomputes the whole path and ROOTnew on every write-back, like
// the baselines, but still drains in epochs.
type CCNVM struct {
	engine.Base
	deferred bool
	extRegs  bool // §4.4 extension: persistent per-line update registers
	queue    *DirtyAddrQueue

	// stash holds the content of dirty metadata lines displaced from the
	// meta cache since the last drain; they remain part of the epoch's
	// flush set. Every such line is tracked in the queue, so the stash is
	// a slice parallel to the queue's insertion order (stashed[i] says
	// whether stash[i] holds the line at queue position i) and lives and
	// dies with the epoch, like the queue.
	stash   []mem.Line
	stashed []bool
	stashN  int // stashed entries set in the current epoch

	// Per-write-back and per-drain working memory, sized by M once and
	// reused: a drain builds no map and allocates nothing.
	needed  []mem.Addr       // WriteBack's reservation list
	content []mem.Line       // the epoch's line contents, parallel to the queue order
	leaves  []bmt.SpreadNode // the epoch's dirty counter lines
	spread  bmt.SpreadScratch

	epochWritebacks uint64 // write-backs in the current epoch
	epochLenSum     uint64 // closed-epoch lengths, for average reporting

	// drainBusyUntil blocks subsequent evictions while a drain runs:
	// §4.2 "step 1 and 2 for the subsequent evicted data blocks is
	// blocked until the draining is finished", whichever trigger fired.
	drainBusyUntil int64
}

// NewCCNVM builds the full cc-NVM design (deferred spreading on).
func NewCCNVM(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, metaCfg metacache.Config, p engine.Params) *CCNVM {
	return newCCNVM(lay, keys, ctrl, metaCfg, p, true, false)
}

// NewCCNVMWoDS builds the cc-NVM w/o DS ablation (deferred spreading
// off: full path recomputation per write-back).
func NewCCNVMWoDS(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, metaCfg metacache.Config, p engine.Params) *CCNVM {
	return newCCNVM(lay, keys, ctrl, metaCfg, p, false, false)
}

// NewCCNVMExt builds the paper's §4.4 extension: cc-NVM plus persistent
// registers that record each dirty counter line's update count since
// the last committed drain. Recovery can then localize a data-replay
// attack inside the deferred-spreading window to the affected page —
// the one attack plain cc-NVM detects but cannot locate — at the cost
// of up to M extra persistent registers in the TCB. Timing is identical
// to cc-NVM (register updates are on-chip).
func NewCCNVMExt(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, metaCfg metacache.Config, p engine.Params) *CCNVM {
	c := newCCNVM(lay, keys, ctrl, metaCfg, p, true, true)
	c.TCB.ExtDirty = make(map[mem.Addr]uint64)
	return c
}

func newCCNVM(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, metaCfg metacache.Config, p engine.Params, ds, ext bool) *CCNVM {
	c := &CCNVM{deferred: ds, extRegs: ext}
	c.InitBase(lay, keys, ctrl, metaCfg, p)
	// One write-back reserves the counter line plus its whole tree path;
	// a queue smaller than that cannot accept any write-back even right
	// after a drain, so clamp the capacity to the hardware floor.
	entries := c.P.QueueEntries
	if floor := 1 + lay.InternalLevels; entries < floor {
		entries = floor
	}
	c.queue = NewDirtyAddrQueue(entries)
	c.stash = make([]mem.Line, entries)
	c.stashed = make([]bool, entries)
	c.needed = make([]mem.Addr, 0, 1+lay.InternalLevels)
	c.content = make([]mem.Line, 0, entries)
	c.leaves = make([]bmt.SpreadNode, 0, entries)
	// Stashed epoch lines are still on chip: fetches must see them
	// instead of the stale NVM copies.
	c.StashLookup = c.stashLookup
	return c
}

// stashLookup returns the stashed line at a, in place, if the epoch
// displaced it from the meta cache.
func (c *CCNVM) stashLookup(a mem.Addr) *mem.Line {
	if c.stashN == 0 {
		return nil
	}
	if i := c.queue.Index(a); i >= 0 && c.stashed[i] {
		return &c.stash[i]
	}
	return nil
}

// clearEpoch forgets the epoch's tracking state: the queue and, when it
// held anything, the stash.
func (c *CCNVM) clearEpoch() {
	if c.stashN > 0 {
		clear(c.stashed[:c.queue.Len()])
		c.stashN = 0
	}
	c.queue.Clear()
}

// Name implements engine.Engine.
func (c *CCNVM) Name() string {
	switch {
	case c.extRegs:
		return names.CCNVMExt
	case c.deferred:
		return names.CCNVM
	default:
		return names.CCNVMWoDS
	}
}

// Queue exposes the dirty address queue for tests and diagnostics.
func (c *CCNVM) Queue() *DirtyAddrQueue { return c.queue }

// AvgEpochLength reports the mean number of write-backs per closed
// epoch, 0 before the first drain.
func (c *CCNVM) AvgEpochLength() float64 {
	if c.StatsRef().Drains == 0 {
		return 0
	}
	return float64(c.epochLenSum) / float64(c.StatsRef().Drains)
}

// FetchBlock implements engine.Engine: the shared fetch path; a fetch
// that displaces dirty metadata fires draining trigger 2.
func (c *CCNVM) FetchBlock(now int64, addr mem.Addr, f *engine.Fetched) int64 {
	done := c.Base.FetchBlock(now, addr, f)
	c.absorbEvicts()
	if c.stashN > 0 {
		c.drain(now, DrainEvict)
	}
	return done
}

// ReadBlock implements engine.Engine.
func (c *CCNVM) ReadBlock(now int64, addr mem.Addr) (mem.Line, int64) {
	var f engine.Fetched
	done := c.FetchBlock(now, addr, &f)
	return c.Open(&f), done
}

// WriteBack implements engine.Engine: the cc-NVM fast path. The
// write-back waits only for the dirty-address-queue reservation and the
// data HMAC; Merkle work is deferred to the drain (with DS) or performed
// on chip (w/o DS) without blocking the data's entry into the WPQ.
func (c *CCNVM) WriteBack(now int64, addr mem.Addr, pt mem.Line) int64 {
	c.StatsRef().Writebacks++
	slot, accept := c.AcquireWBSlot(now)
	if c.drainBusyUntil > accept {
		accept = c.drainBusyUntil
	}

	// Reserve dirty-address-queue entries for the counter line and every
	// path node (deferred spreading computes them only at drain time).
	// The reservation — and a drain, if the queue cannot take the new
	// entries — is on the eviction's critical path: the paper's §5.1
	// attributes cc-NVM's residual IPC loss to exactly this wait.
	ca := c.Lay.CounterLineOf(addr)
	leaf := c.Lay.CounterLineIndex(ca)
	c.needed = c.Lay.PathFrom(append(c.needed[:0], ca), leaf)
	t := accept + engine.QueueLookupCycles
	if c.queue.Missing(c.needed) > c.queue.Free() {
		t = c.drain(t, DrainQueueFull)
	}
	c.queue.Reserve(c.needed...)
	accept = t

	r := c.BumpCounter(t, addr)
	c.TCB.Nwb++
	c.epochWritebacks++
	if c.extRegs {
		c.TCB.ExtDirty[ca]++
	}

	tready := r.Avail
	if !c.deferred {
		// Without deferred spreading the full path and ROOTnew are
		// recomputed on every write-back; data may enter the WPQ only
		// after the root is updated.
		tready = c.UpdatePathInCache(r.Avail, leaf)
	}
	done := c.WriteDataBlock(t, tready, addr, pt, r.Counter)

	drained := false
	if r.Overflow {
		// The page re-encryption rewrote data under new counters; the
		// counter line must reach NVM atomically with its path now.
		done = c.drain(done, DrainOverflow)
		drained = true
	}
	if !drained && r.UpdateCnt >= c.P.UpdateLimit {
		done = c.drain(done, DrainUpdateLimit)
		drained = true
	}
	c.absorbEvicts()
	if !drained && c.stashN > 0 {
		done = c.drain(done, DrainEvict)
	}
	c.ReleaseWBSlot(slot, done)
	return accept
}

// absorbEvicts moves displaced dirty metadata lines into the epoch
// stash. Every dirty line is tracked in the dirty address queue by
// construction, so stashed content stays part of the drain's flush set.
func (c *CCNVM) absorbEvicts() {
	for _, e := range c.TakePendingEvicts() {
		i := c.queue.Index(e.Addr)
		if i < 0 {
			panic("ccnvm: dirty metadata line was not tracked in the dirty address queue")
		}
		if !c.stashed[i] {
			c.stashed[i] = true
			c.stashN++
		}
		c.stash[i] = e.Line
	}
}

// drain executes the atomic draining protocol (paper §4.2) and, with
// deferred spreading, the once-per-node Merkle recomputation (§4.3).
// It returns the cycle at which the drainer finished issuing — the
// point from which blocked write-backs may resume; the WPQ continues
// flushing in the background under ADR.
func (c *CCNVM) drain(now int64, cause DrainCause) int64 {
	c.Materialize()
	c.absorbEvicts()
	tracked := c.queue.Addrs()
	if len(tracked) == 0 {
		return now
	}
	st := c.StatsRef()
	st.Drains++
	switch cause {
	case DrainQueueFull:
		st.DrainQueueFull++
	case DrainEvict:
		st.DrainEvict++
	case DrainUpdateLimit, DrainOverflow:
		st.DrainUpdateLimit++
	}
	c.epochLenSum += c.epochWritebacks
	c.epochWritebacks = 0

	t := now
	// The epoch's line contents, content[i] for tracked[i].
	content := c.content[:0]
	for _, a := range tracked {
		content = append(content, c.MetaContent(a))
	}
	c.content = content

	if c.deferred {
		// Deferred spreading: recompute each affected tree node exactly
		// once, bottom-up, from the dirty counter lines. Within a level
		// every child hash is independent, so the HMAC unit pipelines
		// them (one issue slot each); levels serialize on each other,
		// which is the residual cascade a drain cannot avoid.
		leaves := c.leaves[:0]
		for i, a := range tracked {
			if c.Lay.RegionOf(a) == mem.RegionCounter {
				leaves = append(leaves, bmt.SpreadNode{Index: c.Lay.CounterLineIndex(a), Line: content[i]})
			}
		}
		c.leaves = leaves
		// The lookup reads only pre-drain state (the content snapshot,
		// caches, NVM): a node is looked up while its level is being
		// built and recomputed nodes are stored only once it is complete.
		counts, top := c.Tree.SpreadDeferred(leaves, &c.spread, func(pa mem.Addr) mem.Line {
			if i := c.queue.Index(pa); i >= 0 {
				return content[i]
			}
			return c.MetaContent(pa)
		}, func(pa mem.Addr, node mem.Line) {
			if i := c.queue.Index(pa); i >= 0 {
				content[i] = node
			}
		})
		for _, n := range counts {
			if n == 0 {
				continue
			}
			st.HMACOps += uint64(n)
			t += engine.HMACCycles + int64(n-1)*engine.HMACIssueCycles
		}
		// Fold the recomputed top level into ROOTnew.
		for i := range top {
			c.Tree.SetParentSlot(&c.TCB.RootNew, int(top[i].Index), top[i].Line)
		}
	}

	// Atomic draining: start signal, epoch-held WPQ entries, end signal.
	// The typed protocol errors are unreachable from a correct drainer
	// (windows never nest, batches are bounded); a violation is a bug in
	// this engine, so it escalates. The one tolerated refusal is spare
	// exhaustion: the controller is in read-only degradation and no new
	// epoch may persist, so the epoch is parked — metadata stays dirty,
	// ROOTold stays at the last committed epoch, and runtime reads keep
	// verifying against the queue and caches. Recovery's retries bridge a
	// parked epoch's minor-counter lag, but not the major step of a
	// counter overflow: the page re-encryption already wrote every block
	// under the new major, so that epoch is owed and never parked (the
	// re-encryption's own reads can be what empties the spare pool).
	begin := c.Ctrl.BeginEpochDrain
	if cause == DrainOverflow {
		begin = c.Ctrl.BeginOwedEpochDrain
	}
	if err := begin(); err != nil {
		var exhausted *nvm.SpareExhaustedError
		if errors.As(err, &exhausted) {
			return t
		}
		panic(err)
	}
	for i, a := range tracked {
		t = max(t, c.Ctrl.Write(t, a, content[i]))
	}
	if _, err := c.Ctrl.EndEpochDrain(t); err != nil {
		panic(err)
	}
	st.DrainLinesFlushed += uint64(len(tracked))

	// Commit: ROOTold now matches the NVM tree; the replay-window
	// counter resets, and so do the extension's per-line registers.
	c.TCB.RootOld = c.TCB.RootNew
	c.TCB.Nwb = 0
	if c.extRegs {
		c.TCB.ExtDirty = make(map[mem.Addr]uint64)
	}

	c.drainBusyUntil = t

	// The epoch's lines are now persistent: clean the survivors, refresh
	// the cache with recomputed nodes, and forget the stash.
	for i, a := range tracked {
		if c.Meta.Contains(a) {
			c.Meta.Fill(a, content[i])
			c.Meta.Clean(a)
		}
	}
	c.clearEpoch()
	// Refreshing resident lines cannot displace anything (Fill of a
	// resident line updates in place), so no evictions arise here.
	if recs := c.TakePendingEvicts(); len(recs) != 0 {
		panic("ccnvm: drain displaced metadata")
	}
	return t
}

// Settle implements engine.Engine: close the epoch.
func (c *CCNVM) Settle(now int64) int64 {
	return c.drain(now, DrainSettle)
}

// Crash implements engine.Engine. Whatever the drainer had not yet
// committed is lost with the caches; the NVM tree remains the last
// committed epoch, consistent with ROOTold.
func (c *CCNVM) Crash() *engine.CrashImage {
	c.ApplyCrashVolatility()
	c.clearEpoch()
	c.epochWritebacks = 0
	return c.MakeCrashImage(c.Name())
}

var _ engine.Engine = (*CCNVM)(nil)
