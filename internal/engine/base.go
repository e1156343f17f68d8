package engine

import (
	"slices"

	"ccnvm/internal/bmt"
	"ccnvm/internal/cache"
	"ccnvm/internal/mem"
	"ccnvm/internal/memctrl"
	"ccnvm/internal/metacache"
	"ccnvm/internal/nvm"
	"ccnvm/internal/seccrypto"
)

// EvictRec describes a dirty metadata line displaced from the meta
// cache, handed to the owning design's eviction policy.
type EvictRec struct {
	Addr mem.Addr
	Line mem.Line
}

// Base bundles the state and machinery shared by every consistency
// design: layout, crypto, tree logic, memory controller, metadata cache,
// the serialized HMAC unit and AES unit, the writeback victim buffer and
// the TCB registers. Designs embed Base and differ in their WriteBack,
// eviction and drain policies.
type Base struct {
	Lay  *mem.Layout
	Cry  *seccrypto.Engine
	Tree *bmt.Tree
	Ctrl *memctrl.Controller
	Meta *metacache.Cache
	P    Params
	// TCB holds the registers as the design last wrote them; from
	// outside a design read them through Registers, which first hashes
	// the recorded paths into ROOTnew.
	TCB  TCB
	Keys seccrypto.Keys

	// VerifyFetchedMeta controls whether counter/tree lines fetched from
	// NVM are verified against their ancestor chain. Every design except
	// Osiris Plus (whose in-NVM tree is not maintained) keeps it on.
	VerifyFetchedMeta bool

	// counterFn obtains the counter line for the read/write paths. It
	// defaults to Base.CounterLine; Osiris Plus overrides it with its
	// online-recovery source.
	counterFn func(now int64, ca mem.Addr) (seccrypto.CounterLine, int64)

	hmacFree int64 // serialized HMAC unit: next-free cycle
	aesFree  int64 // AES pad-generation unit: next-free cycle
	wbSlots  []int64

	pendingEvicts []EvictRec
	// pendingIdx maps an address to the newest pending-evict record
	// holding it, so victim forwarding and in-place victim updates stay
	// O(1) when the queue grows long. nil means stale: it is rebuilt
	// lazily on the next lookup and invalidated by bulk mutations
	// (TakePendingEvicts, RequeueEvicts).
	pendingIdx map[mem.Addr]int

	// chain is FetchChain's reused working memory.
	chain []chainLink

	// OnViolation, when set, observes runtime integrity failures with a
	// short site tag; tests use it to pinpoint verification bugs.
	OnViolation func(site string, a mem.Addr, level int)

	// StashLookup, when set, lets the owning design expose additional
	// on-chip metadata buffers (cc-NVM's epoch stash) to the
	// victim-forwarding path, so a fetch never reads a stale NVM copy of
	// a line that is still in flight on chip. It returns the stashed
	// line in place, or nil: the lazy path hashing stores through it.
	StashLookup func(a mem.Addr) *mem.Line

	lazy lazyPaths

	stats SecStats
}

// lazyPaths is the write-back walks' deferred hashing (DESIGN.md, "Hash
// on observation"). A walk records its leaf; Materialize hashes every
// recorded path once, through the design's content and store hooks.
type lazyPaths struct {
	leaves  []uint64 // counter-line indices walked since the last step; may repeat
	nodes   []bmt.SpreadNode
	scratch bmt.SpreadScratch
	// content returns the newest content of a counter line or tree
	// node; store keeps a recomputed tree node wherever the chip holds
	// it.
	content func(a mem.Addr) mem.Line
	store   func(a mem.Addr, l mem.Line)
	// oneRoot makes ROOTold follow ROOTnew at every step: the designs
	// without epochs keep a single root.
	oneRoot bool
}

// maxLazyLeaves bounds the recorded leaves between two steps; a design
// whose tree nothing reads (Osiris Plus, Arsenal) hashes when it fills.
const maxLazyLeaves = 4096

// InitBase wires the shared components. Designs call it from their
// constructors; the metadata cache is created here so that its eviction
// hook lands in the shared pending-eviction queue.
func (b *Base) InitBase(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, metaCfg metacache.Config, p Params) {
	p.Fill()
	b.Lay = lay
	b.Keys = keys
	b.Cry = seccrypto.MustEngine(keys)
	b.Tree = bmt.New(lay, b.Cry)
	b.Ctrl = ctrl
	b.P = p
	b.VerifyFetchedMeta = true
	b.wbSlots = make([]int64, WritebackBuffer)
	b.Meta = metacache.New(metaCfg, func(a mem.Addr, l mem.Line, dirty bool) {
		if dirty {
			b.pendingEvicts = append(b.pendingEvicts, EvictRec{Addr: a, Line: l})
			if b.pendingIdx != nil {
				b.pendingIdx[a] = len(b.pendingEvicts) - 1
			}
		}
	})
	// An empty NVM implies the default tree; both root registers start
	// at the default root node so verification works from cycle zero.
	b.TCB.RootNew = b.Tree.RootNode(emptyReader{})
	b.TCB.RootOld = b.TCB.RootNew
	b.counterFn = b.CounterLine
	b.lazy.content, b.lazy.store = b.MetaContent, b.storeNode
}

// SetCounterSource replaces the counter-line source used by the shared
// read and write paths.
func (b *Base) SetCounterSource(fn func(now int64, ca mem.Addr) (seccrypto.CounterLine, int64)) {
	b.counterFn = fn
}

type emptyReader struct{}

func (emptyReader) Read(mem.Addr) (mem.Line, bool) { return mem.Line{}, false }

// TakePendingEvicts returns and clears the dirty metadata evictions
// accumulated by meta-cache fills since the last call. Designs consume
// them at well-defined points (never inside a Fill) to avoid cache
// reentrancy.
func (b *Base) TakePendingEvicts() []EvictRec {
	e := b.pendingEvicts
	b.pendingEvicts = nil
	b.pendingIdx = nil
	return e
}

// RequeueEvicts puts unprocessed eviction records back at the head of
// the pending queue; designs that persist victims one at a time use it.
func (b *Base) RequeueEvicts(recs []EvictRec) {
	b.pendingEvicts = append(recs, b.pendingEvicts...)
	b.pendingIdx = nil // indices shifted; rebuild on next lookup
}

// findPendingEvict returns the index of the newest pending record at a,
// or -1. It maintains the address index lazily: a full scan happens at
// most once per bulk queue mutation, keeping lookups O(1) amortized
// instead of O(queue length) each.
func (b *Base) findPendingEvict(a mem.Addr) int {
	if len(b.pendingEvicts) == 0 {
		return -1
	}
	if b.pendingIdx == nil {
		b.pendingIdx = make(map[mem.Addr]int, len(b.pendingEvicts))
		for i := range b.pendingEvicts {
			b.pendingIdx[b.pendingEvicts[i].Addr] = i
		}
	}
	if i, ok := b.pendingIdx[a]; ok {
		return i
	}
	return -1
}

// UpdatePendingEvict applies mutate to the pending victim at a, if one
// exists, returning its updated content. It lets eviction policies fold
// child HMACs into parents that are themselves awaiting persistence.
func (b *Base) UpdatePendingEvict(a mem.Addr, mutate func(*mem.Line)) (mem.Line, bool) {
	if i := b.findPendingEvict(a); i >= 0 {
		mutate(&b.pendingEvicts[i].Line)
		return b.pendingEvicts[i].Line, true
	}
	return mem.Line{}, false
}

// StatsRef exposes the mutable statistics to designs in this module.
func (b *Base) StatsRef() *SecStats { return &b.stats }

// Stats returns a copy of the accumulated statistics.
func (b *Base) Stats() SecStats { return b.stats }

// MetaStats returns the metadata cache's hit/miss counters.
func (b *Base) MetaStats() cache.Stats { return b.Meta.Stats() }

// HMACOp schedules a chain of n dependent HMAC computations and
// returns the completion cycle. The unit is modelled as fully
// pipelined: independent chains overlap freely, but within a chain each
// HMAC waits for its predecessor, so a Merkle path update still pays
// the full n x 80-cycle latency — the serialization the paper's §2.3
// calls out. Cross-operation issue contention is neglected (measured
// unit utilization stays in the low single digits for every workload).
func (b *Base) HMACOp(now int64, n int) int64 {
	if n <= 0 {
		return now
	}
	b.stats.HMACOps += uint64(n)
	return now + int64(n)*HMACCycles
}

// AESOp schedules one pad generation on the AES unit; like the HMAC
// unit it is fully pipelined, so only latency is charged.
func (b *Base) AESOp(now int64) int64 {
	b.stats.AESOps++
	return now + AESCycles
}

// AcquireWBSlot obtains a writeback-buffer slot, blocking (in simulated
// time) while the buffer is full. It returns the slot index and the
// acceptance cycle; the caller releases the slot by setting its busy
// horizon with ReleaseWBSlot once background processing completes.
func (b *Base) AcquireWBSlot(now int64) (int, int64) {
	best, bestT := 0, b.wbSlots[0]
	for i, t := range b.wbSlots {
		if t < bestT {
			best, bestT = i, t
		}
	}
	if bestT > now {
		b.stats.WritebackBufferStalls++
		b.stats.WritebackStallCycles += bestT - now
		now = bestT
	}
	return best, now
}

// ReleaseWBSlot marks slot busy until done.
func (b *Base) ReleaseWBSlot(slot int, done int64) { b.wbSlots[slot] = done }

// defaultHMAC is the data HMAC a never-written block at da holds: the
// HMAC of a zero ciphertext under counter 0. It is the one definition
// of "never written" the read path, the write path, page re-encryption
// and recovery share.
func defaultHMAC(cry *seccrypto.Engine, da mem.Addr) seccrypto.HMAC {
	return cry.DataHMAC(da, 0, mem.Line{})
}

// DefaultHMACLine synthesizes the content of the never-written
// data-HMAC line ha: every slot holds its block's defaultHMAC.
func DefaultHMACLine(cry *seccrypto.Engine, lay *mem.Layout, ha mem.Addr) mem.Line {
	return defaultHMACNeighbours(cry, lay, ha, -1)
}

// defaultHMACNeighbours is DefaultHMACLine with slot skip left zero: a
// write onto a never-written HMAC line patches skip itself, so only the
// neighbours' defaults are worth computing.
func defaultHMACNeighbours(cry *seccrypto.Engine, lay *mem.Layout, ha mem.Addr, skip int) mem.Line {
	var l mem.Line
	first := uint64(ha-lay.HMACBase) / mem.LineSize * mem.HMACsPerLine
	for s := 0; s < mem.HMACsPerLine; s++ {
		if s != skip {
			seccrypto.PutHMAC(&l, s, defaultHMAC(cry, mem.Addr((first+uint64(s))*mem.LineSize)))
		}
	}
	return l
}

// offCache returns, in place, metadata content that has left the
// metadata cache but is still on chip: a displaced victim awaiting its
// design's eviction policy, or a line in the design's stash; nil when
// there is none. Such content is trusted (it never left the TCB) and
// must shadow the NVM copy.
func (b *Base) offCache(a mem.Addr) *mem.Line {
	if i := b.findPendingEvict(a); i >= 0 {
		return &b.pendingEvicts[i].Line
	}
	if b.StashLookup != nil {
		return b.StashLookup(a)
	}
	return nil
}

// OnChip returns the content the chip holds for metadata line a: the
// metadata cache's copy, else a displaced victim or a stashed line. ok
// is false when only NVM holds a.
func (b *Base) OnChip(a mem.Addr) (mem.Line, bool) {
	if l, ok := b.Meta.Peek(a); ok {
		return l, true
	}
	if p := b.offCache(a); p != nil {
		return *p, true
	}
	return mem.Line{}, false
}

// MetaContent returns the newest content of metadata line a (a counter
// line or tree node): the chip's copy, else NVM's, else the level
// default of a never-written line.
func (b *Base) MetaContent(a mem.Addr) mem.Line {
	if l, ok := b.OnChip(a); ok {
		return l
	}
	if l, ok := b.Ctrl.Device().Peek(a); ok {
		return l
	}
	if b.Lay.RegionOf(a) == mem.RegionTree {
		level, _ := b.Lay.NodeAt(a)
		return b.Tree.DefaultNode(level)
	}
	return b.Tree.DefaultNode(0)
}

// metaNodeAddr returns the NVM address of tree position (level, idx),
// where level 0 is the counter level.
func (b *Base) metaNodeAddr(level int, idx uint64) mem.Addr {
	if level == 0 {
		return b.Lay.CounterLineAddr(idx)
	}
	return b.Lay.NodeAddr(level, idx)
}

// slotInParent returns the slot the node at (level, idx) occupies in its
// parent (the TCB root node for top-level nodes).
func (b *Base) slotInParent(level int, idx uint64) int {
	if level == b.Lay.TopLevel() {
		return int(idx)
	}
	_, _, s := b.Lay.ParentOf(level, idx)
	return s
}

// chainLink is one node of a FetchChain walk: a missed node on the way
// up to the first trusted ancestor.
type chainLink struct {
	level int
	idx   uint64
	addr  mem.Addr
	line  mem.Line
}

// FetchChain brings the metadata node at (level, idx) into the meta
// cache: it reads the node and every uncached ancestor from NVM in
// parallel, verifies the chain top-down against the first trusted
// on-chip ancestor (a cached node, or the ROOTold register), fills the
// nodes clean, and returns the node's content and availability cycle.
// A verification failure counts as a runtime integrity violation.
//
// The caller must already have missed in the meta cache for (level,
// idx); the meta-cache access cost is charged here.
func (b *Base) FetchChain(now int64, level int, idx uint64) (mem.Line, int64) {
	// Anchors are read and victims displaced below: hash the recorded
	// paths first.
	b.Materialize()
	// Victim forwarding: content still on chip shadows NVM and needs no
	// verification.
	reqAddr := b.metaNodeAddr(level, idx)
	if p := b.offCache(reqAddr); p != nil {
		ln := *p
		b.Meta.Fill(reqAddr, ln)
		return ln, now + MetaCycles
	}
	chain := append(b.chain[:0], chainLink{level, idx, reqAddr, mem.Line{}})
	var anchor *mem.Line
	l, i := level, idx
	for l < b.Lay.TopLevel() {
		pl, pi, _ := b.Lay.ParentOf(l, i)
		pa := b.Lay.NodeAddr(pl, pi)
		if b.Meta.Contains(pa) {
			break
		}
		if p := b.offCache(pa); p != nil {
			// An in-flight victim is as trusted as a cached line and
			// terminates the walk.
			ln := *p
			anchor = &ln
			break
		}
		chain = append(chain, chainLink{pl, pi, pa, mem.Line{}})
		l, i = pl, pi
	}
	b.chain = chain
	// Parallel NVM reads after the meta-cache miss is known.
	issue := now + MetaCycles
	maxT := issue
	for k := range chain {
		ln, ok, t := b.Ctrl.ReadBypass(issue, chain[k].addr)
		if !ok {
			ln = b.Tree.DefaultNode(chain[k].level)
		}
		chain[k].line = ln
		if t > maxT {
			maxT = t
		}
	}
	done := b.HMACOp(maxT, len(chain))
	if b.VerifyFetchedMeta {
		// Trusted anchor: the forwarded victim, the cached parent of the
		// chain's top, or ROOTold.
		top := chain[len(chain)-1]
		var parent mem.Line
		switch {
		case anchor != nil:
			parent = *anchor
		case top.level == b.Lay.TopLevel():
			parent = b.TCB.RootOld
		default:
			pl, pi, _ := b.Lay.ParentOf(top.level, top.idx)
			pc, ok := b.Meta.Peek(b.Lay.NodeAddr(pl, pi))
			if !ok {
				panic("engine: chain anchor vanished from meta cache")
			}
			parent = pc
		}
		for k := len(chain) - 1; k >= 0; k-- {
			if !b.Tree.VerifyChild(parent, b.slotInParent(chain[k].level, chain[k].idx), chain[k].line) {
				b.stats.IntegrityViolations++
				if b.OnViolation != nil {
					b.OnViolation("chain", chain[k].addr, chain[k].level)
				}
			}
			parent = chain[k].line
		}
	}
	// Install top-down so the requested node ends most recently used.
	for k := len(chain) - 1; k >= 0; k-- {
		b.Meta.Fill(chain[k].addr, chain[k].line)
	}
	return chain[0].line, done
}

// CounterLine returns the decoded counter line at ca and the cycle it
// becomes available, going through the meta cache and fetching (with
// verification) on a miss.
func (b *Base) CounterLine(now int64, ca mem.Addr) (seccrypto.CounterLine, int64) {
	if l, ok := b.Meta.Read(ca); ok {
		return seccrypto.DecodeCounterLine(l), now + MetaCycles
	}
	l, t := b.FetchChain(now, 0, b.Lay.CounterLineIndex(ca))
	return seccrypto.DecodeCounterLine(l), t
}

// FetchBlock is the shared fetch half of the read path: read the
// ciphertext and the data-HMAC line from NVM, obtain the counter, and
// charge the pad generation overlapped with the data read plus the
// authenticating HMAC. A never-written HMAC line is only flagged: Open
// knows its slot by definition. Designs call it from their own
// FetchBlock, which adds the design's read-side hooks.
func (b *Base) FetchBlock(now int64, addr mem.Addr, f *Fetched) int64 {
	addr = mem.Align(addr)
	b.stats.Reads++
	ct, _, tData := b.Ctrl.Read(now, addr)
	ha, hslot := b.Lay.HMACLineOf(addr)
	hline, present, tH := b.Ctrl.Read(now, ha)
	cl, tCtr := b.counterFn(now, b.Lay.CounterLineOf(addr))
	f.Addr, f.Line, f.Packed = addr, ct, false
	f.Ctr, f.MAC, f.NoMACLine = cl.Counter(b.Lay.CounterSlotOf(addr)), seccrypto.GetHMAC(hline, hslot), !present
	tOTP := b.AESOp(tCtr)
	tVer := b.HMACOp(max(max(tData, tCtr), tH), 1)
	return max(max(tData, tOTP), tVer)
}

// Open finishes a read with the engine's own crypto engine: every
// design's ReadBlock is its FetchBlock followed by Open.
func (b *Base) Open(f *Fetched) mem.Line {
	pt, ok := f.Open(b.Cry)
	if !ok {
		b.Violation(f.Addr)
	}
	return pt
}

// Violation counts a failed data authentication at a.
func (b *Base) Violation(a mem.Addr) {
	b.stats.IntegrityViolations++
	if b.OnViolation != nil {
		b.OnViolation("data-hmac", a, -1)
	}
}

// WriteDataBlock encrypts pt under ctr, computes its data HMAC and
// issues the two NVM writes (data line and read-modify-written HMAC
// line). ctrAvail is when the counter became available; the returned
// cycle is when both writes were accepted by the WPQ. The read-modify-
// write runs at a future timestamp, so it bypasses bank reservation.
func (b *Base) WriteDataBlock(now, ctrAvail int64, addr mem.Addr, pt mem.Line, ctr uint64) int64 {
	addr = mem.Align(addr)
	ct := b.Cry.Encrypt(addr, ctr, pt)
	tEnc := b.AESOp(ctrAvail)
	ha, hslot := b.Lay.HMACLineOf(addr)
	hline, present, tH := b.Ctrl.ReadBypass(now, ha)
	if !present {
		hline = defaultHMACNeighbours(b.Cry, b.Lay, ha, hslot)
	}
	seccrypto.PutHMAC(&hline, hslot, b.Cry.DataHMAC(addr, ctr, ct))
	tMac := b.HMACOp(max(tEnc, tH), 1)
	t1 := b.Ctrl.Write(tMac, addr, ct)
	t2 := b.Ctrl.Write(tMac, ha, hline)
	return max(t1, t2)
}

// BumpResult reports a counter bump.
type BumpResult struct {
	Line      seccrypto.CounterLine // post-bump content
	Slot      int
	Counter   uint64 // post-bump effective counter for the slot
	Avail     int64  // cycle the bumped counter is available
	Overflow  bool   // minor overflow occurred (page re-encrypted)
	UpdateCnt uint64 // updates since the line became dirty
}

// BumpCounter advances the counter of data block addr in the meta
// cache, handling minor-counter overflow by re-encrypting the page.
// The caller persists the line according to its own policy.
func (b *Base) BumpCounter(now int64, addr mem.Addr) BumpResult {
	ca := b.Lay.CounterLineOf(addr)
	cl, avail := b.counterFn(now, ca)
	slot := b.Lay.CounterSlotOf(addr)
	old := cl
	overflow := cl.Bump(slot)
	if overflow {
		b.stats.CounterOverflows++
		avail = b.ReencryptPage(avail, addr, old, cl)
	}
	cnt := b.Meta.Update(ca, cl.Encode())
	return BumpResult{Line: cl, Slot: slot, Counter: cl.Counter(slot), Avail: avail, Overflow: overflow, UpdateCnt: cnt}
}

// ReencryptPage rewrites every block of the 4 KB page containing addr
// under the new (post-overflow) counters: old ciphertexts are decrypted
// with the old counters and re-encrypted with the new ones, and all data
// HMACs are refreshed. Writes are durable immediately. It returns the
// cycle the re-encryption finished issuing.
func (b *Base) ReencryptPage(now int64, addr mem.Addr, old, new seccrypto.CounterLine) int64 {
	pageBase := mem.Addr(uint64(addr) / mem.PageSize * mem.PageSize)
	// Gather and rewrite the page's HMAC lines once each. They are
	// contiguous, so they are held by position and written back in
	// ascending address order: the controller's event order and, under a
	// fault model, the in-flight sequence numbers follow it.
	const pageHMACLines = mem.BlocksPerPage / mem.HMACsPerLine
	var hmacLines [pageHMACLines]mem.Line
	var gathered [pageHMACLines]bool
	firstHA, _ := b.Lay.HMACLineOf(pageBase)
	t := now
	for s := 0; s < mem.BlocksPerPage; s++ {
		da := pageBase + mem.Addr(s*mem.LineSize)
		ct, _, tr := b.Ctrl.ReadBypass(t, da)
		pt := b.Cry.Decrypt(da, old.Counter(s), ct)
		nct := b.Cry.Encrypt(da, new.Counter(s), pt)
		ha, hslot := b.Lay.HMACLineOf(da)
		k := int(ha-firstHA) / mem.LineSize
		if !gathered[k] {
			// The read is modelled traffic only: every slot of the line
			// is overwritten below, so an absent line (read as zero)
			// needs no defaults.
			hmacLines[k], _, _ = b.Ctrl.ReadBypass(t, ha)
			gathered[k] = true
		}
		seccrypto.PutHMAC(&hmacLines[k], hslot, b.Cry.DataHMAC(da, new.Counter(s), nct))
		tw := b.Ctrl.Write(tr, da, nct)
		if tw > t {
			t = tw
		}
	}
	// Two pad generations (decrypt + encrypt) per block on the AES unit
	// and one HMAC per block; the pads pipeline but the page rewrite is
	// one serial pass, so charge the AES latency once plus the HMACs.
	b.stats.AESOps += uint64(2 * mem.BlocksPerPage)
	t += AESCycles
	t = b.HMACOp(t, mem.BlocksPerPage)
	for k := range hmacLines {
		tw := b.Ctrl.Write(t, firstHA+mem.Addr(k*mem.LineSize), hmacLines[k])
		if tw > t {
			t = tw
		}
	}
	return t
}

// UpdatePathInCache is the cascading per-write-back path update that
// SC and cc-NVM w/o DS pay on every eviction (cc-NVM with deferred
// spreading skips it and recomputes paths once per drain). The walk
// charges what the hardware does — a fetch of every uncached ancestor,
// one HMAC per level and for the root, an update of each node (dirty
// bit, LRU, update count) — and records the leaf; the hashing itself
// happens in Materialize, before anything reads a node or a root. It
// returns the completion cycle.
func (b *Base) UpdatePathInCache(now int64, leafIdx uint64) int64 {
	if !b.Meta.Contains(b.Lay.CounterLineAddr(leafIdx)) {
		panic("engine: path update requires the counter line to be resident")
	}
	level, idx := 0, leafIdx
	t := now
	for level < b.Lay.TopLevel() {
		pl, pi, _ := b.Lay.ParentOf(level, idx)
		pa := b.Lay.NodeAddr(pl, pi)
		// The node's update without its content, which Materialize
		// supplies.
		if !b.Meta.Touch(pa) {
			_, t = b.FetchChain(t, pl, pi)
			b.Meta.Touch(pa)
		}
		t = b.HMACOp(t, 1)
		level, idx = pl, pi
	}
	t = b.HMACOp(t, 1) // ROOTnew
	b.recordLeaf(leafIdx)
	return t
}

// recordLeaf adds a walked leaf to the next Materialize step.
func (b *Base) recordLeaf(leafIdx uint64) {
	l := &b.lazy
	if n := len(l.leaves); n > 0 && l.leaves[n-1] == leafIdx {
		return
	}
	l.leaves = append(l.leaves, leafIdx)
	if len(l.leaves) >= maxLazyLeaves {
		b.Materialize()
	}
}

// Materialize hashes the Merkle paths of every leaf walked since the
// last step, each affected node once (bmt.Tree.SpreadDeferred), and
// folds the top level into ROOTnew. Every node and root it writes is
// what the walks would have computed one by one: a node holds the
// hashes of its children's newest content, and between a walk and the
// step only another recorded walk changes that content. It moves no
// cycle, statistic, LRU position or dirty bit.
func (b *Base) Materialize() {
	l := &b.lazy
	if len(l.leaves) == 0 {
		return
	}
	slices.Sort(l.leaves)
	nodes := l.nodes[:0]
	for _, idx := range slices.Compact(l.leaves) {
		nodes = append(nodes, bmt.SpreadNode{Index: idx, Line: l.content(b.Lay.CounterLineAddr(idx))})
	}
	l.leaves, l.nodes = l.leaves[:0], nodes
	_, top := b.Tree.SpreadDeferred(nodes, &l.scratch, l.content, l.store)
	for i := range top {
		b.Tree.SetParentSlot(&b.TCB.RootNew, int(top[i].Index), top[i].Line)
	}
	if l.oneRoot {
		b.TCB.RootOld = b.TCB.RootNew
	}
}

// storeNode keeps a recomputed tree node where the chip holds it. Every
// node on a recorded path is on chip until the step: the walk left it in
// the metadata cache, and only a fill can displace it, into the victim
// queue or the design's stash.
func (b *Base) storeNode(a mem.Addr, l mem.Line) {
	if b.Meta.Overwrite(a, l) {
		return
	}
	if p := b.offCache(a); p != nil {
		*p = l
		return
	}
	panic("engine: a node of a recorded path left the chip before it was hashed")
}

// Registers returns the TCB registers with every recorded path hashed:
// the one way to read the roots from outside a design.
func (b *Base) Registers() TCB {
	b.Materialize()
	return b.TCB
}

// ApplyCrashVolatility models the on-chip losses common to all designs:
// the metadata cache and in-flight writeback buffer vanish, and the
// memory controller applies ADR semantics.
func (b *Base) ApplyCrashVolatility() {
	// The root registers are persistent: they keep every completed walk.
	b.Materialize()
	b.Meta.Lose()
	b.pendingEvicts = nil
	b.pendingIdx = nil
	b.Ctrl.Crash()
	for i := range b.wbSlots {
		b.wbSlots[i] = 0
	}
	b.hmacFree, b.aesFree = 0, 0
}

// RestoreTCB installs recovered TCB register state, as a reboot after
// successful recovery would. Exposed on Base so reboot harnesses work
// uniformly across designs without knowing the concrete engine type.
// A recovered TCB carries no extension registers (recovery commits the
// replay window, which resets them); on an extended design they must
// come back as an empty map, not nil, so post-reboot write-backs can
// record into them.
func (b *Base) RestoreTCB(t TCB) {
	if t.ExtDirty == nil && b.TCB.ExtDirty != nil {
		t.ExtDirty = make(map[mem.Addr]uint64)
	}
	b.TCB = t
}

// NVMSnapshot captures the current NVM contents non-destructively: the
// adversary's view of the DIMM at this instant. Unlike Crash it leaves
// the engine fully operational.
func (b *Base) NVMSnapshot() *nvm.Image { return b.Ctrl.Device().Snapshot() }

// MakeCrashImage captures the persistent state. When the device ran
// under a fault model, the image also carries the controller's suspects
// manifest and the harness-only fault log produced by the crash.
func (b *Base) MakeCrashImage(design string) *CrashImage {
	img := &CrashImage{
		Image:       b.Ctrl.Device().Snapshot(),
		TCB:         b.Registers().CloneExt(),
		Keys:        b.Keys,
		UpdateLimit: b.P.UpdateLimit,
		Design:      design,
	}
	if b.Ctrl.Device().FaultModel() != nil {
		img.MediaFaults = true
		if log := b.Ctrl.TakeFaultLog(); log != nil {
			img.Suspects = log.Suspects
			img.MediaLog = log
		}
	}
	return img
}
