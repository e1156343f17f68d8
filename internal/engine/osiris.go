package engine

import (
	"maps"
	"slices"

	"ccnvm/internal/design/names"
	"ccnvm/internal/mem"
	"ccnvm/internal/memctrl"
	"ccnvm/internal/metacache"
	"ccnvm/internal/seccrypto"
)

// Osiris is Osiris Plus [Ye et al., MICRO'18] as described in the
// paper's evaluation: dirty counter lines are never written back on
// eviction — a stale NVM counter is recovered by online checking against
// the data HMAC, bounded by writing a counter line to NVM whenever it
// runs N updates ahead of its persistent copy (the stop-loss). The
// Merkle tree is maintained on chip only and the root is updated in the
// TCB on every write-back, so the in-NVM tree is never persisted;
// recovery rebuilds it from recovered counters and compares the result
// against the root register. A mismatch proves an attack but cannot
// locate the tampered block, which is cc-NVM's point of comparison.
//
// Functionally the newest counters and tree live in volatile shadow
// state (standing in for the on-chip truth that Osiris reconstructs via
// its ECC trick); timing charges the online-recovery retries whenever a
// stale line is brought on chip.
type Osiris struct {
	Base
	onChipTree
	distance map[mem.Addr]uint64 // updates ahead of NVM per counter line
}

// onChipTree is the volatile truth of a design that keeps its Merkle
// tree on chip only and moves the TCB root on every write-back (Osiris
// Plus, Arsenal): the newest counter lines and tree nodes. A crash loses
// both maps.
type onChipTree struct {
	b          *Base
	shadowCtr  map[mem.Addr]seccrypto.CounterLine // newest counter truth
	shadowTree map[mem.Addr]mem.Line              // tree truth as of the last Materialize or RestoreTree
}

// init binds the shadow state to b as its lazy paths' content and store.
func (s *onChipTree) init(b *Base) {
	s.b = b
	s.reset()
	b.lazy.content, b.lazy.store, b.lazy.oneRoot = s.content, s.store, true
}

// reset empties the shadow state, as a power failure does.
func (s *onChipTree) reset() {
	s.shadowCtr = make(map[mem.Addr]seccrypto.CounterLine)
	s.shadowTree = make(map[mem.Addr]mem.Line)
}

// truth returns the newest content of counter line ca: the shadow entry
// if the line ever ran ahead of NVM, otherwise the persistent copy.
func (s *onChipTree) truth(ca mem.Addr) seccrypto.CounterLine {
	if cl, ok := s.shadowCtr[ca]; ok {
		return cl
	}
	l, _ := s.b.Ctrl.Device().Peek(ca)
	return seccrypto.DecodeCounterLine(l)
}

// RestoreTree installs the tree a recovery rebuilt (recovery.Recovered
// Tree) as the on-chip truth, as a reboot after Apply would: the nodes
// it lists, the level default for every other. Without it a rebooted
// engine hashes default siblings into ROOTnew and the next recovery
// flags a potential replay. The device's copy of the tree is never
// read: it is unverified, and a node restored there from an older
// boot would otherwise vouch for the older counters beneath it.
func (s *onChipTree) RestoreTree(nodes map[mem.Addr]mem.Line) {
	s.shadowTree = maps.Clone(nodes)
	if s.shadowTree == nil {
		s.shadowTree = make(map[mem.Addr]mem.Line)
	}
}

// node returns the shadow content of tree node a at level.
func (s *onChipTree) node(level int, a mem.Addr) mem.Line {
	if n, ok := s.shadowTree[a]; ok {
		return n
	}
	return s.b.Tree.DefaultNode(level)
}

// content is the lazy paths' source: the counter truth for a leaf, the
// shadow tree for a node.
func (s *onChipTree) content(a mem.Addr) mem.Line {
	lay := s.b.Lay
	if lay.RegionOf(a) == mem.RegionCounter {
		cl := s.truth(a)
		return cl.Encode()
	}
	level, _ := lay.NodeAt(a)
	return s.node(level, a)
}

// store keeps a recomputed node in the shadow tree and, when resident,
// in the metadata cache.
func (s *onChipTree) store(a mem.Addr, l mem.Line) {
	s.shadowTree[a] = l
	s.b.Meta.Overwrite(a, l)
}

// updatePath walks the Merkle path of leaf toward the ROOT register,
// charging the fetch and HMAC costs a cached tree walk would incur and
// bringing each node on chip, and records the leaf for Materialize.
func (s *onChipTree) updatePath(now int64, leaf uint64) int64 {
	b := s.b
	level, idx := 0, leaf
	t := now
	for level < b.Lay.TopLevel() {
		pl, pi, _ := b.Lay.ParentOf(level, idx)
		pa := b.Lay.NodeAddr(pl, pi)
		node, resident := b.Meta.Peek(pa)
		if !resident {
			// Timing: the node must be brought on chip (reconstructed in
			// real Osiris); charge one NVM access.
			_, _, tr := b.Ctrl.ReadBypass(t, pa)
			t = tr
			node = s.node(pl, pa)
		}
		t = b.HMACOp(t, 1)
		b.Meta.Fill(pa, node)
		level, idx = pl, pi
	}
	t = b.HMACOp(t, 1)
	b.recordLeaf(leaf)
	return t
}

// NewOsiris builds the Osiris Plus engine.
func NewOsiris(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, metaCfg metacache.Config, p Params) *Osiris {
	o := &Osiris{distance: make(map[mem.Addr]uint64)}
	o.InitBase(lay, keys, ctrl, metaCfg, p)
	o.onChipTree.init(&o.Base)
	o.VerifyFetchedMeta = false // the in-NVM tree is not maintained
	o.SetCounterSource(o.counterLine)
	return o
}

// Name implements Engine.
func (o *Osiris) Name() string { return names.Osiris }

// counterLine is the design's counter source: a metadata-cache hit costs
// the cache access; a miss reads NVM and pays one HMAC verification per
// update the persistent copy is behind (the online recovery of Osiris),
// bounded by N thanks to the stop-loss.
func (o *Osiris) counterLine(now int64, ca mem.Addr) (seccrypto.CounterLine, int64) {
	if _, ok := o.Meta.Read(ca); ok {
		return o.truth(ca), now + MetaCycles
	}
	_, _, t := o.Ctrl.ReadBypass(now+MetaCycles, ca)
	cl := o.truth(ca)
	retries := int(o.distance[ca])
	o.stats.StaleCounterRetries += uint64(retries)
	t = o.HMACOp(t, retries+1)
	if retries > 0 {
		o.Meta.FillDirty(ca, cl.Encode())
	} else {
		o.Meta.Fill(ca, cl.Encode())
	}
	return cl, t
}

// persistCounter writes the newest counter line to NVM, resetting its
// recovery distance.
func (o *Osiris) persistCounter(now int64, ca mem.Addr, cl seccrypto.CounterLine) int64 {
	t := o.Ctrl.Write(now, ca, cl.Encode())
	delete(o.shadowCtr, ca)
	o.distance[ca] = 0
	o.Meta.Clean(ca)
	return t
}

// FetchBlock implements Engine via the shared path with the
// online-recovery counter source.
func (o *Osiris) FetchBlock(now int64, addr mem.Addr, f *Fetched) int64 {
	done := o.Base.FetchBlock(now, addr, f)
	o.dropEvicts()
	return done
}

// ReadBlock implements Engine.
func (o *Osiris) ReadBlock(now int64, addr mem.Addr) (mem.Line, int64) {
	var f Fetched
	done := o.FetchBlock(now, addr, &f)
	return o.Open(&f), done
}

// WriteBack implements Engine.
func (o *Osiris) WriteBack(now int64, addr mem.Addr, pt mem.Line) int64 {
	o.stats.Writebacks++
	slot, accept := o.AcquireWBSlot(now)
	ca := o.Lay.CounterLineOf(addr)
	cl, avail := o.counterLine(accept, ca)
	cslot := o.Lay.CounterSlotOf(addr)
	old := cl
	if cl.Bump(cslot) {
		o.stats.CounterOverflows++
		avail = o.ReencryptPage(avail, addr, old, cl)
		o.shadowCtr[ca] = cl
		avail = o.persistCounter(avail, ca, cl)
		o.Meta.Fill(ca, cl.Encode())
	} else {
		o.shadowCtr[ca] = cl
		o.distance[ca]++
		if o.Meta.Contains(ca) {
			o.Meta.Update(ca, cl.Encode())
		} else {
			o.Meta.FillDirty(ca, cl.Encode())
		}
		if o.distance[ca] >= o.P.UpdateLimit {
			avail = o.persistCounter(avail, ca, cl)
		}
	}
	// The write-back may proceed only once the root is updated.
	tPath := o.updatePath(avail, o.Lay.CounterLineIndex(ca))
	done := o.WriteDataBlock(tPath, tPath, addr, pt, cl.Counter(cslot))
	o.dropEvicts()
	o.ReleaseWBSlot(slot, done)
	return accept
}

// dropEvicts discards displaced dirty metadata: Osiris never writes
// counters or tree nodes back on eviction.
func (o *Osiris) dropEvicts() { o.TakePendingEvicts() }

// Settle implements Engine: persist every counter line that runs ahead
// of NVM. The tree stays volatile by design.
func (o *Osiris) Settle(now int64) int64 {
	o.dropEvicts()
	// Ascending address order, so the controller sees the same event
	// sequence on every run.
	addrs := make([]mem.Addr, 0, len(o.shadowCtr))
	for ca := range o.shadowCtr {
		addrs = append(addrs, ca)
	}
	slices.Sort(addrs)
	for _, ca := range addrs {
		cl := o.shadowCtr[ca]
		nv, _ := o.Ctrl.Device().Peek(ca)
		if seccrypto.DecodeCounterLine(nv) != cl {
			o.Ctrl.Write(now, ca, cl.Encode())
		}
		o.distance[ca] = 0
	}
	o.shadowCtr = make(map[mem.Addr]seccrypto.CounterLine)
	return now
}

// Crash implements Engine: shadow state is volatile and vanishes.
func (o *Osiris) Crash() *CrashImage {
	o.ApplyCrashVolatility()
	o.reset()
	o.distance = make(map[mem.Addr]uint64)
	return o.MakeCrashImage(o.Name())
}
