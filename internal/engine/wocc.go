package engine

import (
	"ccnvm/internal/design/names"
	"ccnvm/internal/mem"
	"ccnvm/internal/memctrl"
	"ccnvm/internal/metacache"
	"ccnvm/internal/seccrypto"
)

// WoCC is the "without crash consistency" baseline: a conventional
// secure memory architecture (counter-mode encryption plus a cached
// Bonsai Merkle Tree) ported to NVM with no consistency machinery at
// all. Metadata updates stay in the metadata cache and propagate lazily:
// when a dirty counter or tree line is evicted, it is written to NVM and
// its new HMAC is folded into the parent — in the cache when the parent
// is resident, otherwise by read-modify-writing NVM up to the first
// resident ancestor (or the root registers).
//
// It is the evaluation's normalization baseline: fastest and with the
// least write traffic, but after a crash the NVM counters and tree are
// arbitrarily stale, so data can be neither decrypted nor authenticated,
// which is indistinguishable from an attack.
type WoCC struct {
	Base
}

// NewWoCC builds the baseline over a controller.
func NewWoCC(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, metaCfg metacache.Config, p Params) *WoCC {
	w := &WoCC{}
	w.InitBase(lay, keys, ctrl, metaCfg, p)
	return w
}

// Name implements Engine.
func (w *WoCC) Name() string { return names.WoCC }

// FetchBlock implements Engine via the shared path, then settles any
// dirty metadata the fetch displaced.
func (w *WoCC) FetchBlock(now int64, addr mem.Addr, f *Fetched) int64 {
	done := w.Base.FetchBlock(now, addr, f)
	w.handleEvicts(now)
	return done
}

// ReadBlock implements Engine.
func (w *WoCC) ReadBlock(now int64, addr mem.Addr) (mem.Line, int64) {
	var f Fetched
	done := w.FetchBlock(now, addr, &f)
	return w.Open(&f), done
}

// WriteBack implements Engine: bump the counter in the cache, write the
// encrypted block and its HMAC, and let metadata linger on chip.
func (w *WoCC) WriteBack(now int64, addr mem.Addr, pt mem.Line) int64 {
	w.stats.Writebacks++
	slot, accept := w.AcquireWBSlot(now)
	r := w.BumpCounter(accept, addr)
	done := w.WriteDataBlock(accept, r.Avail, addr, pt, r.Counter)
	w.handleEvicts(accept)
	w.ReleaseWBSlot(slot, done)
	return accept
}

// handleEvicts applies the lazy write-back rule to displaced dirty
// metadata lines, one at a time: folding a victim's HMAC into a parent
// that is itself pending must update the pending copy, so each victim is
// taken only when it is actually persisted.
func (w *WoCC) handleEvicts(now int64) {
	for {
		pending := w.TakePendingEvicts()
		if len(pending) == 0 {
			return
		}
		e := pending[0]
		w.RequeueEvicts(pending[1:])
		w.lazyPersist(now, e.Addr, e.Line)
	}
}

// lazyPersist writes a dirty metadata line to NVM and folds its HMAC
// into the parent: in the cache when resident (stopping the walk),
// otherwise read-modify-writing NVM parents upward; reaching the top
// updates both root registers.
func (w *WoCC) lazyPersist(now int64, a mem.Addr, content mem.Line) {
	var level int
	var idx uint64
	switch w.Lay.RegionOf(a) {
	case mem.RegionCounter:
		level, idx = 0, w.Lay.CounterLineIndex(a)
	case mem.RegionTree:
		level, idx = w.Lay.NodeAt(a)
	default:
		panic("wocc: dirty meta eviction outside metadata regions")
	}
	t := w.Ctrl.Write(now, a, content)
	child := content
	for {
		if level == w.Lay.TopLevel() {
			w.Tree.SetParentSlot(&w.TCB.RootNew, int(idx), child)
			w.HMACOp(t, 1)
			w.TCB.RootOld = w.TCB.RootNew
			return
		}
		pl, pi, slot := w.Lay.ParentOf(level, idx)
		pa := w.Lay.NodeAddr(pl, pi)
		if node, ok := w.Meta.Peek(pa); ok {
			w.Tree.SetParentSlot(&node, slot, child)
			w.HMACOp(t, 1)
			w.Meta.Update(pa, node)
			return
		}
		if node, ok := w.UpdatePendingEvict(pa, func(n *mem.Line) {
			w.Tree.SetParentSlot(n, slot, child)
		}); ok {
			// The parent is itself awaiting persistence: the folded slot
			// rides along when its turn comes.
			_ = node
			w.HMACOp(t, 1)
			return
		}
		// Parent off chip: read-modify-write it in NVM and continue up,
		// since its own parent must absorb the change too.
		node, ok, tr := w.Ctrl.ReadBypass(t, pa)
		if !ok {
			node = w.Tree.DefaultNode(pl)
		}
		w.Tree.SetParentSlot(&node, slot, child)
		t = w.HMACOp(tr, 1)
		t = w.Ctrl.Write(t, pa, node)
		child = node
		level, idx = pl, pi
	}
}

// Settle implements Engine: flush every dirty metadata line through the
// lazy rule. Ascending address order is bottom-up in tree levels, and
// re-dirtied parents are picked up by subsequent passes.
func (w *WoCC) Settle(now int64) int64 {
	w.handleEvicts(now)
	for {
		dirty := w.Meta.DirtyAddrs()
		if len(dirty) == 0 {
			return now
		}
		for _, a := range dirty {
			content, ok := w.Meta.Peek(a)
			if !ok {
				continue
			}
			w.Meta.Clean(a)
			w.lazyPersist(now, a, content)
		}
	}
}

// Crash implements Engine.
func (w *WoCC) Crash() *CrashImage {
	w.ApplyCrashVolatility()
	return w.MakeCrashImage(w.Name())
}
