package engine

import (
	"ccnvm/internal/design/names"
	"ccnvm/internal/mem"
	"ccnvm/internal/memctrl"
	"ccnvm/internal/metacache"
	"ccnvm/internal/seccrypto"
)

// SC is the strict-consistency design (§2.3, §5): every write-back
// atomically persists the data block, its HMAC, the counter line and the
// entire Merkle path — "12 atomic BMT updates on every write-back" for a
// 16 GB NVM: the leaf counter and ten internal nodes written to NVM plus
// the root updated in the TCB. Atomicity is provided by the persistent
// registers of [Osiris, MICRO'18], which we do not model internally; SC
// is crash-consistent by construction.
//
// The cascading HMAC recomputation serializes on the crypto unit, and
// the thirteen line writes per eviction produce the evaluation's
// worst-case write traffic (the 5.5x of §2.3).
type SC struct {
	Base
	path []mem.Addr // persistPath's reused path buffer
}

// NewSC builds the strict-consistency engine.
func NewSC(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, metaCfg metacache.Config, p Params) *SC {
	s := &SC{}
	s.InitBase(lay, keys, ctrl, metaCfg, p)
	// The root is persisted in the TCB: both registers move together.
	s.lazy.oneRoot = true
	return s
}

// Name implements Engine.
func (s *SC) Name() string { return names.SC }

// FetchBlock implements Engine via the shared path.
func (s *SC) FetchBlock(now int64, addr mem.Addr, f *Fetched) int64 {
	done := s.Base.FetchBlock(now, addr, f)
	s.handleEvicts(now)
	return done
}

// ReadBlock implements Engine.
func (s *SC) ReadBlock(now int64, addr mem.Addr) (mem.Line, int64) {
	var f Fetched
	done := s.FetchBlock(now, addr, &f)
	return s.Open(&f), done
}

// WriteBack implements Engine: full path recomputation, then all
// thirteen lines into the WPQ before the slot frees.
func (s *SC) WriteBack(now int64, addr mem.Addr, pt mem.Line) int64 {
	s.stats.Writebacks++
	slot, accept := s.AcquireWBSlot(now)
	r := s.BumpCounter(accept, addr)
	leaf := s.Lay.CounterLineIndex(s.Lay.CounterLineOf(addr))
	tPath := s.UpdatePathInCache(r.Avail, leaf)
	// The persistent-register atomicity protocol [Osiris, MICRO'18]
	// orders its commit record ahead of the thirteen in-place writes,
	// exposing one NVM write latency per write-back.
	tOrder := tPath + s.Ctrl.Device().Timing().WriteCycles
	// Data may enter the WPQ only after the root is updated and the
	// commit record is durable.
	done := s.WriteDataBlock(tOrder, tOrder, addr, pt, r.Counter)
	done = max(done, s.persistPath(tOrder, leaf))
	s.handleEvicts(accept)
	s.ReleaseWBSlot(slot, done)
	return accept
}

// persistPath hashes the walked path, then writes the counter line and
// every internal path node from the metadata cache to NVM and marks them
// clean. Nodes displaced mid-operation are persisted by the eviction
// handler.
func (s *SC) persistPath(now int64, leaf uint64) int64 {
	s.Materialize()
	t := now
	write := func(a mem.Addr) {
		if content, ok := s.Meta.Peek(a); ok && s.Meta.IsDirty(a) {
			t = max(t, s.Ctrl.Write(t, a, content))
			s.Meta.Clean(a)
		}
	}
	write(s.Lay.CounterLineAddr(leaf))
	s.path = s.Lay.PathFrom(s.path[:0], leaf)
	for _, pa := range s.path {
		write(pa)
	}
	return t
}

// handleEvicts persists dirty metadata displaced by fills immediately;
// under SC nothing dirty may linger on chip.
func (s *SC) handleEvicts(now int64) {
	for _, e := range s.TakePendingEvicts() {
		s.Ctrl.Write(now, e.Addr, e.Line)
	}
}

// Settle implements Engine: by construction nothing dirty remains
// between operations, but flush defensively.
func (s *SC) Settle(now int64) int64 {
	s.handleEvicts(now)
	for _, a := range s.Meta.DirtyAddrs() {
		if content, ok := s.Meta.Peek(a); ok {
			s.Ctrl.Write(now, a, content)
			s.Meta.Clean(a)
		}
	}
	return now
}

// Crash implements Engine.
func (s *SC) Crash() *CrashImage {
	s.ApplyCrashVolatility()
	return s.MakeCrashImage(s.Name())
}

var _ Engine = (*SC)(nil)
var _ Engine = (*WoCC)(nil)
var _ Engine = (*Osiris)(nil)
