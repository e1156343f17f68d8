package engine

import (
	"math/rand"
	"slices"
	"testing"

	"ccnvm/internal/mem"
	"ccnvm/internal/memctrl"
	"ccnvm/internal/metacache"
	"ccnvm/internal/nvm"
	"ccnvm/internal/seccrypto"
)

// newBase builds a bare Base over a fresh device for unit tests.
func newBase(t testing.TB, capacity uint64) *Base {
	t.Helper()
	lay := mem.MustLayout(capacity)
	dev := nvm.NewDevice(lay, nvm.PCMTiming(3))
	ctrl := memctrl.New(memctrl.Config{}, dev)
	b := &Base{}
	b.InitBase(lay, seccrypto.DefaultKeys(), ctrl, metacache.Config{}, Params{})
	return b
}

func TestParamsDefaults(t *testing.T) {
	var p Params
	p.Fill()
	if MetaCycles != 32 || HMACCycles != 80 || HMACIssueCycles != 24 || AESCycles != 216 ||
		QueueLookupCycles != 32 || WritebackBuffer != 5 || p.UpdateLimit != 16 || p.QueueEntries != 64 {
		t.Fatalf("defaults wrong: %+v", p)
	}
}

func TestHMACOpChainLatency(t *testing.T) {
	b := newBase(t, 1<<30)
	if got := b.HMACOp(100, 1); got != 180 {
		t.Fatalf("single HMAC done at %d, want 180", got)
	}
	// A Merkle path of 11 levels serializes: 11 x 80.
	if got := b.HMACOp(0, 11); got != 880 {
		t.Fatalf("11-chain done at %d, want 880", got)
	}
	if got := b.HMACOp(50, 0); got != 50 {
		t.Fatalf("empty chain advanced time: %d", got)
	}
	if b.Stats().HMACOps != 12 {
		t.Fatalf("HMACOps = %d, want 12", b.Stats().HMACOps)
	}
}

func TestAESOpLatency(t *testing.T) {
	b := newBase(t, 1<<30)
	if got := b.AESOp(10); got != 226 {
		t.Fatalf("AES done at %d, want 226 (72 ns at 3 GHz)", got)
	}
}

func TestWritebackBufferSlots(t *testing.T) {
	b := newBase(t, 1<<30)
	// Fill every default slot with long-running work.
	for i := 0; i < WritebackBuffer; i++ {
		slot, accept := b.AcquireWBSlot(0)
		if accept != 0 {
			t.Fatalf("slot %d not immediately free", i)
		}
		b.ReleaseWBSlot(slot, 1000+int64(i))
	}
	// The next acquisition must wait for the earliest release.
	_, accept := b.AcquireWBSlot(0)
	if accept != 1000 {
		t.Fatalf("fifth writeback accepted at %d, want 1000", accept)
	}
	st := b.Stats()
	if st.WritebackBufferStalls != 1 || st.WritebackStallCycles != 1000 {
		t.Fatalf("stall stats = %+v", st)
	}
}

func TestDefaultHMACLineVerifiesZeroBlocks(t *testing.T) {
	b := newBase(t, 1<<30)
	ha, slot := b.Lay.HMACLineOf(256)
	l := b.DefaultHMACLine(ha)
	got := seccrypto.GetHMAC(l, slot)
	want := b.Cry.DataHMAC(256, 0, mem.Line{})
	if got != want {
		t.Fatal("default HMAC line slot does not authenticate a never-written block")
	}
}

// TestDefaultHMACLineMemoMatchesRecompute holds the default-HMAC-line
// memo to a Base without it: two HMAC-line addresses that share a memo
// slot, requested alternately so each evicts the other, then one repeat,
// must give the lines a recompute gives.
func TestDefaultHMACLineMemoMatchesRecompute(t *testing.T) {
	memo, plain := newBase(t, 1<<30), newBase(t, 1<<30)
	plain.defLines = nil
	ha1 := memo.Lay.HMACBase
	ha2 := ha1 + mem.LineSize
	for mem.Mix64(uint64(ha2))&(defLineSlots-1) != mem.Mix64(uint64(ha1))&(defLineSlots-1) {
		ha2 += mem.LineSize
	}
	for i, ha := range []mem.Addr{ha1, ha2, ha1, ha2, ha2} {
		if got, want := memo.DefaultHMACLine(ha), plain.DefaultHMACLine(ha); got != want {
			t.Fatalf("request %d (%#x): memoized line differs from the recompute", i, uint64(ha))
		}
	}
	if s := memo.Stats(); s.DefaultLineHits != 1 || s.DefaultLineMisses != 4 {
		t.Fatalf("memo hits/misses = %d/%d, want 1/4", s.DefaultLineHits, s.DefaultLineMisses)
	}
}

func TestFetchChainFillsAndVerifies(t *testing.T) {
	b := newBase(t, 1<<30)
	// Empty NVM: the whole default chain must verify against ROOTold.
	line, done := b.FetchChain(0, 0, 5)
	if line != b.Tree.DefaultNode(0) {
		t.Fatal("fetched default counter line wrong")
	}
	if done <= 0 {
		t.Fatal("fetch took no time")
	}
	if b.Stats().IntegrityViolations != 0 {
		t.Fatal("default chain failed verification")
	}
	if !b.Meta.Contains(b.Lay.CounterLineAddr(5)) {
		t.Fatal("fetched line not installed in meta cache")
	}
	// Second access is a cache hit: CounterLine returns fast.
	_, t2 := b.CounterLine(1000, b.Lay.CounterLineAddr(5))
	if t2 != 1000+MetaCycles {
		t.Fatalf("cached counter took %d, want meta hit latency", t2-1000)
	}
}

func TestFetchChainDetectsCorruptNVM(t *testing.T) {
	b := newBase(t, 1<<30)
	// Write a counter line to NVM that does not match the (default) tree.
	var cl seccrypto.CounterLine
	cl.Bump(0)
	b.Ctrl.Device().Write(b.Lay.CounterLineAddr(3), cl.Encode())
	b.FetchChain(0, 0, 3)
	if b.Stats().IntegrityViolations == 0 {
		t.Fatal("inconsistent NVM counter accepted")
	}
}

func TestVictimForwardingFromPendingEvicts(t *testing.T) {
	b := newBase(t, 1<<30)
	var dirty mem.Line
	dirty[0] = 0xAB
	ca := b.Lay.CounterLineAddr(9)
	b.pendingEvicts = append(b.pendingEvicts, EvictRec{Addr: ca, Line: dirty})
	got, _ := b.FetchChain(0, 0, 9)
	if got != dirty {
		t.Fatal("fetch did not forward the in-flight victim")
	}
	if b.Stats().IntegrityViolations != 0 {
		t.Fatal("forwarded victim was verified against NVM")
	}
}

func TestVictimForwardingFromStash(t *testing.T) {
	b := newBase(t, 1<<30)
	var stashed mem.Line
	stashed[1] = 0xCD
	ca := b.Lay.CounterLineAddr(11)
	b.StashLookup = func(a mem.Addr) *mem.Line {
		if a == ca {
			return &stashed
		}
		return nil
	}
	got, _ := b.FetchChain(0, 0, 11)
	if got != stashed {
		t.Fatal("fetch did not consult the design stash")
	}
}

func TestUpdatePendingEvict(t *testing.T) {
	b := newBase(t, 1<<30)
	b.pendingEvicts = append(b.pendingEvicts, EvictRec{Addr: 64})
	l, ok := b.UpdatePendingEvict(64, func(n *mem.Line) { n[0] = 7 })
	if !ok || l[0] != 7 {
		t.Fatal("pending evict not updated")
	}
	if _, ok := b.UpdatePendingEvict(128, nil); ok {
		t.Fatal("absent pending evict reported updated")
	}
	if b.pendingEvicts[0].Line[0] != 7 {
		t.Fatal("mutation did not persist in the queue")
	}
}

func TestRequeueEvictsPreservesOrder(t *testing.T) {
	b := newBase(t, 1<<30)
	b.pendingEvicts = []EvictRec{{Addr: 192}}
	b.RequeueEvicts([]EvictRec{{Addr: 64}, {Addr: 128}})
	got := b.TakePendingEvicts()
	if len(got) != 3 || got[0].Addr != 64 || got[1].Addr != 128 || got[2].Addr != 192 {
		t.Fatalf("requeue order wrong: %+v", got)
	}
}

func TestTimingMonotonicityProperty(t *testing.T) {
	// Completion times never precede issue times, across designs and
	// random op mixes.
	lay := mem.MustLayout(1 << 30)
	for _, mk := range []func() Engine{
		func() Engine {
			return NewWoCC(lay, seccrypto.DefaultKeys(),
				memctrl.New(memctrl.Config{}, nvm.NewDevice(lay, nvm.PCMTiming(3))), metacache.Config{}, Params{})
		},
		func() Engine {
			return NewSC(lay, seccrypto.DefaultKeys(),
				memctrl.New(memctrl.Config{}, nvm.NewDevice(lay, nvm.PCMTiming(3))), metacache.Config{}, Params{})
		},
		func() Engine {
			return NewOsiris(lay, seccrypto.DefaultKeys(),
				memctrl.New(memctrl.Config{}, nvm.NewDevice(lay, nvm.PCMTiming(3))), metacache.Config{}, Params{})
		},
	} {
		e := mk()
		rng := rand.New(rand.NewSource(2))
		now := int64(0)
		for i := 0; i < 300; i++ {
			a := mem.Addr(rng.Intn(512) * 64 * 64)
			if rng.Intn(2) == 0 {
				accept := e.WriteBack(now, a, mem.Line{})
				if accept < now {
					t.Fatalf("%s: acceptance %d before issue %d", e.Name(), accept, now)
				}
				now = accept + int64(rng.Intn(40))
			} else {
				_, done := e.ReadBlock(now, a)
				if done < now {
					t.Fatalf("%s: completion %d before issue %d", e.Name(), done, now)
				}
				now += int64(rng.Intn(40))
			}
		}
	}
}

func TestCrashImageCarriesConfig(t *testing.T) {
	b := newBase(t, 1<<30)
	img := b.MakeCrashImage("test")
	if img.Design != "test" || img.UpdateLimit != 16 || img.Keys != b.Keys {
		t.Fatalf("crash image metadata wrong: %+v", img)
	}
}

func TestTCBCloneExt(t *testing.T) {
	var tcb TCB
	if cp := tcb.CloneExt(); cp.ExtDirty != nil {
		t.Fatal("nil map cloned into non-nil")
	}
	tcb.ExtDirty = map[mem.Addr]uint64{64: 3}
	cp := tcb.CloneExt()
	cp.ExtDirty[64] = 9
	if tcb.ExtDirty[64] != 3 {
		t.Fatal("clone aliases the original map")
	}
}

// TestReencryptPageEventOrderRepeats drives one block through a
// minor-counter overflow on two fresh machines with the controller's
// event tap installed. The page re-encryption's writes must reach the
// controller in the same order both times — data lines, then the page's
// sixteen HMAC lines in ascending address order — because the tap feeds
// the persist-ordering graph and, under a fault model, that order
// numbers the in-flight writes a crash tears.
func TestReencryptPageEventOrderRepeats(t *testing.T) {
	const addr = mem.Addr(5*mem.PageSize + 3*mem.LineSize)
	run := func() []memctrl.Event {
		b := newBase(t, 1<<30)
		var events []memctrl.Event
		b.Ctrl.SetEventTap(func(e memctrl.Event) { events = append(events, e) })
		now := int64(0)
		for i := 0; i <= seccrypto.MinorMax; i++ {
			r := b.BumpCounter(now, addr)
			now = b.WriteDataBlock(now, r.Avail, addr, mem.Line{byte(i)}, r.Counter) + 10
		}
		if b.Stats().CounterOverflows != 1 {
			t.Fatalf("overflows = %d, want 1", b.Stats().CounterOverflows)
		}
		return events
	}
	first, second := run(), run()
	if !slices.Equal(first, second) {
		t.Fatal("two fresh machines emitted different event sequences across a page re-encryption")
	}
	// The re-encryption's HMAC-line writes are the last sixteen events
	// before the overflowing write-back's own data and HMAC writes.
	const n = mem.BlocksPerPage / mem.HMACsPerLine
	hmacs := first[len(first)-2-n : len(first)-2]
	for k, e := range hmacs {
		if e.Kind != memctrl.EvWriteAccept || e.Addr != hmacs[0].Addr+mem.Addr(k*mem.LineSize) {
			t.Fatalf("HMAC line %d of the re-encrypted page written at %#x, want ascending from %#x", k, uint64(e.Addr), uint64(hmacs[0].Addr))
		}
	}
}
