package engine

import (
	"fmt"
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
	l := DefaultHMACLine(b.Cry, b.Lay, ha)
	got := seccrypto.GetHMAC(l, slot)
	want := b.Cry.DataHMAC(256, 0, mem.Line{})
	if got != want {
		t.Fatal("default HMAC line slot does not authenticate a never-written block")
	}
}

// refDefaultHMACLine is the never-written data-HMAC line ha computed
// with the reference engine by its own loop, so the tests below do not
// check the engine's rule against itself.
func refDefaultHMACLine(ref *seccrypto.Engine, lay *mem.Layout, ha mem.Addr) mem.Line {
	var l mem.Line
	lineIdx := uint64(ha-lay.HMACBase) / mem.LineSize
	for s := 0; s < mem.HMACsPerLine; s++ {
		da := mem.Addr((lineIdx*mem.HMACsPerLine + uint64(s)) * mem.LineSize)
		seccrypto.PutHMAC(&l, s, ref.DataHMAC(da, 0, mem.Line{}))
	}
	return l
}

func refEngine(t testing.TB) *seccrypto.Engine {
	t.Helper()
	ref, err := seccrypto.NewReferenceEngine(seccrypto.DefaultKeys())
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// storedBlock is one data block as a read finds it in NVM: its counter,
// its data line and its data-HMAC line, nil when never written.
type storedBlock struct {
	ctr        uint64
	data, hmac *mem.Line
}

// blankReadAddr sits in slot 2 of its data-HMAC line and mid-page, so
// neither slot nor counter index is the trivial 0.
const blankReadAddr = mem.Addr(0x1000 + 6*mem.LineSize)

// checkBlankRead reads blk through FetchBlock and Fetched.Open and holds
// the verdict and plaintext to the reference engine over the full
// default line: the stored HMAC is the HMAC line's slot when written,
// the reference default otherwise. It also holds the modelled charge to
// one HMAC and one pad per read, blank or not. It returns the verdict.
func checkBlankRead(t *testing.T, blk storedBlock) bool {
	t.Helper()
	b := newBase(t, 1<<30)
	var cl seccrypto.CounterLine
	cslot := b.Lay.CounterSlotOf(blankReadAddr)
	cl.Major, cl.Minors[cslot] = blk.ctr>>seccrypto.MinorBits, uint8(blk.ctr&seccrypto.MinorMax)
	b.SetCounterSource(func(now int64, _ mem.Addr) (seccrypto.CounterLine, int64) { return cl, now })
	ha, hslot := b.Lay.HMACLineOf(blankReadAddr)
	dev := b.Ctrl.Device()
	if blk.data != nil {
		if err := dev.Write(blankReadAddr, *blk.data); err != nil {
			t.Fatal(err)
		}
	}
	if blk.hmac != nil {
		if err := dev.Write(ha, *blk.hmac); err != nil {
			t.Fatal(err)
		}
	}

	var f Fetched
	b.FetchBlock(0, blankReadAddr, &f)
	pt, ok := f.Open(b.Cry)

	ref := refEngine(t)
	var ct mem.Line
	if blk.data != nil {
		ct = *blk.data
	}
	hl := refDefaultHMACLine(ref, b.Lay, ha)
	if blk.hmac != nil {
		hl = *blk.hmac
	}
	wantOK := ref.DataHMAC(blankReadAddr, blk.ctr, ct) == seccrypto.GetHMAC(hl, hslot)
	if wantPT := ref.Decrypt(blankReadAddr, blk.ctr, ct); ok != wantOK || pt != wantPT {
		t.Fatalf("Open = (plaintext match %v, ok %v), reference ok %v", pt == wantPT, ok, wantOK)
	}
	if f.NoMACLine != (blk.hmac == nil) {
		t.Fatalf("NoMACLine = %v with HMAC line written = %v", f.NoMACLine, blk.hmac != nil)
	}
	if s := b.Stats(); s.HMACOps != 1 || s.AESOps != 1 {
		t.Fatalf("read charged %d HMACs and %d pads, want 1 and 1", s.HMACOps, s.AESOps)
	}
	return ok
}

// TestNeverWrittenReadMatchesReference covers the read of a block whose
// data-HMAC line may never have been written: HMAC line absent or
// present, counter 0 or not, data line absent, zero or not, and the
// stored slot or the data tampered with. Beside the reference, each
// case must authenticate exactly when it is genuine: untampered, and
// either its HMAC line written or the block still blank at counter 0.
func TestNeverWrittenReadMatchesReference(t *testing.T) {
	ref := refEngine(t)
	lay := mem.MustLayout(1 << 30)
	ha, hslot := lay.HMACLineOf(blankReadAddr)
	nonZero := ref.Encrypt(blankReadAddr, 9, mem.Line{1, 2, 3})
	type dataKind struct {
		name string
		line *mem.Line
	}
	datas := []dataKind{{"absent", nil}, {"zero", &mem.Line{}}, {"nonzero", &nonZero}}
	for _, present := range []bool{false, true} {
		for _, ctr := range []uint64{0, 9, 3<<seccrypto.MinorBits | 9} {
			for _, d := range datas {
				for _, tamper := range []string{"none", "slot", "data"} {
					if tamper == "slot" && !present {
						continue // an absent line has no slot to tamper with
					}
					var ct mem.Line
					if d.line != nil {
						ct = *d.line
					}
					blk := storedBlock{ctr: ctr, data: d.line}
					if present {
						// The genuine line: neighbours at their defaults,
						// the block's slot authenticating what it holds.
						hl := refDefaultHMACLine(ref, lay, ha)
						seccrypto.PutHMAC(&hl, hslot, ref.DataHMAC(blankReadAddr, ctr, ct))
						if tamper == "slot" {
							hl[hslot*mem.HMACSize] ^= 0x80
						}
						blk.hmac = &hl
					}
					if tamper == "data" {
						bad := ct
						bad[17] ^= 1
						blk.data = &bad
					}
					genuine := tamper == "none" && (present || ctr == 0 && ct == mem.Line{})
					name := map[bool]string{false: "hmac-absent", true: "hmac-present"}[present]
					t.Run(fmt.Sprintf("%s/ctr=%d/data=%s/tamper=%s", name, ctr, d.name, tamper), func(t *testing.T) {
						if ok := checkBlankRead(t, blk); ok != genuine {
							t.Fatalf("authenticated = %v, want %v", ok, genuine)
						}
					})
				}
			}
		}
	}
}

// FuzzNeverWrittenRead is TestNeverWrittenReadMatchesReference over
// arbitrary counters and data. data empty leaves the data line
// unwritten; mode picks the stored HMAC line: 0 never written, 1 the
// default line, 2 the genuine line, 3 the genuine line with its slot
// flipped.
func FuzzNeverWrittenRead(f *testing.F) {
	f.Add(uint64(0), []byte{}, uint8(0))
	f.Add(uint64(0), []byte{0}, uint8(0))
	f.Add(uint64(0), []byte{1}, uint8(0))
	f.Add(uint64(5), []byte{}, uint8(0))
	f.Add(uint64(0), []byte{}, uint8(1))
	f.Add(uint64(7), []byte{4, 5}, uint8(2))
	f.Add(uint64(7), []byte{4, 5}, uint8(3))
	ref := refEngine(f)
	lay := mem.MustLayout(1 << 30)
	ha, hslot := lay.HMACLineOf(blankReadAddr)
	f.Fuzz(func(t *testing.T, ctr uint64, data []byte, mode uint8) {
		blk := storedBlock{ctr: ctr}
		var ct mem.Line
		if len(data) > 0 {
			copy(ct[:], data)
			blk.data = &ct
		}
		if mode%4 != 0 {
			hl := refDefaultHMACLine(ref, lay, ha)
			if mode%4 >= 2 {
				seccrypto.PutHMAC(&hl, hslot, ref.DataHMAC(blankReadAddr, ctr, ct))
			}
			if mode%4 == 3 {
				hl[hslot*mem.HMACSize] ^= 1
			}
			blk.hmac = &hl
		}
		checkBlankRead(t, blk)
	})
}

// TestWriteOntoNeverWrittenHMACLine holds WriteDataBlock onto an absent
// data-HMAC line to the full default line with the written slot
// patched, for every slot; a second write into the same line keeps the
// first one's slot.
func TestWriteOntoNeverWrittenHMACLine(t *testing.T) {
	ref := refEngine(t)
	for slot := 0; slot < mem.HMACsPerLine; slot++ {
		b := newBase(t, 1<<30)
		base := mem.Addr(0x2000)
		addr := base + mem.Addr(slot*mem.LineSize)
		ha, hslot := b.Lay.HMACLineOf(addr)
		if hslot != slot {
			t.Fatalf("block %#x sits in slot %d, want %d", uint64(addr), hslot, slot)
		}
		pt := mem.Line{byte(slot + 1), 0xAA}
		b.WriteDataBlock(0, 0, addr, pt, 3)
		want := refDefaultHMACLine(ref, b.Lay, ha)
		seccrypto.PutHMAC(&want, slot, ref.DataHMAC(addr, 3, ref.Encrypt(addr, 3, pt)))
		if got, _ := b.Ctrl.Device().Peek(ha); got != want {
			t.Fatalf("slot %d: stored HMAC line differs from the default line with the slot patched", slot)
		}
		other := base + mem.Addr((slot+1)%mem.HMACsPerLine*mem.LineSize)
		b.WriteDataBlock(0, 0, other, pt, 4)
		seccrypto.PutHMAC(&want, (slot+1)%mem.HMACsPerLine, ref.DataHMAC(other, 4, ref.Encrypt(other, 4, pt)))
		if got, _ := b.Ctrl.Device().Peek(ha); got != want {
			t.Fatalf("slot %d: a second write into the line lost a slot", slot)
		}
	}
}

// TestReencryptFreshPage re-encrypts a page nothing was written to:
// every HMAC line it writes must hold, slot by slot, the HMAC of the
// block's new ciphertext, none of the defaults it no longer reads.
func TestReencryptFreshPage(t *testing.T) {
	ref := refEngine(t)
	b := newBase(t, 1<<30)
	page := mem.Addr(3 * mem.PageSize)
	var old, cl seccrypto.CounterLine
	cl.Major = 1
	cl.Minors[5] = 1
	b.ReencryptPage(0, page, old, cl)
	dev := b.Ctrl.Device()
	for s := 0; s < mem.BlocksPerPage; s++ {
		da := page + mem.Addr(s*mem.LineSize)
		ct, ok := dev.Peek(da)
		if want := ref.Encrypt(da, cl.Counter(s), mem.Line{}); !ok || ct != want {
			t.Fatalf("block %d: ciphertext not re-encrypted under counter %d", s, cl.Counter(s))
		}
		ha, hslot := b.Lay.HMACLineOf(da)
		hl, ok := dev.Peek(ha)
		if !ok || seccrypto.GetHMAC(hl, hslot) != ref.DataHMAC(da, cl.Counter(s), ct) {
			t.Fatalf("block %d: stored HMAC does not authenticate the new ciphertext", s)
		}
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
