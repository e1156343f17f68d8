package core

import (
	"math/rand"
	"testing"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/memctrl"
	"ccnvm/internal/metacache"
	"ccnvm/internal/nvm"
	"ccnvm/internal/seccrypto"
)

func rig(t testing.TB, p engine.Params, variant string) *CCNVM {
	t.Helper()
	lay := mem.MustLayout(1 << 30)
	dev := nvm.NewDevice(lay, nvm.PCMTiming(3))
	ctrl := memctrl.New(memctrl.Config{}, dev)
	keys := seccrypto.DefaultKeys()
	switch variant {
	case "ccnvm":
		return NewCCNVM(lay, keys, ctrl, metacache.Config{}, p)
	case "ccnvm-wods":
		return NewCCNVMWoDS(lay, keys, ctrl, metacache.Config{}, p)
	case "ccnvm-ext":
		return NewCCNVMExt(lay, keys, ctrl, metacache.Config{}, p)
	}
	t.Fatalf("unknown variant %s", variant)
	return nil
}

func fill(b byte) mem.Line {
	var l mem.Line
	l[0] = b
	return l
}

func TestNames(t *testing.T) {
	for _, v := range []string{"ccnvm", "ccnvm-wods", "ccnvm-ext"} {
		if got := rig(t, engine.Params{}, v).Name(); got != v {
			t.Errorf("Name() = %q, want %q", got, v)
		}
	}
}

func TestDrainCauseStrings(t *testing.T) {
	want := map[DrainCause]string{
		DrainQueueFull:   "queue-full",
		DrainEvict:       "meta-evict",
		DrainUpdateLimit: "update-limit",
		DrainOverflow:    "counter-overflow",
		DrainSettle:      "settle",
		DrainCause(99):   "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("cause %d = %q, want %q", int(c), c.String(), s)
		}
	}
}

func TestDrainCauseAccounting(t *testing.T) {
	// Update-limit trigger.
	c := rig(t, engine.Params{UpdateLimit: 2}, "ccnvm")
	now := int64(0)
	for i := 0; i < 4; i++ {
		now = c.WriteBack(now, 0, fill(byte(i))) + 10
	}
	if st := c.Stats(); st.DrainUpdateLimit != 2 || st.Drains != 2 {
		t.Fatalf("update-limit accounting wrong: %+v", st)
	}
	// Queue-full trigger: scattered pages with a tiny queue.
	c = rig(t, engine.Params{QueueEntries: 16, UpdateLimit: 1 << 20}, "ccnvm")
	now = 0
	for i := 0; i < 32; i++ {
		a := mem.Addr(uint64(i) * 1237 * 4096 % (1 << 30))
		now = c.WriteBack(now, a, fill(byte(i))) + 10
	}
	if st := c.Stats(); st.DrainQueueFull == 0 {
		t.Fatalf("no queue-full drains: %+v", st)
	}
}

func TestOverflowTriggersImmediateDrain(t *testing.T) {
	c := rig(t, engine.Params{UpdateLimit: 1 << 20}, "ccnvm")
	now := int64(0)
	for i := 0; i <= int(seccrypto.MinorMax); i++ {
		now = c.WriteBack(now, 0, fill(byte(i))) + 10
	}
	st := c.Stats()
	if st.CounterOverflows != 1 {
		t.Fatalf("overflows = %d, want 1", st.CounterOverflows)
	}
	if st.Drains == 0 {
		t.Fatal("overflow did not force a drain")
	}
	// After the drain, the NVM counter line matches the cache: crash and
	// verify the recovered counter needs no retries for this page.
	img := c.Crash()
	raw, ok := img.Image.Read(img.Image.Layout.CounterLineOf(0))
	if !ok {
		t.Fatal("counter line not persisted by overflow drain")
	}
	cl := seccrypto.DecodeCounterLine(raw)
	if cl.Major != 1 {
		t.Fatalf("persisted major = %d, want 1", cl.Major)
	}
}

func TestSettleDrainsEverything(t *testing.T) {
	c := rig(t, engine.Params{}, "ccnvm")
	now := int64(0)
	for i := 0; i < 5; i++ {
		now = c.WriteBack(now, mem.Addr(i*4096), fill(byte(i))) + 10
	}
	c.Settle(now)
	if c.Queue().Len() != 0 {
		t.Fatal("queue not empty after settle")
	}
	if len(c.Meta.DirtyAddrs()) != 0 {
		t.Fatal("dirty metadata survived settle")
	}
	if c.Registers().Nwb != 0 {
		t.Fatal("Nwb not reset by settle")
	}
	if tcb := c.Registers(); tcb.RootNew != tcb.RootOld {
		t.Fatal("roots diverged after settle")
	}
}

func TestSettleOnIdleEngineIsNoop(t *testing.T) {
	c := rig(t, engine.Params{}, "ccnvm")
	if got := c.Settle(42); got != 42 {
		t.Fatalf("idle settle advanced time to %d", got)
	}
	if c.Stats().Drains != 0 {
		t.Fatal("idle settle counted a drain")
	}
}

func TestEpochInvariantBetweenDrains(t *testing.T) {
	// Between drains the NVM tree region must not change at all.
	c := rig(t, engine.Params{UpdateLimit: 1 << 20, QueueEntries: 64}, "ccnvm")
	now := c.WriteBack(0, 0, fill(1)) + 10
	now = c.WriteBack(now, 64, fill(2)) + 10
	before := snapshotRegion(c, mem.RegionTree)
	beforeCtr := snapshotRegion(c, mem.RegionCounter)
	for i := 0; i < 5; i++ { // same line: stays under N, no drain
		now = c.WriteBack(now, 128, fill(byte(i))) + 10
	}
	if c.Stats().Drains != 0 {
		t.Skip("unexpected drain; invariant trivially holds")
	}
	if !regionEqual(c, mem.RegionTree, before) || !regionEqual(c, mem.RegionCounter, beforeCtr) {
		t.Fatal("metadata regions changed outside a drain")
	}
}

func snapshotRegion(c *CCNVM, r mem.Region) map[mem.Addr]mem.Line {
	out := map[mem.Addr]mem.Line{}
	img := c.Ctrl.Device().Snapshot()
	for _, a := range img.Store.Addrs() {
		if c.Lay.RegionOf(a) == r {
			l, _ := img.Read(a)
			out[a] = l
		}
	}
	return out
}

func regionEqual(c *CCNVM, r mem.Region, want map[mem.Addr]mem.Line) bool {
	got := snapshotRegion(c, r)
	if len(got) != len(want) {
		return false
	}
	for a, l := range want {
		if got[a] != l {
			return false
		}
	}
	return true
}

func TestWoDSUpdatesRootPerWriteback(t *testing.T) {
	c := rig(t, engine.Params{UpdateLimit: 1 << 20}, "ccnvm-wods")
	rootBefore := c.Registers().RootNew
	c.WriteBack(0, 0, fill(1))
	if c.Registers().RootNew == rootBefore {
		t.Fatal("w/o DS did not update ROOTnew on a write-back")
	}
	if tcb := c.Registers(); tcb.RootOld == tcb.RootNew {
		t.Fatal("ROOTold moved without a drain")
	}
}

func TestDSDefersRootToDrain(t *testing.T) {
	c := rig(t, engine.Params{UpdateLimit: 1 << 20}, "ccnvm")
	rootBefore := c.Registers().RootNew
	c.WriteBack(0, 0, fill(1))
	if c.Registers().RootNew != rootBefore {
		t.Fatal("deferred spreading updated ROOTnew before the drain")
	}
	c.Settle(1000)
	if c.Registers().RootNew == rootBefore {
		t.Fatal("drain did not update ROOTnew")
	}
}

func TestDrainBlocksSubsequentEvictions(t *testing.T) {
	c := rig(t, engine.Params{UpdateLimit: 2}, "ccnvm")
	now := c.WriteBack(0, 0, fill(1)) + 1
	now = c.WriteBack(now, 0, fill(2)) + 1 // triggers a drain
	accept := c.WriteBack(now, 4096, fill(3))
	if accept <= now {
		t.Fatal("eviction accepted while the drain was still running")
	}
}

func TestAvgEpochLengthAndQueueAccessors(t *testing.T) {
	c := rig(t, engine.Params{UpdateLimit: 3}, "ccnvm")
	if c.AvgEpochLength() != 0 {
		t.Fatal("epoch length nonzero before any drain")
	}
	now := int64(0)
	for i := 0; i < 6; i++ {
		now = c.WriteBack(now, 0, fill(byte(i))) + 10
	}
	if got := c.AvgEpochLength(); got != 3 {
		t.Fatalf("avg epoch = %v, want 3", got)
	}
	if c.Queue().Capacity() != 64 {
		t.Fatalf("default queue capacity = %d", c.Queue().Capacity())
	}
}

func TestReadTriggersEvictDrain(t *testing.T) {
	// A tiny meta cache forces a read-path fetch to displace dirty
	// metadata, which must fire draining trigger 2.
	lay := mem.MustLayout(1 << 30)
	dev := nvm.NewDevice(lay, nvm.PCMTiming(3))
	c := NewCCNVM(lay, seccrypto.DefaultKeys(), memctrl.New(memctrl.Config{}, dev),
		metacache.Config{SizeBytes: 1024, Ways: 2}, engine.Params{UpdateLimit: 1 << 20})
	now := int64(0)
	for i := 0; i < 24; i++ {
		a := mem.Addr(uint64(i) * 977 * 4096 % (1 << 30))
		now = c.WriteBack(now, a, fill(byte(i))) + 10
		_, done := c.ReadBlock(now, a+64)
		now = done + 10
	}
	if c.Stats().DrainEvict == 0 {
		t.Fatal("no meta-evict drains under a tiny metadata cache")
	}
	if c.Stats().IntegrityViolations != 0 {
		t.Fatalf("%d violations", c.Stats().IntegrityViolations)
	}
}

// TestShallowTreesAndFloorQueue runs every variant on the tree shapes
// the level walk degenerates on — counter lines hanging directly off the
// TCB root, and a single internal level — and on the default one, with
// the queue clamped to its floor (one write-back's reservation) and a
// metadata cache small enough to push dirty lines through the stash.
// Reads must return what was written with no violation, and both a
// settled image and one crashed mid-epoch must verify against ROOTold.
func TestShallowTreesAndFloorQueue(t *testing.T) {
	build := map[string]func(*mem.Layout, seccrypto.Keys, *memctrl.Controller, metacache.Config, engine.Params) *CCNVM{
		"ccnvm": NewCCNVM, "ccnvm-wods": NewCCNVMWoDS, "ccnvm-ext": NewCCNVMExt,
	}
	for _, tc := range []struct {
		capacity uint64
		levels   int
	}{{16 << 10, 0}, {64 << 10, 1}, {1 << 30, 8}} {
		for variant, newEngine := range build {
			lay := mem.MustLayout(tc.capacity)
			if lay.InternalLevels != tc.levels {
				t.Fatalf("capacity %d has %d internal levels, want %d", tc.capacity, lay.InternalLevels, tc.levels)
			}
			ctrl := memctrl.New(memctrl.Config{}, nvm.NewDevice(lay, nvm.PCMTiming(3)))
			c := newEngine(lay, seccrypto.DefaultKeys(), ctrl,
				metacache.Config{SizeBytes: 1024, Ways: 2}, engine.Params{QueueEntries: 1, UpdateLimit: 5})
			if got, want := c.Queue().Capacity(), 1+tc.levels; got != want {
				t.Fatalf("%s/%d: queue capacity %d, want the floor %d", variant, tc.levels, got, want)
			}
			verify := func(when string) {
				t.Helper()
				dev := c.Ctrl.Device().Snapshot()
				if bad := c.Tree.VerifyAll(dev.Store, c.Registers().RootOld, dev.Store.Addrs()); len(bad) != 0 {
					t.Fatalf("%s/%d %s: NVM tree does not verify against ROOTold: %v", variant, tc.levels, when, bad[0])
				}
			}
			rng := rand.New(rand.NewSource(int64(tc.levels)))
			latest := map[mem.Addr]mem.Line{}
			pages := min(tc.capacity/mem.PageSize, 40)
			now := int64(0)
			for i := 0; i < 600; i++ {
				a := mem.Addr(rng.Uint64()%pages*997%(tc.capacity/mem.PageSize))*mem.PageSize + mem.Addr(rng.Intn(4))*mem.LineSize
				if want, ok := latest[a]; ok && rng.Intn(3) == 0 {
					got, done := c.ReadBlock(now, a)
					if got != want {
						t.Fatalf("%s/%d: read of %#x returned stale content", variant, tc.levels, uint64(a))
					}
					now = done + 10
					continue
				}
				latest[a] = fill(byte(i))
				now = c.WriteBack(now, a, latest[a]) + 10
				if i%97 == 0 {
					verify("mid-epoch")
				}
			}
			if st := c.Stats(); st.IntegrityViolations != 0 || st.DrainQueueFull == 0 {
				t.Fatalf("%s/%d: %d violations, %d queue-full drains", variant, tc.levels, st.IntegrityViolations, st.DrainQueueFull)
			}
			c.WriteBack(now, 0, fill(0xEE)) // leave an epoch open
			img := c.Crash()
			if bad := c.Tree.VerifyAll(img.Image.Store, img.TCB.RootOld, img.Image.Store.Addrs()); len(bad) != 0 {
				t.Fatalf("%s/%d: crash image does not verify against ROOTold: %v", variant, tc.levels, bad[0])
			}
		}
	}
}
