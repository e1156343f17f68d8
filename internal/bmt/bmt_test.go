package bmt

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"ccnvm/internal/mem"
	"ccnvm/internal/seccrypto"
)

func tree(t testing.TB, capacity uint64) (*Tree, *mem.Store) {
	t.Helper()
	lay := mem.MustLayout(capacity)
	cry := seccrypto.MustEngine(seccrypto.DefaultKeys())
	return New(lay, cry), &mem.Store{}
}

// writtenCounters lists the counter-line addresses present in st.
func writtenCounters(tr *Tree, st *mem.Store) []mem.Addr {
	var counters []mem.Addr
	for _, a := range st.Addrs() {
		if tr.Layout().RegionOf(a) == mem.RegionCounter {
			counters = append(counters, a)
		}
	}
	return counters
}

// persistTree writes a full consistent tree for the written counter
// lines in st, returning the root node, by materializing Rebuild output.
func persistTree(tr *Tree, st *mem.Store) mem.Line {
	nodes, root := tr.Rebuild(st, writtenCounters(tr, st))
	for a, n := range nodes {
		st.Write(a, n)
	}
	return root
}

func writeCounter(tr *Tree, st *mem.Store, leaf uint64, bumps int) {
	a := tr.Layout().CounterLineAddr(leaf)
	l, _ := st.Read(a)
	c := seccrypto.DecodeCounterLine(l)
	for i := 0; i < bumps; i++ {
		c.Bump(i % mem.BlocksPerPage)
	}
	st.Write(a, c.Encode())
}

func TestDefaultNodesChain(t *testing.T) {
	tr, _ := tree(t, 64<<20)
	lay := tr.Layout()
	// Each level's default must hold the HMAC of the previous level's
	// default in every slot.
	for k := 1; k <= lay.InternalLevels; k++ {
		for s := 0; s < mem.HMACsPerLine; s++ {
			if !tr.VerifyChild(tr.DefaultNode(k), s, tr.DefaultNode(k-1)) {
				t.Fatalf("default chain broken at level %d slot %d", k, s)
			}
		}
	}
}

func TestEmptyTreeVerifies(t *testing.T) {
	tr, st := tree(t, 64<<20)
	root := tr.RootNode(st)
	if bad := tr.VerifyAll(st, root, st.Addrs()); len(bad) != 0 {
		t.Fatalf("empty tree has mismatches: %v", bad)
	}
}

func TestRebuildMatchesRootNode(t *testing.T) {
	tr, st := tree(t, 64<<20)
	writeCounter(tr, st, 0, 3)
	writeCounter(tr, st, 5, 1)
	writeCounter(tr, st, tr.Layout().LevelNodes(0)-1, 2)
	root := persistTree(tr, st)
	if got := tr.RootNode(st); got != root {
		t.Fatal("RootNode over persisted tree differs from Rebuild root")
	}
	if bad := tr.VerifyAll(st, root, st.Addrs()); len(bad) != 0 {
		t.Fatalf("persisted rebuilt tree has mismatches: %v", bad)
	}
}

func TestRebuildIgnoresStaleTreeNodes(t *testing.T) {
	tr, st := tree(t, 64<<20)
	writeCounter(tr, st, 7, 1)
	root1 := persistTree(tr, st)
	// Mutate the counter again without updating the tree: stale nodes.
	writeCounter(tr, st, 7, 1)
	_, root2 := tr.Rebuild(st, []mem.Addr{tr.Layout().CounterLineAddr(7)})
	if root1 == root2 {
		t.Fatal("rebuild insensitive to counter change")
	}
	// Rebuild must ignore the stale persisted nodes entirely.
	nodes, root3 := tr.Rebuild(st, []mem.Addr{tr.Layout().CounterLineAddr(7)})
	if root3 != root2 {
		t.Fatal("rebuild not deterministic")
	}
	for a, n := range nodes {
		st.Write(a, n)
	}
	if bad := tr.VerifyAll(st, root2, st.Addrs()); len(bad) != 0 {
		t.Fatalf("re-persisted tree has mismatches: %v", bad)
	}
}

func TestVerifyAllLocatesTamperedCounter(t *testing.T) {
	tr, st := tree(t, 64<<20)
	writeCounter(tr, st, 3, 2)
	writeCounter(tr, st, 9, 1)
	root := persistTree(tr, st)
	// Replay counter line 3 to an older value (fewer bumps).
	a := tr.Layout().CounterLineAddr(3)
	var old seccrypto.CounterLine
	old.Bump(0)
	st.Write(a, old.Encode())
	bad := tr.VerifyAll(st, root, st.Addrs())
	if len(bad) == 0 {
		t.Fatal("replayed counter not detected")
	}
	found := false
	for _, m := range bad {
		if m.Level == 0 && m.Index == 3 {
			found = true
		}
		if m.Level == 0 && m.Index == 9 {
			t.Fatal("untampered counter flagged")
		}
	}
	if !found {
		t.Fatalf("mismatch list %v does not locate counter 3", bad)
	}
}

func TestVerifyAllLocatesTamperedInternalNode(t *testing.T) {
	tr, st := tree(t, 64<<20)
	writeCounter(tr, st, 0, 1)
	root := persistTree(tr, st)
	na := tr.Layout().NodeAddr(1, 0)
	n, _ := st.Read(na)
	n[0] ^= 0xFF
	st.Write(na, n)
	bad := tr.VerifyAll(st, root, st.Addrs())
	if len(bad) == 0 {
		t.Fatal("tampered internal node not detected")
	}
	hasNode := false
	for _, m := range bad {
		if m.Addr == na {
			hasNode = true
		}
	}
	if !hasNode {
		t.Fatalf("mismatches %v do not include tampered node %#x", bad, uint64(na))
	}
}

func TestVerifyAllDetectsRootMismatch(t *testing.T) {
	tr, st := tree(t, 64<<20)
	writeCounter(tr, st, 1, 1)
	root := persistTree(tr, st)
	root[0] ^= 1
	if bad := tr.VerifyAll(st, root, st.Addrs()); len(bad) == 0 {
		t.Fatal("wrong TCB root not detected")
	}
}

func TestVerifyAllDetectsSplicedCounters(t *testing.T) {
	tr, st := tree(t, 64<<20)
	writeCounter(tr, st, 2, 1)
	writeCounter(tr, st, 4, 3)
	root := persistTree(tr, st)
	lay := tr.Layout()
	a2, a4 := lay.CounterLineAddr(2), lay.CounterLineAddr(4)
	l2, _ := st.Read(a2)
	l4, _ := st.Read(a4)
	st.Write(a2, l4)
	st.Write(a4, l2)
	bad := tr.VerifyAll(st, root, st.Addrs())
	idx := map[uint64]bool{}
	for _, m := range bad {
		if m.Level == 0 {
			idx[m.Index] = true
		}
	}
	if !idx[2] || !idx[4] {
		t.Fatalf("splice not located at both counters: %v", bad)
	}
}

func TestSetParentSlotRoundTrip(t *testing.T) {
	tr, _ := tree(t, 64<<20)
	var parent, child mem.Line
	child[5] = 42
	tr.SetParentSlot(&parent, 2, child)
	if !tr.VerifyChild(parent, 2, child) {
		t.Fatal("SetParentSlot/VerifyChild round-trip failed")
	}
	child[5] = 43
	if tr.VerifyChild(parent, 2, child) {
		t.Fatal("VerifyChild accepted modified child")
	}
}

func TestNodeContentBeyondPopulatedRangeIsDefault(t *testing.T) {
	tr, st := tree(t, 64<<20)
	lay := tr.Layout()
	got := tr.NodeContent(st, 1, lay.LevelNodes(1)+10)
	if got != tr.DefaultNode(1) {
		t.Fatal("out-of-range node content not default")
	}
}

func TestRandomizedRebuildConsistency(t *testing.T) {
	tr, st := tree(t, 16<<20)
	rng := rand.New(rand.NewSource(42))
	leaves := tr.Layout().LevelNodes(0)
	for i := 0; i < 50; i++ {
		writeCounter(tr, st, rng.Uint64()%leaves, 1+rng.Intn(4))
	}
	root := persistTree(tr, st)
	if bad := tr.VerifyAll(st, root, st.Addrs()); len(bad) != 0 {
		t.Fatalf("randomized tree has %d mismatches: %v", len(bad), bad[0])
	}
	// Tamper one random written counter; exactly that leaf (and possibly
	// only it) must be flagged at level 0.
	var counterAddrs []mem.Addr
	for _, a := range st.Addrs() {
		if tr.Layout().RegionOf(a) == mem.RegionCounter {
			counterAddrs = append(counterAddrs, a)
		}
	}
	victim := counterAddrs[rng.Intn(len(counterAddrs))]
	l, _ := st.Read(victim)
	l[20] ^= 0x10
	st.Write(victim, l)
	bad := tr.VerifyAll(st, root, st.Addrs())
	if len(bad) == 0 {
		t.Fatal("tampered counter not detected")
	}
	for _, m := range bad {
		if m.Level == 0 && m.Addr != victim {
			t.Fatalf("innocent counter flagged: %v (victim %#x)", m, uint64(victim))
		}
	}
}

func TestTinyTreeGeometry(t *testing.T) {
	// A capacity so small the counter lines hang directly off the root.
	tr, st := tree(t, 4*mem.PageSize)
	lay := tr.Layout()
	if lay.InternalLevels != 0 {
		t.Skipf("layout has %d internal levels; test targets 0", lay.InternalLevels)
	}
	writeCounter(tr, st, 1, 2)
	root := persistTree(tr, st)
	if bad := tr.VerifyAll(st, root, st.Addrs()); len(bad) != 0 {
		t.Fatalf("tiny tree mismatches: %v", bad)
	}
	writeCounter(tr, st, 1, 1)
	if bad := tr.VerifyAll(st, root, st.Addrs()); len(bad) == 0 {
		t.Fatal("stale root accepted in tiny tree")
	}
}

func TestAnyBitFlipDetectedProperty(t *testing.T) {
	// Property: flipping any single bit of any persisted counter or tree
	// line breaks verification somewhere.
	tr, st := tree(t, 16<<20)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 12; i++ {
		writeCounter(tr, st, rng.Uint64()%tr.Layout().LevelNodes(0), 1+rng.Intn(3))
	}
	root := persistTree(tr, st)
	addrs := st.Addrs()
	for trial := 0; trial < 60; trial++ {
		victim := addrs[rng.Intn(len(addrs))]
		l, _ := st.Read(victim)
		bit := rng.Intn(mem.LineSize * 8)
		l[bit/8] ^= 1 << (bit % 8)
		mut := st.Clone()
		mut.Write(victim, l)
		if bad := tr.VerifyAll(mut, root, mut.Addrs()); len(bad) == 0 {
			t.Fatalf("bit flip at %#x bit %d undetected", uint64(victim), bit)
		}
	}
}

func TestRebuildIdempotentProperty(t *testing.T) {
	// Property: rebuilding from an already-consistent image reproduces
	// the identical tree and root.
	tr, st := tree(t, 16<<20)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		writeCounter(tr, st, rng.Uint64()%tr.Layout().LevelNodes(0), 1+rng.Intn(5))
	}
	root := persistTree(tr, st)
	var counters []mem.Addr
	for _, a := range st.Addrs() {
		if tr.Layout().RegionOf(a) == mem.RegionCounter {
			counters = append(counters, a)
		}
	}
	nodes, root2 := tr.Rebuild(st, counters)
	if root2 != root {
		t.Fatal("rebuild of consistent image changed the root")
	}
	for a, n := range nodes {
		cur, _ := st.Read(a)
		if cur != n {
			t.Fatalf("rebuild changed node %#x", uint64(a))
		}
	}
}

// spread runs SpreadDeferred over leaves against the pre-drain nodes in
// st and collects what it emits: the recomputed nodes by address, and
// copies of the per-level counts and the top-level set. It fails the
// test when a node is emitted twice or a level is emitted out of index
// order.
func spread(t *testing.T, tr *Tree, st *mem.Store, sc *SpreadScratch, leaves []SpreadNode) (map[mem.Addr]mem.Line, []int, []SpreadNode) {
	t.Helper()
	lay := tr.Layout()
	nodes := map[mem.Addr]mem.Line{}
	var last mem.Addr
	counts, top := tr.SpreadDeferred(leaves, sc, func(a mem.Addr) mem.Line {
		level, idx := lay.NodeAt(a)
		return tr.NodeContent(st, level, idx) // st still holds the pre-drain nodes
	}, func(a mem.Addr, n mem.Line) {
		if _, dup := nodes[a]; dup {
			t.Fatalf("node %#x recomputed twice", uint64(a))
		}
		// Levels are laid out bottom-up in the tree region, so level by
		// level and ascending within a level is ascending overall.
		if a <= last {
			t.Fatalf("node %#x emitted after %#x", uint64(a), uint64(last))
		}
		nodes[a], last = n, a
	})
	return nodes, slices.Clone(counts), slices.Clone(top)
}

// TestSpreadDeferredMatchesRebuild checks the drainer's incremental
// walk against the from-scratch one: after a seeded set of counter
// lines changes under a persisted tree, SpreadDeferred must recompute
// exactly the ancestors of the dirty leaves, to the content Rebuild
// derives from all leaves, and folding its top level into the old root
// must give the root RootNode reads back.
func TestSpreadDeferredMatchesRebuild(t *testing.T) {
	tr, st := tree(t, 64<<20)
	lay := tr.Layout()
	rng := rand.New(rand.NewSource(11))
	total := lay.LevelNodes(0)
	for i := 0; i < 150; i++ {
		writeCounter(tr, st, rng.Uint64()%total, 1+rng.Intn(3))
	}
	root := persistTree(tr, st)

	// Dirty set: a dense run (siblings coalesce into shared parents), a
	// scatter over the whole leaf range, and rewrites of lines the
	// persisted tree already covers.
	dirty := map[uint64]bool{}
	for i := uint64(0); i < 24; i++ {
		dirty[100+i] = true
	}
	for i := 0; i < 40; i++ {
		dirty[rng.Uint64()%total] = true
	}
	for _, a := range writtenCounters(tr, st)[:30] {
		dirty[lay.CounterLineIndex(a)] = true
	}
	var leaves []SpreadNode
	for idx := range dirty { // map order: the walk must not depend on it
		writeCounter(tr, st, idx, 1+int(idx%3))
		l, _ := st.Read(lay.CounterLineAddr(idx))
		leaves = append(leaves, SpreadNode{Index: idx, Line: l})
	}

	nodes, counts, top := spread(t, tr, st, &SpreadScratch{}, leaves)

	// Per-level counts are the distinct ancestors of the dirty leaves.
	level := dirty
	for l := 0; l <= lay.TopLevel(); l++ {
		if counts[l] != len(level) {
			t.Fatalf("counts[%d] = %d, want %d", l, counts[l], len(level))
		}
		if l == lay.TopLevel() {
			break
		}
		parents := map[uint64]bool{}
		for idx := range level {
			_, pi, _ := lay.ParentOf(l, idx)
			parents[pi] = true
			if _, ok := nodes[lay.NodeAddr(l+1, pi)]; !ok {
				t.Fatalf("ancestor (%d,%d) of a dirty leaf was not recomputed", l+1, pi)
			}
		}
		level = parents
	}
	if len(top) != len(level) {
		t.Fatalf("top set has %d nodes, want %d", len(top), len(level))
	}

	wantNodes, wantRoot := tr.Rebuild(st, writtenCounters(tr, st))
	for a, n := range wantNodes {
		if got, ok := nodes[a]; ok {
			if got != n {
				t.Fatalf("recomputed node %#x differs from Rebuild", uint64(a))
			}
		} else if old, _ := st.Read(a); old != n {
			t.Fatalf("node %#x changed but was not recomputed", uint64(a))
		}
	}
	for a := range nodes {
		if _, ok := wantNodes[a]; !ok {
			t.Fatalf("recomputed node %#x is not in the rebuilt tree", uint64(a))
		}
		st.Write(a, nodes[a])
	}
	for _, n := range top {
		if n.Line != nodes[lay.NodeAddr(lay.TopLevel(), n.Index)] {
			t.Fatalf("top node %d differs from the emitted node", n.Index)
		}
		tr.SetParentSlot(&root, int(n.Index), n.Line)
	}
	if root != wantRoot || root != tr.RootNode(st) {
		t.Fatal("folded root differs from Rebuild / RootNode")
	}
}

// TestSpreadDeferredOrderIndependent is the property the drainer's
// determinism rests on: the same dirty leaves, handed over in any order
// (the dirty address queue's insertion order is the order write-backs
// happened to arrive in) and through a scratch of any history, yield
// the same nodes, per-level counts, top set and root. It runs on a tree
// whose counter lines hang off the TCB root, on one with a single
// internal level, and on a seven-level one.
func TestSpreadDeferredOrderIndependent(t *testing.T) {
	for _, tc := range []struct {
		capacity uint64
		levels   int
	}{{16 << 10, 0}, {64 << 10, 1}, {256 << 20, 7}} {
		tr, st := tree(t, tc.capacity)
		lay := tr.Layout()
		if lay.InternalLevels != tc.levels {
			t.Fatalf("capacity %d has %d internal levels, want %d", tc.capacity, lay.InternalLevels, tc.levels)
		}
		rng := rand.New(rand.NewSource(int64(tc.levels) + 5))
		total := lay.LevelNodes(0)
		for i := 0; i < 40; i++ {
			writeCounter(tr, st, rng.Uint64()%total, 1+rng.Intn(3))
		}
		root := persistTree(tr, st)

		dirty := map[uint64]bool{}
		for i := 0; i < 48; i++ {
			dirty[rng.Uint64()%total] = true
		}
		var leaves []SpreadNode
		for idx := range dirty {
			writeCounter(tr, st, idx, 2)
			l, _ := st.Read(lay.CounterLineAddr(idx))
			leaves = append(leaves, SpreadNode{Index: idx, Line: l})
		}

		fold := func(top []SpreadNode) mem.Line {
			r := root
			for _, n := range top {
				tr.SetParentSlot(&r, int(n.Index), n.Line)
			}
			return r
		}
		var sc SpreadScratch // shared: a run inherits the previous run's buffers
		wantNodes, wantCounts, wantTop := spread(t, tr, st, &sc, slices.Clone(leaves))
		if len(wantCounts) != lay.TopLevel()+1 || wantCounts[0] != len(dirty) {
			t.Fatalf("levels=%d: counts = %v for %d dirty leaves", tc.levels, wantCounts, len(dirty))
		}
		for trial := 0; trial < 20; trial++ {
			rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
			nodes, counts, top := spread(t, tr, st, &sc, slices.Clone(leaves))
			if !maps.Equal(nodes, wantNodes) || !slices.Equal(counts, wantCounts) || !slices.Equal(top, wantTop) {
				t.Fatalf("levels=%d trial %d: result depends on the order of the leaves", tc.levels, trial)
			}
			if fold(top) != fold(wantTop) {
				t.Fatalf("levels=%d trial %d: root depends on the order of the leaves", tc.levels, trial)
			}
		}
		// The folded root is the root of the image with the nodes applied.
		for a, n := range wantNodes {
			st.Write(a, n)
		}
		if fold(wantTop) != tr.RootNode(st) {
			t.Fatalf("levels=%d: folded root differs from RootNode", tc.levels)
		}
	}
}
