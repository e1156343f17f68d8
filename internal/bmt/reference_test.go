package bmt

import (
	"math/rand"
	"testing"

	"ccnvm/internal/mem"
	"ccnvm/internal/seccrypto"
)

// TestTreeMatchesReferenceEngine drives the Merkle tree on NewEngine
// and on the crypto/hmac reference engine over the same randomized
// counter workload: rebuilt nodes, roots, RootNode and VerifyAll
// outcomes must be identical, default subtrees included.
func TestTreeMatchesReferenceEngine(t *testing.T) {
	lay := mem.MustLayout(64 << 20)
	tree := New(lay, seccrypto.MustEngine(seccrypto.DefaultKeys()))
	refCry, err := seccrypto.NewReferenceEngine(seccrypto.DefaultKeys())
	if err != nil {
		t.Fatal(err)
	}
	goldenTree := New(lay, refCry)

	st := &mem.Store{}
	rng := rand.New(rand.NewSource(7))
	leaves := lay.LevelNodes(0)
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			writeCounter(tree, st, uint64(rng.Intn(int(leaves))), 1+rng.Intn(3))
		}
		var counters []mem.Addr
		for _, a := range st.Addrs() {
			if lay.RegionOf(a) == mem.RegionCounter {
				counters = append(counters, a)
			}
		}
		nodes, root := tree.Rebuild(st, counters)
		goldenNodes, goldenRoot := goldenTree.Rebuild(st, counters)
		if root != goldenRoot {
			t.Fatalf("round %d: root diverges from the reference engine's", round)
		}
		if len(nodes) != len(goldenNodes) {
			t.Fatalf("round %d: node count %d vs %d", round, len(nodes), len(goldenNodes))
		}
		for a, n := range nodes {
			if goldenNodes[a] != n {
				t.Fatalf("round %d: node %#x diverges", round, a)
			}
		}
		for a, n := range nodes {
			st.Write(a, n)
		}
		if got := tree.RootNode(st); got != goldenTree.RootNode(st) {
			t.Fatalf("round %d: RootNode diverges", round)
		}
		if bad := tree.VerifyAll(st, root, st.Addrs()); len(bad) != 0 {
			t.Fatalf("round %d: verify flagged %v", round, bad)
		}
		if bad := goldenTree.VerifyAll(st, root, st.Addrs()); len(bad) != 0 {
			t.Fatalf("round %d: reference verify flagged %v", round, bad)
		}
	}
}
