// Package bmt implements the Bonsai Merkle Tree over the counter region:
// a 4-ary tree whose leaves are 64 B counter lines and whose internal
// nodes each hold four 128-bit counter HMACs, one per child. The single
// top node — the HMACs of the highest in-NVM level — is the root held in
// a TCB register.
//
// The tree operates over any line reader (the live NVM device, a crash
// image, or a cache-overlaid view), never storing state of its own, so
// the same code serves runtime verification, the drainer's deferred
// spreading, and post-crash reconstruction. Default (never-written)
// subtrees are uniform per level and memoized, which makes sparse images
// exact without materializing 4M leaves.
package bmt

import (
	"cmp"
	"fmt"
	"slices"

	"ccnvm/internal/mem"
	"ccnvm/internal/seccrypto"
)

// Reader supplies line content by address, reporting whether the line
// was ever written. Absent lines are defaults (all zero for counters,
// memoized default HMAC vectors for internal nodes).
type Reader interface {
	Read(a mem.Addr) (mem.Line, bool)
}

// ReaderFunc adapts a function to the Reader interface.
type ReaderFunc func(a mem.Addr) (mem.Line, bool)

// Read implements Reader.
func (f ReaderFunc) Read(a mem.Addr) (mem.Line, bool) { return f(a) }

// Tree binds a layout and a crypto engine into Merkle-tree logic.
type Tree struct {
	lay      *mem.Layout
	cry      *seccrypto.Engine
	defaults []mem.Line // default node content per level; [0] is the zero counter line
}

// New builds the tree helper and precomputes the per-level default
// nodes: level k's default holds four HMACs of level k-1's default.
func New(lay *mem.Layout, cry *seccrypto.Engine) *Tree {
	t := &Tree{lay: lay, cry: cry}
	t.defaults = make([]mem.Line, lay.InternalLevels+1)
	for k := 1; k <= lay.InternalLevels; k++ {
		h := cry.NodeHMAC(t.defaults[k-1])
		for s := 0; s < mem.HMACsPerLine; s++ {
			seccrypto.PutHMAC(&t.defaults[k], s, h)
		}
	}
	return t
}

// Layout returns the bound address-space layout.
func (t *Tree) Layout() *mem.Layout { return t.lay }

// DefaultNode returns the content of a never-written node at the given
// level (0 = counter line).
func (t *Tree) DefaultNode(level int) mem.Line {
	return t.defaults[level]
}

// NodeContent reads the node at (level, idx) from r, substituting the
// level default when absent or beyond the populated node count.
func (t *Tree) NodeContent(r Reader, level int, idx uint64) mem.Line {
	if idx >= t.lay.LevelNodes(level) {
		return t.defaults[level]
	}
	var a mem.Addr
	if level == 0 {
		a = t.lay.CounterLineAddr(idx)
	} else {
		a = t.lay.NodeAddr(level, idx)
	}
	if l, ok := r.Read(a); ok {
		return l
	}
	return t.defaults[level]
}

// RootNode assembles the TCB root node implied by r: the HMACs of the
// top in-NVM level's nodes, with unused slots holding default HMACs.
func (t *Tree) RootNode(r Reader) mem.Line {
	var root mem.Line
	top := t.lay.TopLevel()
	for s := 0; s < mem.HMACsPerLine; s++ {
		child := t.NodeContent(r, top, uint64(s))
		seccrypto.PutHMAC(&root, s, t.cry.NodeHMAC(child))
	}
	return root
}

// SetParentSlot recomputes the HMAC of child and stores it in slot s of
// parent. This is the incremental path-update primitive the engines use
// when spreading a counter update toward the root.
func (t *Tree) SetParentSlot(parent *mem.Line, s int, child mem.Line) {
	seccrypto.PutHMAC(parent, s, t.cry.NodeHMAC(child))
}

// VerifyChild checks that slot s of parent matches child's HMAC.
func (t *Tree) VerifyChild(parent mem.Line, s int, child mem.Line) bool {
	return seccrypto.GetHMAC(parent, s) == t.cry.NodeHMAC(child)
}

// Mismatch reports one parent/child verification failure: the node whose
// content does not match the HMAC its parent (or the TCB root, for
// Level == TopLevel) stores for it. Located replay attacks surface as
// mismatches.
type Mismatch struct {
	Level int      // level of the child node (0 = counter line)
	Index uint64   // node index within the level
	Addr  mem.Addr // NVM address of the child
}

// String renders the mismatch for reports.
func (m Mismatch) String() string {
	return fmt.Sprintf("tree mismatch at level %d index %d (addr %#x)", m.Level, m.Index, uint64(m.Addr))
}

// VerifyAll checks the whole tree image in r against the given TCB root
// node, returning every parent/child mismatch. It checks, for every
// written counter or tree line, the upward link (its HMAC against the
// slot its parent stores) and, for written internal nodes, all four
// downward links; absent relatives take level defaults. An empty result
// means the in-NVM tree is internally consistent and matches root.
func (t *Tree) VerifyAll(r Reader, root mem.Line, addrs []mem.Addr) []Mismatch {
	var bad []Mismatch
	seen := make(map[mem.Addr]bool)
	report := func(level int, idx uint64, a mem.Addr) {
		if !seen[a] {
			seen[a] = true
			bad = append(bad, Mismatch{Level: level, Index: idx, Addr: a})
		}
	}
	for _, a := range addrs {
		var level int
		var idx uint64
		switch t.lay.RegionOf(a) {
		case mem.RegionCounter:
			level, idx = 0, t.lay.CounterLineIndex(a)
		case mem.RegionTree:
			level, idx = t.lay.NodeAt(a)
		default:
			continue
		}
		content := t.NodeContent(r, level, idx)
		// Upward link.
		var parent mem.Line
		var slot int
		if level == t.lay.TopLevel() {
			parent, slot = root, int(idx)
		} else {
			pl, pi, s := t.lay.ParentOf(level, idx)
			parent, slot = t.NodeContent(r, pl, pi), s
		}
		if !t.VerifyChild(parent, slot, content) {
			report(level, idx, a)
		}
		// Downward links for internal nodes.
		if level >= 1 {
			for s := 0; s < mem.HMACsPerLine; s++ {
				cl, ci := t.lay.ChildOf(level, idx, s)
				child := t.NodeContent(r, cl, ci)
				if !t.VerifyChild(content, s, child) {
					var ca mem.Addr
					if cl == 0 {
						ca = t.lay.CounterLineAddr(ci)
					} else {
						ca = t.lay.NodeAddr(cl, ci)
					}
					report(cl, ci, ca)
				}
			}
		}
	}
	return bad
}

// Rebuild recomputes every internal node implied by the given set of
// written counter-line addresses, reading counter content from r and
// ignoring any tree nodes present in r. counterAddrs must list every
// written counter line; lines it omits are treated as default (zero).
// It returns the rebuilt internal nodes keyed by NVM address, plus the
// implied root node. Recovery uses it to reconstruct the tree from
// recovered counters (paper §4.4 step 4).
func (t *Tree) Rebuild(r Reader, counterAddrs []mem.Addr) (map[mem.Addr]mem.Line, mem.Line) {
	nodes := make(map[mem.Addr]mem.Line)
	// Seed the affected set with the leaf indices.
	affected := make(map[uint64]bool)
	for _, a := range counterAddrs {
		if t.lay.RegionOf(a) == mem.RegionCounter {
			affected[t.lay.CounterLineIndex(a)] = true
		}
	}
	content := func(level int, idx uint64) mem.Line {
		if level == 0 {
			return t.NodeContent(r, 0, idx)
		}
		if n, ok := nodes[t.lay.NodeAddr(level, idx)]; ok {
			return n
		}
		return t.defaults[level]
	}
	for level := 0; level < t.lay.TopLevel(); level++ {
		parents := make(map[uint64]bool)
		for idx := range affected {
			_, pi, _ := t.lay.ParentOf(level, idx)
			parents[pi] = true
		}
		for pi := range parents {
			node := t.defaults[level+1]
			for s := 0; s < mem.HMACsPerLine; s++ {
				_, ci := t.lay.ChildOf(level+1, pi, s)
				if affected[ci] {
					t.SetParentSlot(&node, s, content(level, ci))
				}
			}
			nodes[t.lay.NodeAddr(level+1, pi)] = node
		}
		affected = parents
	}
	// Assemble the root from the (possibly rebuilt) top level.
	var root mem.Line
	top := t.lay.TopLevel()
	for s := 0; s < mem.HMACsPerLine; s++ {
		child := t.defaults[top]
		if uint64(s) < t.lay.LevelNodes(top) {
			child = content(top, uint64(s))
		}
		seccrypto.PutHMAC(&root, s, t.cry.NodeHMAC(child))
	}
	return nodes, root
}

// SpreadNode is one node of SpreadDeferred's working set: its index
// within its tree level and its content.
type SpreadNode struct {
	Index uint64
	Line  mem.Line
}

// SpreadScratch is SpreadDeferred's working memory: two level buffers
// that swap roles as the walk climbs, and the per-level counts. The
// caller owns it and passes the same one to every drain, so once the
// buffers have grown to an epoch's size a drain allocates nothing. The
// zero value is ready.
type SpreadScratch struct {
	levels [2][]SpreadNode
	counts []int
}

// SpreadDeferred performs the drainer's deferred spreading (cc-NVM
// §4.3): starting from the dirty counter leaves (distinct indices, any
// order, new content), it recomputes every affected internal node
// exactly once, bottom-up, coalescing same-node updates. lookup
// supplies the pre-drain content of an internal node the first time a
// level touches it; emit receives each recomputed internal node, level
// by level and in index order within a level.
//
// A level is held as a slice sorted by index. leaves is sorted in
// place, and since a parent's index is its child's divided by the
// arity, walking a sorted level produces its parents already sorted:
// a child either belongs to the parent appended last or starts a new
// one, so no lookup structure is needed and the order of every hash,
// lookup and emit is a function of the dirty set alone.
//
// It returns the per-level affected counts (counts[l] nodes were hashed
// at level l, for l in 0..TopLevel; the last entry is the top-level set
// folded into the root) for the caller's HMAC-unit timing model, and
// the top-level nodes for the root fold. Both live in s (or are leaves
// itself, when the counter lines are the root's children) and are valid
// until the next call with the same scratch.
func (t *Tree) SpreadDeferred(leaves []SpreadNode, s *SpreadScratch, lookup func(mem.Addr) mem.Line, emit func(mem.Addr, mem.Line)) (counts []int, top []SpreadNode) {
	slices.SortFunc(leaves, func(a, b SpreadNode) int { return cmp.Compare(a.Index, b.Index) })
	s.counts = append(s.counts[:0], make([]int, t.lay.TopLevel()+1)...)
	affected := leaves
	for level := 0; level < t.lay.TopLevel(); level++ {
		parents := s.levels[level%2][:0]
		for i := range affected {
			_, pi, slot := t.lay.ParentOf(level, affected[i].Index)
			if n := len(parents); n == 0 || parents[n-1].Index != pi {
				parents = append(parents, SpreadNode{Index: pi, Line: lookup(t.lay.NodeAddr(level+1, pi))})
			}
			t.SetParentSlot(&parents[len(parents)-1].Line, slot, affected[i].Line)
		}
		for i := range parents {
			emit(t.lay.NodeAddr(level+1, parents[i].Index), parents[i].Line)
		}
		s.counts[level] = len(affected)
		s.levels[level%2] = parents
		affected = parents
	}
	s.counts[t.lay.TopLevel()] = len(affected)
	return s.counts, affected
}
