// Package mem provides the physical-memory primitives shared by every
// layer of the simulator: 64-byte cache lines, physical addresses, and
// the address-space layout that places encrypted data, encryption
// counters, data HMACs and Merkle-tree nodes in one flat physical
// address space, mirroring how a secure memory controller carves up an
// NVM DIMM.
package mem

import "fmt"

// LineSize is the size of a cache line / memory line in bytes. The whole
// system (caches, NVM, security metadata) operates on 64-byte lines, as
// in the paper's configuration.
const LineSize = 64

// PageSize is the size of a data page. Counters for all blocks of one
// page share a single counter line (the split-counter organization).
const PageSize = 4096

// BlocksPerPage is the number of 64 B data blocks per 4 KB page, and
// equally the number of per-block minor counters held in one counter
// line.
const BlocksPerPage = PageSize / LineSize

// HMACSize is the size in bytes of a truncated HMAC codeword (128 bits),
// used both for data HMACs and for Merkle-tree counter HMACs.
const HMACSize = 16

// HMACsPerLine is how many 128-bit HMACs fit in one 64 B line. It is
// also the arity of the Bonsai Merkle Tree: each tree node stores one
// HMAC per child, so a 64 B node has four children.
const HMACsPerLine = LineSize / HMACSize

// Addr is a physical line-aligned address. All addresses handed between
// components are line aligned; use Align to enforce that.
type Addr uint64

// Align rounds a down to the containing line boundary.
func Align(a Addr) Addr { return a &^ (LineSize - 1) }

// Line is one 64-byte memory line, passed by value.
type Line [LineSize]byte

// Region identifies which part of the physical address space an address
// falls into.
type Region int

// Address-space regions, in physical order.
const (
	RegionData Region = iota
	RegionCounter
	RegionHMAC
	RegionTree
	RegionInvalid
)

// String implements fmt.Stringer for diagnostics.
func (r Region) String() string {
	switch r {
	case RegionData:
		return "data"
	case RegionCounter:
		return "counter"
	case RegionHMAC:
		return "hmac"
	case RegionTree:
		return "tree"
	default:
		return "invalid"
	}
}

// Layout describes how the physical address space is carved into the
// data region and the three security-metadata regions. All bases and
// sizes are in bytes and line aligned.
//
// The layout places, in order: encrypted data, counter lines (one 64 B
// line per 4 KB data page), data HMAC lines (four 128-bit HMACs per
// line), and the internal levels of the Bonsai Merkle Tree from level 1
// (just above the counter leaves) upward. The single top node's HMAC (the
// root) lives in a TCB register, not in NVM.
type Layout struct {
	DataBytes    uint64 // capacity of the protected data region
	CounterBase  Addr
	CounterBytes uint64
	HMACBase     Addr
	HMACBytes    uint64
	TreeBase     Addr
	TreeBytes    uint64

	// Levels is the number of Merkle-tree levels counted the way the
	// paper counts them: the counter (leaf) level, the internal levels
	// stored in NVM, and the root held in the TCB. A 16 GB NVM yields 12.
	Levels int

	// InternalLevels is the number of tree levels stored in NVM
	// (Levels minus the counter level and the TCB root).
	InternalLevels int

	// levelBase[k] for k in [1, InternalLevels] is the base address of
	// internal level k; levelNodes[k] its node count. Level
	// InternalLevels has exactly one node (the top NVM node).
	levelBase  []Addr
	levelNodes []uint64
}

// NewLayout builds the layout for a data region of dataBytes bytes.
// dataBytes must be a positive multiple of PageSize.
func NewLayout(dataBytes uint64) (*Layout, error) {
	if dataBytes == 0 || dataBytes%PageSize != 0 {
		return nil, fmt.Errorf("mem: data capacity %d is not a positive multiple of %d", dataBytes, PageSize)
	}
	l := &Layout{DataBytes: dataBytes}
	counterLines := dataBytes / PageSize
	l.CounterBase = Addr(dataBytes)
	l.CounterBytes = counterLines * LineSize
	l.HMACBase = l.CounterBase + Addr(l.CounterBytes)
	l.HMACBytes = dataBytes / LineSize * HMACSize
	l.TreeBase = l.HMACBase + Addr(l.HMACBytes)

	// Internal tree levels: level k has ceil(level[k-1] / arity) nodes,
	// starting from the counter lines as level 0. The first level with a
	// single node is the root node, which lives in a TCB register rather
	// than NVM, so it is not given an address here. For 16 GiB this
	// yields 10 internal NVM levels, matching the paper's "10 internal
	// path nodes and the leaf-level counter are updated in the NVM".
	l.levelBase = []Addr{0} // index 0 unused; counters are level 0
	l.levelNodes = []uint64{counterLines}
	base := l.TreeBase
	nodes := counterLines
	for {
		nodes = (nodes + HMACsPerLine - 1) / HMACsPerLine
		if nodes <= 1 {
			break
		}
		l.levelBase = append(l.levelBase, base)
		l.levelNodes = append(l.levelNodes, nodes)
		base += Addr(nodes * LineSize)
	}
	l.InternalLevels = len(l.levelNodes) - 1
	l.TreeBytes = uint64(base - l.TreeBase)
	// Counter level + internal NVM levels + TCB root node.
	l.Levels = l.InternalLevels + 2
	return l, nil
}

// MustLayout is NewLayout that panics on error, for tests and examples
// with constant capacities.
func MustLayout(dataBytes uint64) *Layout {
	l, err := NewLayout(dataBytes)
	if err != nil {
		panic(err)
	}
	return l
}

// TotalBytes is the full physical extent, data plus all metadata.
func (l *Layout) TotalBytes() uint64 {
	return uint64(l.TreeBase) + l.TreeBytes
}

// RegionOf classifies a line address.
func (l *Layout) RegionOf(a Addr) Region {
	switch {
	case uint64(a) < l.DataBytes:
		return RegionData
	case a < l.HMACBase:
		return RegionCounter
	case a < l.TreeBase:
		return RegionHMAC
	case uint64(a) < l.TotalBytes():
		return RegionTree
	default:
		return RegionInvalid
	}
}

// Bounds returns the half-open address range [lo, hi) of region r, in
// the form Store.Range takes. RegionInvalid has no extent.
func (l *Layout) Bounds(r Region) (lo, hi Addr) {
	switch r {
	case RegionData:
		return 0, Addr(l.DataBytes)
	case RegionCounter:
		return l.CounterBase, l.HMACBase
	case RegionHMAC:
		return l.HMACBase, l.TreeBase
	case RegionTree:
		return l.TreeBase, Addr(l.TotalBytes())
	default:
		return 0, 0
	}
}

// CounterLineOf returns the address of the counter line covering the
// 4 KB page that contains data address a.
func (l *Layout) CounterLineOf(a Addr) Addr {
	page := uint64(a) / PageSize
	return l.CounterBase + Addr(page*LineSize)
}

// CounterSlotOf returns the minor-counter slot index (0..63) of data
// block a within its counter line.
func (l *Layout) CounterSlotOf(a Addr) int {
	return int(uint64(a) % PageSize / LineSize)
}

// CounterLineIndex returns the leaf index (level-0 node index) of a
// counter-region line address.
func (l *Layout) CounterLineIndex(a Addr) uint64 {
	return uint64(a-l.CounterBase) / LineSize
}

// CounterLineAddr returns the address of the counter line with leaf
// index idx.
func (l *Layout) CounterLineAddr(idx uint64) Addr {
	return l.CounterBase + Addr(idx*LineSize)
}

// HMACLineOf returns the address of the line holding the data HMAC of
// data block a, and the slot (0..3) within that line.
func (l *Layout) HMACLineOf(a Addr) (Addr, int) {
	block := uint64(a) / LineSize
	return l.HMACBase + Addr(block/HMACsPerLine*LineSize), int(block % HMACsPerLine)
}

// NodeAddr returns the address of internal tree node idx at level k
// (1 <= k <= InternalLevels).
func (l *Layout) NodeAddr(level int, idx uint64) Addr {
	if level < 1 || level > l.InternalLevels {
		panic(fmt.Sprintf("mem: tree level %d out of range [1,%d]", level, l.InternalLevels))
	}
	if idx >= l.levelNodes[level] {
		panic(fmt.Sprintf("mem: tree node %d out of range at level %d (max %d)", idx, level, l.levelNodes[level]))
	}
	return l.levelBase[level] + Addr(idx*LineSize)
}

// NodeAt inverts NodeAddr: it returns the level and index of a
// tree-region address.
func (l *Layout) NodeAt(a Addr) (level int, idx uint64) {
	for k := 1; k <= l.InternalLevels; k++ {
		end := l.levelBase[k] + Addr(l.levelNodes[k]*LineSize)
		if a >= l.levelBase[k] && a < end {
			return k, uint64(a-l.levelBase[k]) / LineSize
		}
	}
	panic(fmt.Sprintf("mem: address %#x is not a tree node", uint64(a)))
}

// LevelNodes returns the number of nodes at tree level k, where level 0
// is the counter (leaf) level.
func (l *Layout) LevelNodes(level int) uint64 {
	if level < 0 || level > l.InternalLevels {
		panic(fmt.Sprintf("mem: tree level %d out of range [0,%d]", level, l.InternalLevels))
	}
	return l.levelNodes[level]
}

// ParentOf returns the tree position of the parent of the node at
// (level, idx), and the child slot (0..3) the node occupies in the
// parent. Level 0 is the counter level. Nodes at the top NVM level
// (TopLevel) are children of the TCB root node; ParentOf must not be
// called for them — their slot in the root is simply their index.
func (l *Layout) ParentOf(level int, idx uint64) (plevel int, pidx uint64, slot int) {
	if level >= l.InternalLevels {
		panic("mem: top NVM level's parent is the TCB root node")
	}
	return level + 1, idx / HMACsPerLine, int(idx % HMACsPerLine)
}

// TopLevel is the highest tree level stored in NVM: InternalLevels when
// the tree has internal levels, otherwise 0 (the counter lines hang
// directly off the TCB root node).
func (l *Layout) TopLevel() int { return l.InternalLevels }

// RootChildren is the number of NVM nodes that are direct children of
// the TCB root node: the node count of the top NVM level (at most 4).
func (l *Layout) RootChildren() int { return int(l.levelNodes[l.InternalLevels]) }

// ChildOf returns the position of child slot s of internal node
// (level, idx). The children of level-1 nodes are counter lines
// (level 0). The returned index may exceed the populated node count at
// the child level when the level sizes are not exact powers of the
// arity; callers treat such children as default (all-zero) nodes.
func (l *Layout) ChildOf(level int, idx uint64, s int) (clevel int, cidx uint64) {
	if level < 1 || level > l.InternalLevels {
		panic(fmt.Sprintf("mem: tree level %d out of range [1,%d]", level, l.InternalLevels))
	}
	return level - 1, idx*HMACsPerLine + uint64(s)
}

// PathFrom appends to dst the addresses of the internal tree nodes on
// the path from the counter line with leaf index idx up to and
// including the top NVM node — first the level-1 parent, then level 2,
// and so on — and returns the extended slice. A caller on a hot path
// passes a reused buffer and allocates nothing.
func (l *Layout) PathFrom(dst []Addr, leafIdx uint64) []Addr {
	level, idx := 0, leafIdx
	for level < l.InternalLevels {
		level, idx, _ = l.ParentOf(level, idx)
		dst = append(dst, l.NodeAddr(level, idx))
	}
	return dst
}
