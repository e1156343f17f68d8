package mem

import (
	"slices"
	"testing"
	"testing/quick"
)

const gib = 1 << 30

func TestLayoutPaperGeometry(t *testing.T) {
	// The paper's configuration: 16 GB NVM, 128-bit HMACs => 4-ary tree,
	// "12 levels" counted as counter level + 10 internal NVM levels + TCB
	// root.
	l := MustLayout(16 * gib)
	if l.Levels != 12 {
		t.Errorf("16 GiB layout: Levels = %d, want 12", l.Levels)
	}
	if l.InternalLevels != 10 {
		t.Errorf("16 GiB layout: InternalLevels = %d, want 10", l.InternalLevels)
	}
	if got, want := l.LevelNodes(0), uint64(16*gib/PageSize); got != want {
		t.Errorf("counter lines = %d, want %d", got, want)
	}
	if got := l.RootChildren(); got != 4 {
		t.Errorf("root has %d NVM children, want 4", got)
	}
}

func TestLayoutRejectsBadCapacity(t *testing.T) {
	for _, c := range []uint64{0, 100, PageSize - 1, PageSize + 1} {
		if _, err := NewLayout(c); err == nil {
			t.Errorf("NewLayout(%d) succeeded, want error", c)
		}
	}
}

func TestLayoutRegions(t *testing.T) {
	l := MustLayout(1 * gib)
	cases := []struct {
		a Addr
		r Region
	}{
		{0, RegionData},
		{Addr(l.DataBytes - LineSize), RegionData},
		{l.CounterBase, RegionCounter},
		{l.HMACBase - LineSize, RegionCounter},
		{l.HMACBase, RegionHMAC},
		{l.TreeBase - LineSize, RegionHMAC},
		{l.TreeBase, RegionTree},
		{Addr(l.TotalBytes() - LineSize), RegionTree},
		{Addr(l.TotalBytes()), RegionInvalid},
	}
	for _, c := range cases {
		if got := l.RegionOf(c.a); got != c.r {
			t.Errorf("RegionOf(%#x) = %v, want %v", uint64(c.a), got, c.r)
		}
	}
}

func TestCounterMapping(t *testing.T) {
	l := MustLayout(1 * gib)
	// Blocks of the same page share one counter line; distinct slots.
	a0, a1 := Addr(5*PageSize), Addr(5*PageSize+3*LineSize)
	if l.CounterLineOf(a0) != l.CounterLineOf(a1) {
		t.Fatalf("same-page blocks map to different counter lines")
	}
	if l.CounterSlotOf(a0) != 0 || l.CounterSlotOf(a1) != 3 {
		t.Fatalf("slots = %d,%d, want 0,3", l.CounterSlotOf(a0), l.CounterSlotOf(a1))
	}
	// Counter line index/address round-trips.
	ca := l.CounterLineOf(a0)
	if l.CounterLineAddr(l.CounterLineIndex(ca)) != ca {
		t.Fatalf("counter line index/address round-trip failed")
	}
	// Adjacent pages get adjacent counter lines.
	if l.CounterLineOf(a0+PageSize) != ca+LineSize {
		t.Fatalf("adjacent page counter line not adjacent")
	}
}

func TestHMACMapping(t *testing.T) {
	l := MustLayout(1 * gib)
	seen := map[Addr][4]bool{}
	for b := 0; b < 8; b++ {
		a := Addr(b * LineSize)
		line, slot := l.HMACLineOf(a)
		if l.RegionOf(line) != RegionHMAC {
			t.Fatalf("HMAC line %#x not in HMAC region", uint64(line))
		}
		s := seen[line]
		if s[slot] {
			t.Fatalf("block %d: HMAC slot (%#x,%d) reused", b, uint64(line), slot)
		}
		s[slot] = true
		seen[line] = s
	}
	if len(seen) != 2 {
		t.Fatalf("8 blocks used %d HMAC lines, want 2 (4 HMACs per line)", len(seen))
	}
}

func TestTreeParentChildInverse(t *testing.T) {
	l := MustLayout(1 * gib)
	for level := 0; level < l.InternalLevels; level++ {
		n := l.LevelNodes(level)
		for _, idx := range []uint64{0, 1, n / 2, n - 1} {
			pl, pi, slot := l.ParentOf(level, idx)
			cl, ci := l.ChildOf(pl, pi, slot)
			if cl != level || ci != idx {
				t.Fatalf("ParentOf/ChildOf not inverse at level %d idx %d: got (%d,%d)", level, idx, cl, ci)
			}
		}
	}
}

func TestPathFrom(t *testing.T) {
	l := MustLayout(1 * gib)
	path := l.PathFrom(nil, 0)
	if len(path) != l.InternalLevels {
		t.Fatalf("path length %d, want %d", len(path), l.InternalLevels)
	}
	for i, a := range path {
		lev, _ := l.NodeAt(a)
		if lev != i+1 {
			t.Fatalf("path element %d at level %d, want %d", i, lev, i+1)
		}
	}
	// PathFrom appends: what the buffer already held stays in front.
	if got := l.PathFrom([]Addr{7}, 0); got[0] != 7 || !slices.Equal(got[1:], path) {
		t.Fatalf("PathFrom did not append to its buffer: %v", got)
	}
	// Every path must end at a top-NVM-level node, i.e. a direct child of
	// the TCB root node.
	for _, leaf := range []uint64{0, 1, l.LevelNodes(0) - 1} {
		p := l.PathFrom(path[:0], leaf)
		lev, idx := l.NodeAt(p[len(p)-1])
		if lev != l.TopLevel() || idx >= uint64(l.RootChildren()) {
			t.Fatalf("path from leaf %d ends at level %d idx %d, not a root child", leaf, lev, idx)
		}
	}
}

func TestNodeAddrNodeAtRoundTrip(t *testing.T) {
	l := MustLayout(256 << 20)
	f := func(rawLevel uint8, rawIdx uint32) bool {
		level := 1 + int(rawLevel)%l.InternalLevels
		idx := uint64(rawIdx) % l.LevelNodes(level)
		a := l.NodeAddr(level, idx)
		gl, gi := l.NodeAt(a)
		return gl == level && gi == idx && l.RegionOf(a) == RegionTree
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevelsAreDisjoint(t *testing.T) {
	l := MustLayout(64 << 20)
	seen := map[Addr]bool{}
	total := 0
	for level := 1; level <= l.InternalLevels; level++ {
		for idx := uint64(0); idx < l.LevelNodes(level); idx++ {
			a := l.NodeAddr(level, idx)
			if seen[a] {
				t.Fatalf("node address %#x reused", uint64(a))
			}
			seen[a] = true
			total++
		}
	}
	if uint64(total*LineSize) != l.TreeBytes {
		t.Fatalf("tree occupies %d bytes, layout says %d", total*LineSize, l.TreeBytes)
	}
}

func TestAlign(t *testing.T) {
	if Align(0) != 0 || Align(63) != 0 || Align(64) != 64 || Align(130) != 128 {
		t.Fatal("Align misbehaves")
	}
}

func TestStoreBasics(t *testing.T) {
	var s Store
	if _, ok := s.Read(0); ok {
		t.Fatal("empty store reports a written line")
	}
	var l Line
	l[0] = 0xFF
	s.Write(70, l) // unaligned: must land on line 64
	got, ok := s.Read(64)
	if !ok || got != l {
		t.Fatal("write/read round-trip failed")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	s.Delete(64)
	if _, ok := s.Read(64); ok {
		t.Fatal("delete did not clear the line")
	}
}

func TestStoreCloneIsDeep(t *testing.T) {
	var s Store
	var l Line
	l[1] = 1
	s.Write(0, l)
	c := s.Clone()
	l[1] = 2
	s.Write(0, l)
	got, _ := c.Read(0)
	if got[1] != 1 {
		t.Fatal("clone shares storage with original")
	}
	if s.Equal(c) {
		t.Fatal("diverged stores report equal")
	}
}

func TestStoreEqualTreatsZeroAsAbsent(t *testing.T) {
	var a, b Store
	var zero Line
	a.Write(128, zero)
	if !a.Equal(&b) || !b.Equal(&a) {
		t.Fatal("explicit zero line should equal absent line")
	}
}

func TestStoreAddrsSorted(t *testing.T) {
	var s Store
	var l Line
	for _, a := range []Addr{640, 0, 128, 64} {
		l[0] = byte(a)
		s.Write(a, l)
	}
	addrs := s.Addrs()
	for i := 1; i < len(addrs); i++ {
		if addrs[i-1] >= addrs[i] {
			t.Fatalf("Addrs not sorted: %v", addrs)
		}
	}
	if len(addrs) != 4 {
		t.Fatalf("got %d addrs, want 4", len(addrs))
	}
}

// TestLayoutBoundsMatchRegionOf: Bounds and RegionOf describe the same
// carve-up — each region's first and last line classify as that region,
// and the regions tile the address space without gaps.
func TestLayoutBoundsMatchRegionOf(t *testing.T) {
	lay := MustLayout(64 << 20)
	next := Addr(0)
	for _, r := range []Region{RegionData, RegionCounter, RegionHMAC, RegionTree} {
		lo, hi := lay.Bounds(r)
		if lo != next || hi <= lo {
			t.Fatalf("%v: bounds [%#x, %#x), want to start at %#x", r, uint64(lo), uint64(hi), uint64(next))
		}
		if lay.RegionOf(lo) != r || lay.RegionOf(hi-LineSize) != r {
			t.Fatalf("%v: RegionOf disagrees with bounds [%#x, %#x)", r, uint64(lo), uint64(hi))
		}
		next = hi
	}
	if uint64(next) != lay.TotalBytes() || lay.RegionOf(next) != RegionInvalid {
		t.Fatalf("regions end at %#x, layout at %#x", uint64(next), lay.TotalBytes())
	}
	if lo, hi := lay.Bounds(RegionInvalid); lo != hi {
		t.Fatal("RegionInvalid has an extent")
	}
}
