package mem

import (
	"fmt"
	"math/bits"
	"slices"
)

// Geometry of the page index. A page is 64 consecutive lines — one
// presence word and 4 KiB of address space; a leaf indexes 64 pages and
// a segment 1024 leaves, so a segment spans 256 MiB. The sizes are
// constants: nothing selects between layouts.
const (
	pageLines = 64
	leafPages = 64
	segLeaves = 1024

	pageShift = 12             // log2(pageLines * LineSize)
	leafShift = pageShift + 6  // log2 of a leaf's span
	segShift  = leafShift + 10 // log2 of a segment's span
)

// owner tags the directory nodes one LineMap may mutate in place. It
// must not be zero-sized: distinct owners need distinct addresses.
type owner struct{ _ byte }

// leaf indexes 64 pages. A page holds only its written lines, packed in
// address order: line l of page p sits at index rank(present[p], l) of
// pages[p]. A page that Write fills grows by doubling; a page that
// BuildLineMap makes is exactly as long as its lines. The presence words
// live here rather than with the lines, so absent lines and ordered
// walks never touch page memory. Bit p of own is set when pages[p] was
// allocated or copied under this leaf's owner; it is meaningless to any
// other owner.
type leaf[V any] struct {
	owner   *owner
	own     uint64
	present [leafPages]uint64
	pages   [leafPages][]V
}

// segment is one entry of the sparse top level: key is the address
// shifted right by segShift, leaves the 8 KiB directory below it, and
// owner the map that may write that directory in place.
type segment[V any] struct {
	key    uint64
	owner  *owner
	leaves *[segLeaves]*leaf[V]
}

// LineMap is a sparse map from line address to V, laid out as a page
// index: a sorted slice of 256 MiB segments, each a two-level radix
// directory down to 64-line pages with a presence bitmap. Lookups are a
// short binary search, two loads and a popcount; iteration is natively
// in ascending address order; and Clone is copy-on-write: directory
// nodes carry an owner tag, a clone shares every node and page with its
// source, and the first write after a snapshot copies one page (at most
// 4 KiB) and the two directory nodes above it — never a fraction of the
// image. The top level is sparse and pages are packed, so memory follows
// the number of lines written, not the highest address nor the number of
// pages touched: a lone line at 1<<62 costs one segment, one leaf and one
// line.
//
// The zero value is an empty map ready to use. A LineMap must not be
// copied by value while the original stays in use.
type LineMap[V comparable] struct {
	segs  []segment[V] // ascending by key; private to this map
	owner *owner
	n     int
}

// Store is a sparse line-granular memory image. Absent lines read as
// zero, which the security layer interprets as "never written": the
// functional crypto layer derives deterministic default counters, HMACs
// and tree nodes for untouched lines, so a sparse image behaves exactly
// like a zero-initialized DIMM without materializing it.
//
// Crash-consistency experiments snapshot the NVM image at every
// potential crash point; see LineMap for what a snapshot costs.
type Store = LineMap[Line]

// search returns the index of the first segment whose key is >= key.
func (m *LineMap[V]) search(key uint64) int {
	lo, hi := 0, len(m.segs)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if m.segs[h].key < key {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// split decomposes an address into its leaf, page and line indices
// below the segment level.
func split(a Addr) (lf, pg, ln uint) {
	return uint(a>>leafShift) % segLeaves, uint(a>>pageShift) % leafPages, uint(a/LineSize) % pageLines
}

// rank is the position of line l in a packed page: the number of
// present lines below it.
func rank(present uint64, l uint) int {
	return bits.OnesCount64(present & (1<<l - 1))
}

// Read returns the value at a and whether it has ever been written.
// Absent lines read as the zero value.
func (m *LineMap[V]) Read(a Addr) (V, bool) {
	var zero V
	key := uint64(a >> segShift)
	i := m.search(key)
	if i == len(m.segs) || m.segs[i].key != key {
		return zero, false
	}
	j, p, l := split(a)
	lf := m.segs[i].leaves[j]
	if lf == nil || lf.present[p]&(1<<l) == 0 {
		return zero, false
	}
	return lf.pages[p][rank(lf.present[p], l)], true
}

// private returns the leaf covering a, with it, the directory above it
// and a's page made private to m (created or copied as needed), so the
// caller may mutate them in place.
func (m *LineMap[V]) private(a Addr) *leaf[V] {
	key := uint64(a >> segShift)
	i := m.search(key)
	if i == len(m.segs) || m.segs[i].key != key {
		m.segs = slices.Insert(m.segs, i, segment[V]{key: key, owner: m.owner, leaves: new([segLeaves]*leaf[V])})
	}
	sg := &m.segs[i]
	if sg.owner != m.owner {
		c := *sg.leaves
		sg.owner, sg.leaves = m.owner, &c
	}
	j, p, _ := split(a)
	lf := sg.leaves[j]
	switch {
	case lf == nil:
		lf = &leaf[V]{owner: m.owner}
		sg.leaves[j] = lf
	case lf.owner != m.owner:
		c := *lf
		c.owner, c.own = m.owner, 0
		lf = &c
		sg.leaves[j] = lf
	}
	if lf.own&(1<<p) == 0 {
		lf.pages[p] = append(make([]V, 0, cap(lf.pages[p])), lf.pages[p]...)
		lf.own |= 1 << p
	}
	return lf
}

// BuildLineMap returns a new map holding the lines fill hands to add,
// which must come in strictly ascending line-address order; add panics
// on any other. It is what Write would build from the same lines, built
// the way a decoder reads them: each page is gathered whole and stored
// as one exact-size slice owned by the new map, and the directory is
// walked once per page, not once per line.
func BuildLineMap[V comparable](fill func(add func(Addr, V))) *LineMap[V] {
	b := &builder[V]{m: &LineMap[V]{}}
	fill(b.add)
	if b.word != 0 {
		b.flush()
	}
	return b.m
}

// builder gathers BuildLineMap's lines one page at a time.
type builder[V comparable] struct {
	m    *LineMap[V]
	buf  [pageLines]V // the lines of the page being gathered, packed
	word uint64       // their presence word; zero before the first line
	base Addr         // that page's base address
	last Addr         // the last line added
}

func (b *builder[V]) add(a Addr, v V) {
	a = Align(a)
	if b.word != 0 && a <= b.last {
		panic(fmt.Sprintf("mem: BuildLineMap line %#x does not follow %#x", uint64(a), uint64(b.last)))
	}
	if page := a &^ (1<<pageShift - 1); b.word == 0 || page != b.base {
		if b.word != 0 {
			b.flush()
		}
		b.base, b.word = page, 0
	}
	_, _, l := split(a)
	b.buf[bits.OnesCount64(b.word)] = v
	b.word |= 1 << l
	b.last = a
}

// flush stores the gathered page under its leaf, appending the segment
// and creating the leaf when the page is their first.
func (b *builder[V]) flush() {
	m := b.m
	key := uint64(b.base >> segShift)
	if n := len(m.segs); n == 0 || m.segs[n-1].key != key {
		m.segs = append(m.segs, segment[V]{key: key, owner: m.owner, leaves: new([segLeaves]*leaf[V])})
	}
	leaves := m.segs[len(m.segs)-1].leaves
	j, p, _ := split(b.base)
	lf := leaves[j]
	if lf == nil {
		lf = &leaf[V]{owner: m.owner}
		leaves[j] = lf
	}
	n := bits.OnesCount64(b.word)
	lf.pages[p] = make([]V, n)
	copy(lf.pages[p], b.buf[:n])
	lf.present[p] = b.word
	lf.own |= 1 << p
	m.n += n
}

// Write stores v at address a.
func (m *LineMap[V]) Write(a Addr, v V) {
	lf := m.private(a)
	_, p, l := split(a)
	r := rank(lf.present[p], l)
	if lf.present[p]&(1<<l) != 0 {
		lf.pages[p][r] = v
		return
	}
	lf.pages[p] = slices.Insert(lf.pages[p], r, v)
	lf.present[p] |= 1 << l
	m.n++
}

// Delete removes the line at a, returning it to the default (zero)
// state. Deleting an absent line is a no-op that copies nothing.
func (m *LineMap[V]) Delete(a Addr) {
	if _, ok := m.Read(a); !ok {
		return
	}
	lf := m.private(a)
	_, p, l := split(a)
	r := rank(lf.present[p], l)
	lf.pages[p] = slices.Delete(lf.pages[p], r, r+1)
	lf.present[p] &^= 1 << l
	m.n--
}

// Len reports how many distinct lines are written.
func (m *LineMap[V]) Len() int { return m.n }

// Clone returns a logically independent copy. Used to snapshot NVM
// images at crash points. The copy is lazy and costs one top-level
// slice: both sides take a fresh owner tag, so every existing node is
// shared until one side writes, and the writer copies just the page and
// directory nodes on its path. Either side may be mutated or discarded
// without the other noticing.
func (m *LineMap[V]) Clone() *LineMap[V] {
	m.owner = new(owner)
	return &LineMap[V]{segs: slices.Clone(m.segs), owner: new(owner), n: m.n}
}

// Shares reports whether m and o are one snapshot: one was cloned from
// the other, or both from one map, and neither was written since. It
// compares the top-level directories, one step per segment, and never
// reads a line: a write copies the directory it goes through, so
// sharing every directory means holding the very same pages. False
// says nothing about the contents.
func (m *LineMap[V]) Shares(o *LineMap[V]) bool {
	return slices.EqualFunc(m.segs, o.segs, func(x, y segment[V]) bool {
		return x.key == y.key && x.leaves == y.leaves
	})
}

// walk calls fn for every written line with lo <= address <= last in
// ascending order, handing it the address and the slot. It reads only
// the directory, so a walk that wants addresses alone never touches
// page memory. The map must not be written during the walk.
func (m *LineMap[V]) walk(lo, last Addr, fn func(Addr, *V)) {
	lo = Align(lo)
	for i := m.search(uint64(lo >> segShift)); i < len(m.segs) && m.segs[i].key <= uint64(last>>segShift); i++ {
		sbase := Addr(m.segs[i].key) << segShift
		for j, lf := range m.segs[i].leaves {
			lbase := sbase + Addr(j)<<leafShift
			if lf == nil || lbase+(1<<leafShift-1) < lo || lbase > last {
				continue
			}
			for p, word := range &lf.present {
				pbase := lbase + Addr(p)<<pageShift
				for r := 0; word != 0; word, r = word&(word-1), r+1 {
					l := bits.TrailingZeros64(word)
					if a := pbase + Addr(l)*LineSize; a >= lo && a <= last {
						fn(a, &lf.pages[p][r])
					}
				}
			}
		}
	}
}

// Addrs returns the addresses of all written lines in ascending order.
// Deterministic ordering keeps recovery scans and tests reproducible.
func (m *LineMap[V]) Addrs() []Addr {
	out := make([]Addr, 0, m.n)
	m.walk(0, ^Addr(0), func(a Addr, _ *V) { out = append(out, a) })
	return out
}

// Range returns the addresses of the written lines in [lo, hi) in
// ascending order; the line containing lo counts as inside. Its cost
// follows the lines in the range (plus a scan of the directory nodes the
// range crosses), not the size of the map.
func (m *LineMap[V]) Range(lo, hi Addr) []Addr {
	if lo = Align(lo); hi <= lo {
		return nil
	}
	var out []Addr
	m.walk(lo, hi-1, func(a Addr, _ *V) { out = append(out, a) })
	return out
}

// Equal reports whether two maps hold identical contents, treating
// absent lines as zero.
func (m *LineMap[V]) Equal(o *LineMap[V]) bool {
	return m.within(o) && o.within(m)
}

// within reports whether every line written in m reads the same in o.
func (m *LineMap[V]) within(o *LineMap[V]) bool {
	same := true
	m.walk(0, ^Addr(0), func(a Addr, v *V) {
		if got, _ := o.Read(a); got != *v {
			same = false
		}
	})
	return same
}
