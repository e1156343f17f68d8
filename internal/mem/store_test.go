package mem

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestStoreCloneCOWIsolation exercises the copy-on-write sharing in
// both directions: writes, deletes and overwrites on either side of a
// Clone must never become visible on the other side.
func TestStoreCloneCOWIsolation(t *testing.T) {
	var s Store
	var l Line
	// Populate enough lines to span several pages.
	for a := Addr(0); a < 200*LineSize; a += LineSize {
		l[0] = byte(a / LineSize)
		s.Write(a, l)
	}
	c := s.Clone()

	// Mutate the original: overwrite, delete, and fresh write.
	l[0] = 0xEE
	s.Write(0, l)
	s.Delete(64)
	s.Write(4096*LineSize, l)

	if got, _ := c.Read(0); got[0] != 0 {
		t.Fatalf("original overwrite leaked into clone: got %#x", got[0])
	}
	if _, ok := c.Read(64); !ok {
		t.Fatal("original delete leaked into clone")
	}
	if _, ok := c.Read(4096 * LineSize); ok {
		t.Fatal("original fresh write leaked into clone")
	}

	// Mutate the clone: the original must be equally unaffected.
	l[0] = 0xDD
	c.Write(128, l)
	c.Delete(192)
	if got, _ := s.Read(128); got[0] != 2 {
		t.Fatalf("clone overwrite leaked into original: got %#x", got[0])
	}
	if _, ok := s.Read(192); !ok {
		t.Fatal("clone delete leaked into original")
	}
}

// TestStoreCloneOfClone checks that chains of snapshots stay
// independent — the crash-consistency experiments snapshot the image at
// every potential crash point, producing long ancestor chains.
func TestStoreCloneOfClone(t *testing.T) {
	var s Store
	var l Line
	l[0] = 1
	s.Write(0, l)

	snaps := make([]*Store, 0, 8)
	for i := 0; i < 8; i++ {
		snaps = append(snaps, s.Clone())
		l[0] = byte(i + 2)
		s.Write(0, l)
	}
	for i, c := range snaps {
		got, _ := c.Read(0)
		if int(got[0]) != i+1 {
			t.Fatalf("snapshot %d: got %d, want %d", i, got[0], i+1)
		}
	}
}

// TestStoreCloneStructCopy mirrors nvm.Device.Restore, which assigns
// *img.Store.Clone() by value: the by-value copy must still be
// copy-on-write isolated from the source image.
func TestStoreCloneStructCopy(t *testing.T) {
	var img Store
	var l Line
	l[0] = 7
	img.Write(0, l)

	restored := *img.Clone()
	l[0] = 9
	restored.Write(0, l)
	if got, _ := img.Read(0); got[0] != 7 {
		t.Fatalf("write through by-value clone leaked into source: got %d", got[0])
	}
	restored.Delete(0)
	if _, ok := img.Read(0); !ok {
		t.Fatal("delete through by-value clone leaked into source")
	}
}

// TestStoreZeroValueAfterClone makes sure cloning an empty zero-value
// store yields a usable, writable store.
func TestStoreZeroValueAfterClone(t *testing.T) {
	var s Store
	c := s.Clone()
	var l Line
	l[0] = 3
	c.Write(64, l)
	if s.Len() != 0 {
		t.Fatal("write to clone of empty store leaked into source")
	}
	if got, _ := c.Read(64); got[0] != 3 {
		t.Fatal("clone of empty store dropped a write")
	}
}

var sinkStore *Store

// TestStoreDeleteAbsentKeepsSharing verifies the no-op fast path:
// deleting an absent line must not privatize a shared page or the
// directory above it (that would defeat the point of lazy snapshots),
// so a snapshot that only sees such a delete allocates nothing beyond
// the snapshot itself.
func TestStoreDeleteAbsentKeepsSharing(t *testing.T) {
	var s Store
	var l Line
	l[0] = 5
	s.Write(0, l)
	clone := testing.AllocsPerRun(50, func() { sinkStore = s.Clone() })
	cloneDelete := testing.AllocsPerRun(50, func() {
		c := s.Clone()
		c.Delete(LineSize)       // absent; same page as address 0
		c.Delete(64 * LineSize)  // absent; same leaf, no page yet
		c.Delete(Addr(1) << 40)  // absent; no segment
		c.Delete(^Addr(0) &^ 63) // absent; top of the address space
		sinkStore = c
	})
	if cloneDelete != clone {
		t.Fatalf("no-op deletes allocated: %v allocs per clone+delete, %v per clone", cloneDelete, clone)
	}
	if got, _ := sinkStore.Read(0); got[0] != 5 || sinkStore.Len() != 1 {
		t.Fatal("no-op delete corrupted the store")
	}
}

// TestStoreShares: a clone shares its source's directories until either
// side writes — in place, to a new page or segment, or by deleting a
// line — and a no-op delete keeps the sharing, as it keeps the content.
func TestStoreShares(t *testing.T) {
	var s Store
	s.Write(0, Line{1})
	s.Write(Addr(1)<<40, Line{2})
	for _, tc := range []struct {
		name   string
		edit   func(*Store)
		shares bool
	}{
		{"untouched", func(*Store) {}, true},
		{"no-op delete", func(m *Store) { m.Delete(LineSize) }, true},
		{"rewrite", func(m *Store) { m.Write(0, Line{1}) }, false},
		{"new page", func(m *Store) { m.Write(PageSize, Line{3}) }, false},
		{"new segment", func(m *Store) { m.Write(Addr(1)<<50, Line{3}) }, false},
		{"delete", func(m *Store) { m.Delete(Addr(1) << 40) }, false},
	} {
		for side := range 2 {
			c := s.Clone()
			if side == 0 {
				tc.edit(c)
			} else {
				tc.edit(&s)
			}
			if got := c.Shares(&s) && s.Shares(c); got != tc.shares {
				t.Fatalf("%s on side %d: Shares = %v, want %v", tc.name, side, got, tc.shares)
			}
		}
	}
}

// TestStoreMemoryFollowsLines pins the sparse top level: lines
// scattered over the full 64-bit address space cost a bounded number of
// bytes each (at worst a segment, a leaf and a page of their own), never
// a directory sized by the highest address.
func TestStoreMemoryFollowsLines(t *testing.T) {
	const lines = 2000
	rng := rand.New(rand.NewSource(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var s Store
	s.Write(^Addr(0), Line{1})
	for i := 1; i < lines; i++ {
		s.Write(Addr(rng.Uint64()), Line{byte(i)})
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / lines; per > 16<<10 {
		t.Fatalf("%d bytes allocated per scattered line, want at most 16 KiB", per)
	}
	if s.Len() != lines {
		t.Fatalf("Len = %d, want %d", s.Len(), lines)
	}
	if got, ok := s.Read(^Addr(0) &^ 63); !ok || got[0] != 1 {
		t.Fatal("line at the top of the address space lost")
	}
}

// builderAddrs are line addresses on every boundary of the page index:
// lines around page, leaf and segment edges, a full page, a page of 13
// lines, and a line alone at 1<<62.
func builderAddrs() []Addr {
	var out []Addr
	for _, edge := range []Addr{0, 1 << pageShift, 1 << leafShift, 1 << segShift, 3<<segShift + 5<<leafShift} {
		if edge > 0 {
			out = append(out, edge-2*LineSize, edge-LineSize)
		}
		out = append(out, edge, edge+LineSize, edge+3*LineSize)
	}
	for a := Addr(7) << pageShift; a < 8<<pageShift; a += LineSize {
		out = append(out, a)
	}
	for i := Addr(0); i < 13; i++ { // 832 B: no allocation size class fits it exactly
		out = append(out, 9<<pageShift+i*LineSize)
	}
	out = append(out, 1<<62)
	slices.Sort(out)
	return slices.Compact(out)
}

func buildFrom(addrs []Addr) *Store {
	return BuildLineMap(func(add func(Addr, Line)) {
		for i, a := range addrs {
			add(a, Line{byte(i), byte(i >> 8), 1})
		}
	})
}

// TestBuildLineMapMatchesWrite: a map built from ascending lines holds
// what Write builds from them, across every boundary of the index, and
// answers Len, Addrs and Range alike.
func TestBuildLineMapMatchesWrite(t *testing.T) {
	addrs := builderAddrs()
	built, written := buildFrom(addrs), &Store{}
	for i, a := range addrs {
		written.Write(a, Line{byte(i), byte(i >> 8), 1})
	}
	if !built.Equal(written) || built.Len() != written.Len() || !slices.Equal(built.Addrs(), addrs) {
		t.Fatalf("built map (%d lines) differs from the written one (%d)", built.Len(), written.Len())
	}
	for _, r := range [][2]Addr{{0, 1 << 62}, {LineSize, 1<<leafShift + LineSize}, {1<<segShift - LineSize, 1<<segShift + 2*LineSize}, {1 << 62, ^Addr(0)}} {
		if got, want := built.Range(r[0], r[1]), written.Range(r[0], r[1]); !slices.Equal(got, want) {
			t.Fatalf("Range(%#x, %#x) = %#x, written map has %#x", r[0], r[1], got, want)
		}
	}
	if empty := BuildLineMap(func(func(Addr, Line)) {}); empty.Len() != 0 || len(empty.Addrs()) != 0 {
		t.Fatal("a map built from no lines is not empty")
	}
}

// TestBuildLineMapClone: a built map's clone shares it until the first
// write on either side, and from then on neither side sees the other's
// writes or deletes — the built pages are copy-on-write like any other.
func TestBuildLineMapClone(t *testing.T) {
	addrs := builderAddrs()
	for side := range 2 {
		built := buildFrom(addrs)
		c := built.Clone()
		if !c.Shares(built) || !built.Shares(c) {
			t.Fatal("a clone of a built map does not share it")
		}
		w, o := built, c
		if side == 1 {
			w, o = c, built
		}
		w.Write(addrs[3], Line{0xEE})             // overwrite in a built page
		w.Write(addrs[3]+32*LineSize, Line{0xEF}) // insert into a built page
		w.Delete(addrs[len(addrs)-1])             // the line at 1<<62
		if w.Shares(o) {
			t.Fatal("Shares holds after a write")
		}
		if !o.Equal(buildFrom(addrs)) {
			t.Fatalf("side %d's writes leaked into the other side", side)
		}
		o.Write(addrs[4], Line{0xDD})
		o.Delete(addrs[0])
		if got, _ := w.Read(addrs[4]); got[0] == 0xDD {
			t.Fatal("a write on the other side leaked back")
		}
		if _, ok := w.Read(addrs[0]); !ok {
			t.Fatal("a delete on the other side leaked back")
		}
		if got, _ := w.Read(addrs[3] + 32*LineSize); got[0] != 0xEF || w.Len() != len(addrs) {
			t.Fatalf("written side holds %d lines, want %d", w.Len(), len(addrs))
		}
	}
}

// TestBuildLineMapRefusesDisorder: a line that does not follow the last
// one, as a repeat or out of order, panics rather than corrupt a page.
func TestBuildLineMapRefusesDisorder(t *testing.T) {
	for _, addrs := range [][]Addr{{LineSize, 0}, {0, 0}, {1 << segShift, 1 << pageShift}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BuildLineMap accepted %#x", addrs)
				}
			}()
			buildFrom(addrs)
		}()
	}
}

// TestBuildLineMapAllocs bounds what building costs: one exact-size
// slice per page, the directory nodes above the pages (a leaf per leaf,
// a leaf directory per segment, and the top-level slice as append grows
// it), and a fixed few for the builder's own state.
func TestBuildLineMapAllocs(t *testing.T) {
	addrs := builderAddrs()
	pages, leaves, segs := map[Addr]bool{}, map[Addr]bool{}, map[Addr]bool{}
	for _, a := range addrs {
		pages[a>>pageShift], leaves[a>>leafShift], segs[a>>segShift] = true, true, true
	}
	const builder = 3 // the map, the builder and its add method value
	limit := len(pages) + len(leaves) + len(segs) + bits.Len(uint(len(segs))) + builder
	if got := testing.AllocsPerRun(20, func() { sinkStore = buildFrom(addrs) }); got > float64(limit) {
		t.Fatalf("building %d pages in %d leaves and %d segments took %v allocations, want at most %d",
			len(pages), len(leaves), len(segs), got, limit)
	}
	for _, sg := range sinkStore.segs {
		for _, lf := range sg.leaves {
			for p := 0; lf != nil && p < leafPages; p++ {
				if pg := lf.pages[p]; cap(pg) != len(pg) {
					t.Fatalf("a built page has capacity %d for %d lines", cap(pg), len(pg))
				}
			}
		}
	}
}

// modelStore pairs a Store with the plain map it must behave like.
type modelStore struct {
	s   *Store
	ref map[Addr]Line
}

func (m modelStore) sortedRef() []Addr {
	out := make([]Addr, 0, len(m.ref))
	for a := range m.ref {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// built is the store BuildLineMap makes from the model's lines.
func (m modelStore) built() *Store {
	return BuildLineMap(func(add func(Addr, Line)) {
		for _, a := range m.sortedRef() {
			add(a, m.ref[a])
		}
	})
}

// check compares everything observable about the store with its model.
func (m modelStore) check(t testing.TB, who int) {
	t.Helper()
	if m.s.Len() != len(m.ref) {
		t.Fatalf("store %d: Len = %d, model has %d", who, m.s.Len(), len(m.ref))
	}
	want := m.sortedRef()
	if got := m.s.Addrs(); !slices.Equal(got, want) {
		t.Fatalf("store %d: Addrs = %#x, model has %#x", who, got, want)
	}
	for _, a := range want {
		if got, ok := m.s.Read(a); !ok || got != m.ref[a] {
			t.Fatalf("store %d: Read(%#x) = %v, %v; model has %v", who, a, got[0], ok, m.ref[a][0])
		}
	}
}

// modelProgram decodes a byte string into store operations; running out
// of bytes ends the program.
type modelProgram struct {
	b   []byte
	off int
}

func (p *modelProgram) done() bool { return p.off >= len(p.b) }

func (p *modelProgram) byte() byte {
	if p.done() {
		return 0
	}
	p.off++
	return p.b[p.off-1]
}

func (p *modelProgram) u64() uint64 {
	var w [8]byte
	for i := range w {
		w[i] = p.byte()
	}
	return binary.LittleEndian.Uint64(w[:])
}

// addr draws an address from one of four families: dense runs (many
// lines per page, pages per leaf), the region bases of a 16 GiB layout
// (what a real machine touches), node boundaries of the index, and the
// full 64-bit range, unaligned included.
func (p *modelProgram) addr(lay *Layout) Addr {
	small := Addr(p.byte()) * LineSize
	switch sel := p.byte(); sel % 4 {
	case 0:
		runs := []Addr{0, 3 << pageShift, 1 << leafShift, 1<<segShift - 2<<pageShift, Addr(lay.DataBytes)}
		return runs[int(sel/4)%len(runs)] + small + Addr(p.byte())<<pageShift
	case 1:
		bases := []Addr{0, lay.CounterBase, lay.HMACBase, lay.TreeBase, Addr(lay.TotalBytes()) - 256*LineSize}
		return bases[int(sel/4)%len(bases)] + small
	case 2:
		edges := []Addr{1 << pageShift, 1 << leafShift, 1 << segShift, 5 << segShift, 1 << 40, 1 << 63, 0}
		return edges[int(sel/4)%len(edges)] - 2*LineSize + small%(4*LineSize) // straddles the edge; wraps below 0
	default:
		return Addr(p.u64())
	}
}

// runStoreModel interprets prog against up to five live clones of one
// store, each shadowed by a map; a store may also be replaced by the one
// BuildLineMap makes from its model, so later writes, deletes and clones
// run on built pages. After every operation the address it
// touched is read back on every clone — a write or delete on one side
// of a Clone that shows on another side fails there and then — and
// every clone is compared with its model in full when it is cloned and
// when the program ends.
func runStoreModel(t testing.TB, prog []byte) {
	lay := MustLayout(16 << 30)
	p := &modelProgram{b: prog}
	live := []modelStore{{s: &Store{}, ref: map[Addr]Line{}}}
	pick := func() int { return int(p.byte()) % len(live) }
	for !p.done() {
		op := p.byte()
		i := pick()
		m := live[i]
		var a Addr
		switch op % 11 {
		case 0, 1, 2: // write; every fourth value is the zero line
			a = p.addr(lay)
			v := Line{p.byte() % 4, op}
			m.s.Write(a, v)
			m.ref[Align(a)] = v
		case 3:
			a = p.addr(lay)
			m.s.Delete(a)
			delete(m.ref, Align(a))
		case 4:
			a = p.addr(lay)
		case 5: // clone; at five clones one is dropped first, source or not
			if len(live) == 5 {
				live = slices.Delete(live, 0, 1)
				if i = pick(); i >= len(live) {
					i = 0
				}
				m = live[i]
			}
			m.check(t, i)
			ref := make(map[Addr]Line, len(m.ref))
			for a, l := range m.ref {
				ref[a] = l
			}
			live = append(live, modelStore{s: m.s.Clone(), ref: ref})
		case 6: // drop
			if len(live) > 1 {
				live = slices.Delete(live, i, i+1)
			}
		case 7:
			lo, hi := p.addr(lay), p.addr(lay)
			var want []Addr
			for _, a := range m.sortedRef() {
				if a >= Align(lo) && a < hi {
					want = append(want, a)
				}
			}
			if got := m.s.Range(lo, hi); !slices.Equal(got, want) {
				t.Fatalf("store %d: Range(%#x, %#x) = %#x, model has %#x", i, lo, hi, got, want)
			}
		case 8:
			o := live[pick()]
			want := true
			for _, pair := range [][2]map[Addr]Line{{m.ref, o.ref}, {o.ref, m.ref}} {
				for a, l := range pair[0] {
					if pair[1][a] != l { // an absent line is the zero line
						want = false
					}
				}
			}
			if got := m.s.Equal(o.s); got != want {
				t.Fatalf("store %d: Equal = %v, models say %v", i, got, want)
			}
		case 9: // a by-value copy of a clone, as nvm.Device.Restore makes
			v := *m.s.Clone()
			live[i].s = &v
		case 10: // rebuilt from the model in address order, as an image decoder builds it
			b := m.built()
			if !b.Equal(m.s) {
				t.Fatalf("store %d: the map built from its model differs from it", i)
			}
			live[i].s = b
		}
		for k, m := range live {
			got, ok := m.s.Read(a)
			want, wok := m.ref[Align(a)]
			if got != want || ok != wok || m.s.Len() != len(m.ref) {
				t.Fatalf("after op %d on store %d: store %d reads %#x as %v, %v and has %d lines; model has %v, %v and %d",
					op%11, i, k, a, got[0], ok, m.s.Len(), want[0], wok, len(m.ref))
			}
		}
	}
	for k, m := range live {
		m.check(t, k)
	}
}

// TestStoreModel runs seeded random programs through the model.
func TestStoreModel(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 3000)
		rng.Read(prog)
		runStoreModel(t, prog)
	}
}

// FuzzStoreModel lets the fuzzer write the programs.
func FuzzStoreModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 7, 5, 0, 3, 0, 1, 0, 0})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		prog := make([]byte, 96)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 { // the fuzzer minimizes what it keeps: long programs spend the budget there
			t.Skip()
		}
		runStoreModel(t, prog)
	})
}

// benchAddrs returns n line addresses: consecutive lines when dense,
// one line per page strided over a 16 GiB layout when sparse.
func benchAddrs(n int, dense bool) []Addr {
	out := make([]Addr, n)
	for i := range out {
		if dense {
			out[i] = Addr(i) * LineSize
		} else {
			out[i] = Addr(uint64(i)*7919%(4<<20)) << pageShift
		}
	}
	return out
}

func benchStore(addrs []Addr) *Store {
	s := &Store{}
	for i, a := range addrs {
		s.Write(a, Line{byte(i)})
	}
	return s
}

func eachDensity(b *testing.B, fn func(b *testing.B, addrs []Addr)) {
	for _, c := range []struct {
		name  string
		dense bool
	}{{"dense", true}, {"sparse", false}} {
		b.Run(c.name, func(b *testing.B) { fn(b, benchAddrs(1<<16, c.dense)) })
	}
}

func BenchmarkStoreWrite(b *testing.B) {
	eachDensity(b, func(b *testing.B, addrs []Addr) {
		s := benchStore(addrs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Write(addrs[i%len(addrs)], Line{byte(i)})
		}
	})
}

var sinkLine Line

func BenchmarkStoreRead(b *testing.B) {
	eachDensity(b, func(b *testing.B, addrs []Addr) {
		s := benchStore(addrs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkLine, _ = s.Read(addrs[i%len(addrs)])
		}
	})
}

// BenchmarkStoreCloneThenWrite is the crash-sweep pattern: snapshot,
// then one write that must un-share its path.
func BenchmarkStoreCloneThenWrite(b *testing.B) {
	eachDensity(b, func(b *testing.B, addrs []Addr) {
		s := benchStore(addrs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkStore = s.Clone()
			s.Write(addrs[i%len(addrs)], Line{byte(i)})
		}
	})
}

var sinkAddrs []Addr

func BenchmarkStoreAddrs(b *testing.B) {
	eachDensity(b, func(b *testing.B, addrs []Addr) {
		s := benchStore(addrs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkAddrs = s.Addrs()
		}
	})
}
