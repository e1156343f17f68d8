package engine_test

import (
	"math/rand"
	"testing"

	"ccnvm/internal/bmt"
	"ccnvm/internal/design"
	"ccnvm/internal/design/names"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/metacache"
	"ccnvm/internal/seccrypto"
)

// lazyView is what the lazy-path checks read of an engine: the TCB
// registers through the materialising accessor, and the chip's copy of
// a metadata line (metadata cache, displaced victim or stash).
type lazyView interface {
	Registers() engine.TCB
	OnChip(a mem.Addr) (mem.Line, bool)
}

// rootPerWriteBack lists the designs whose root registers follow every
// write-back (the walks of UpdatePathInCache and onChipTree.updatePath).
// The others move their roots only at a drain (cc-NVM) or when dirty
// metadata leaves the chip (w/o CC), so they match a rebuild after a
// Settle.
var rootPerWriteBack = map[string]bool{
	names.SC: true, names.Osiris: true, names.Arsenal: true, names.CCNVMWoDS: true,
}

// oneRoot lists the designs that keep ROOTold equal to ROOTnew.
var oneRoot = map[string]bool{names.SC: true, names.Osiris: true, names.Arsenal: true}

// lazyPages spreads the driver's pages over the tree: neighbours that
// share a level-1 parent, pages that meet only near the root, and the
// last page of the capacity.
var lazyPages = []uint64{0, 1, 3, 5, 64, 4097, 16411, 65539, 131072, 200003, 262143}

// runLazyPath drives one design through ops: each byte is a write-back,
// a read, a Settle, a check, or a burst of write-backs to one block
// that overflows its minor counter. At each Settle and check it reads
// the registers through Registers, a materialisation point, and holds
// the roots and every tree node the chip holds on a touched path to
// what bmt.Tree.Rebuild derives from a model of the newest counter
// lines; the ops between two checks leave their leaves to coalesce.
// Last, the crash image's roots must be that rebuild too. A small
// metadata cache keeps victims, stash entries and drains in play.
func runLazyPath(t *testing.T, d design.Descriptor, ops []byte) {
	t.Helper()
	e := rigMeta(t, d.Name, engine.Params{UpdateLimit: 4}, metacache.Config{SizeBytes: 4096, Ways: 2})
	view, ok := e.(lazyView)
	if !ok {
		t.Fatalf("%s: engine does not expose Registers and OnChip", d.Name)
	}
	lay := mem.MustLayout(capacity)
	tree := bmt.New(lay, seccrypto.MustEngine(seccrypto.DefaultKeys()))

	counters := map[mem.Addr]*seccrypto.CounterLine{} // newest counter lines, by address
	written := map[mem.Addr]mem.Line{}                // newest plaintext, by data address
	touched := map[uint64]bool{}                      // leaves written or read
	var ctrAddrs []mem.Addr
	model := bmt.ReaderFunc(func(a mem.Addr) (mem.Line, bool) {
		if cl, ok := counters[a]; ok {
			return cl.Encode(), true
		}
		return mem.Line{}, false
	})
	now := int64(0)
	writeBack := func(a mem.Addr, v byte) {
		ca := lay.CounterLineOf(a)
		cl, ok := counters[ca]
		if !ok {
			cl = &seccrypto.CounterLine{}
			counters[ca] = cl
			ctrAddrs = append(ctrAddrs, ca)
		}
		cl.Bump(lay.CounterSlotOf(a))
		written[a] = pattern(a, v)
		touched[lay.CounterLineIndex(ca)] = true
		now = e.WriteBack(now, a, written[a]) + 10
	}
	check := func(when string, settled bool) {
		t.Helper()
		if !rootPerWriteBack[d.Name] && !settled {
			return
		}
		nodes, root := tree.Rebuild(model, ctrAddrs)
		reg := view.Registers()
		if reg.RootNew != root {
			t.Fatalf("%s %s: ROOTnew differs from the rebuilt root", d.Name, when)
		}
		if (oneRoot[d.Name] || settled) && reg.RootOld != reg.RootNew {
			t.Fatalf("%s %s: ROOTold differs from ROOTnew", d.Name, when)
		}
		for leaf := range touched {
			for _, pa := range lay.PathFrom(nil, leaf) {
				got, ok := view.OnChip(pa)
				if !ok {
					continue
				}
				want, rebuilt := nodes[pa]
				if !rebuilt {
					level, _ := lay.NodeAt(pa)
					want = tree.DefaultNode(level)
				}
				if got != want {
					level, idx := lay.NodeAt(pa)
					t.Fatalf("%s %s: on-chip node level %d index %d differs from the rebuilt one", d.Name, when, level, idx)
				}
			}
		}
	}

	for i, op := range ops {
		a := mem.Addr(lazyPages[int(op>>3)%len(lazyPages)]*mem.PageSize) + mem.Addr(op&3)*mem.LineSize
		switch op % 8 {
		case 0, 1, 2, 3:
			writeBack(a, byte(i))
		case 4:
			for k := 0; k <= seccrypto.MinorMax; k++ {
				writeBack(a, byte(i+k))
			}
		case 5:
			touched[lay.CounterLineIndex(lay.CounterLineOf(a))] = true
			pt, done := e.ReadBlock(now, a)
			if want, ok := written[a]; ok && pt != want {
				t.Fatalf("%s op %d: read of %#x returned stale data", d.Name, i, uint64(a))
			}
			now = done + 10
		case 6:
			now = e.Settle(now) + 10
			check("after settle", true)
			continue
		case 7:
			check("at a check", false)
		}
	}
	// Leave two paths recorded for the crash to hash.
	writeBack(mem.Addr(lazyPages[2]*mem.PageSize), 1)
	writeBack(mem.Addr(lazyPages[6]*mem.PageSize), 2)
	if v := e.Stats().IntegrityViolations; v != 0 {
		t.Fatalf("%s: %d integrity violations on an untampered run", d.Name, v)
	}
	if !rootPerWriteBack[d.Name] {
		// These designs record no paths: the accessor reads what Crash
		// keeps.
		reg := view.Registers()
		if img := e.Crash(); img.TCB.RootNew != reg.RootNew || img.TCB.RootOld != reg.RootOld {
			t.Fatalf("%s: the crash image's roots differ from the registers", d.Name)
		}
		return
	}
	// Crash itself must hash what the last check left recorded.
	img := e.Crash()
	if _, root := tree.Rebuild(model, ctrAddrs); img.TCB.RootNew != root {
		t.Fatalf("%s: the crash image's ROOTnew differs from the rebuilt root", d.Name)
	}
	if oneRoot[d.Name] && img.TCB.RootOld != img.TCB.RootNew {
		t.Fatalf("%s: the crash image's ROOTold differs from its ROOTnew", d.Name)
	}
}

// TestLazyPathMatchesRebuild holds every design's lazily hashed tree to
// a from-scratch rebuild over a random mix of write-backs, reads,
// settles, counter overflows and a crash.
func TestLazyPathMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	ops := make([]byte, 300)
	for i := range ops {
		ops[i] = byte(rng.Intn(256))
		if op := ops[i] % 8; (op == 4 || op == 7) && rng.Intn(4) != 0 {
			ops[i] -= 4 // keep bursts and checks rarer than write-backs
		}
	}
	for _, d := range design.All() {
		t.Run(d.Name, func(t *testing.T) { runLazyPath(t, d, ops) })
	}
}

// FuzzLazyPath runs the same driver over arbitrary op strings.
func FuzzLazyPath(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 5, 6, 7})
	f.Add([]byte{8, 16, 24, 32, 4, 13, 6, 40, 48, 56, 64, 72, 80, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for _, d := range design.All() {
			runLazyPath(t, d, ops)
		}
	})
}
