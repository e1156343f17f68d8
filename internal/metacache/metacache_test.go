package metacache

import (
	"testing"

	"ccnvm/internal/mem"
)

func line(b byte) mem.Line {
	var l mem.Line
	l[0] = b
	return l
}

func TestDefaultsMatchPaper(t *testing.T) {
	m := New(Config{}, nil)
	// 128 KiB / 64 B / 8 ways = 256 sets; just verify capacity via fills.
	for i := 0; i < 128<<10/mem.LineSize; i++ {
		m.Fill(mem.Addr(i*mem.LineSize), line(1))
	}
	if st := m.Stats(); st.Evictions != 0 {
		t.Fatalf("paper-sized cache evicted %d lines while filling exactly its capacity", st.Evictions)
	}
}

func TestUpdateCountTracksDirtySpan(t *testing.T) {
	m := New(Config{SizeBytes: 1024, Ways: 2}, nil)
	m.Fill(0, line(0))
	if n := m.Update(0, line(1)); n != 1 {
		t.Fatalf("first update count = %d", n)
	}
	if n := m.Update(0, line(2)); n != 2 {
		t.Fatalf("second update count = %d", n)
	}
	m.Clean(0)
	if m.Updates(0) != 0 {
		t.Fatal("Clean did not reset update count")
	}
	if m.IsDirty(0) {
		t.Fatal("Clean left line dirty")
	}
	if !m.Contains(0) {
		t.Fatal("Clean evicted the line")
	}
	if n := m.Update(0, line(3)); n != 1 {
		t.Fatalf("count after clean = %d, want 1", n)
	}
}

func TestUpdateNonResidentPanics(t *testing.T) {
	m := New(Config{SizeBytes: 1024, Ways: 2}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Update of absent line did not panic")
		}
	}()
	m.Update(0, line(1))
}

func TestEvictionResetsUpdateCount(t *testing.T) {
	var evicted []mem.Addr
	m := New(Config{SizeBytes: 128, Ways: 2}, func(a mem.Addr, _ mem.Line, d bool) {
		if d {
			evicted = append(evicted, a)
		}
	})
	// 1 set, 2 ways: three distinct lines force an eviction.
	m.Fill(0, line(0))
	m.Update(0, line(1))
	m.Fill(64, line(0))
	m.Fill(128, line(0)) // evicts 0 (dirty, LRU)
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("dirty evictions = %v, want [0]", evicted)
	}
	// Re-fill and update: count restarts.
	m.Fill(0, line(0))
	if n := m.Update(0, line(2)); n != 1 {
		t.Fatalf("update count after re-fill = %d, want 1", n)
	}
}

func TestFillDirty(t *testing.T) {
	m := New(Config{SizeBytes: 1024, Ways: 2}, nil)
	m.FillDirty(0, line(5))
	if !m.IsDirty(0) {
		t.Fatal("FillDirty left line clean")
	}
}

func TestPeekInvisible(t *testing.T) {
	m := New(Config{SizeBytes: 1024, Ways: 2}, nil)
	m.Fill(0, line(7))
	before := m.Stats()
	l, ok := m.Peek(0)
	if !ok || l != line(7) {
		t.Fatal("Peek failed")
	}
	if _, ok := m.Peek(64); ok {
		t.Fatal("Peek hit an absent line")
	}
	if m.Stats() != before {
		t.Fatal("Peek perturbed statistics")
	}
}

func TestLose(t *testing.T) {
	m := New(Config{SizeBytes: 1024, Ways: 2}, nil)
	m.Fill(0, line(1))
	m.Update(0, line(2))
	m.Lose()
	if m.Contains(0) {
		t.Fatal("contents survived power failure")
	}
	if m.Updates(0) != 0 {
		t.Fatal("update counts survived power failure")
	}
	if len(m.DirtyAddrs()) != 0 {
		t.Fatal("dirty lines survived power failure")
	}
}

func TestDirtyAddrs(t *testing.T) {
	m := New(Config{SizeBytes: 1024, Ways: 2}, nil)
	m.Fill(0, line(0))
	m.Fill(64, line(0))
	m.Update(64, line(1))
	d := m.DirtyAddrs()
	if len(d) != 1 || d[0] != 64 {
		t.Fatalf("DirtyAddrs = %v, want [64]", d)
	}
}

// TestTouchThenOverwriteIsUpdate pins the lazy path's split of Update:
// Touch does the bookkeeping and Overwrite supplies the content later,
// and together they leave the cache as one Update does — content,
// dirty bit, update count, statistics and LRU order (which line the
// next conflicting fill evicts).
func TestTouchThenOverwriteIsUpdate(t *testing.T) {
	const ways, sets = 2, 8
	run := func(update func(m *Cache, a mem.Addr, l mem.Line)) (*Cache, []mem.Addr) {
		var evicted []mem.Addr
		m := New(Config{SizeBytes: ways * sets * mem.LineSize, Ways: ways}, func(a mem.Addr, _ mem.Line, _ bool) {
			evicted = append(evicted, a)
		})
		set := mem.Addr(sets * mem.LineSize) // stride that maps to one set
		m.Fill(0, line(1))
		m.Fill(set, line(2))
		update(m, 0, line(3)) // 0 becomes most recently used
		m.Fill(2*set, line(4))
		return m, evicted
	}
	want, wantEv := run(func(m *Cache, a mem.Addr, l mem.Line) { m.Update(a, l) })
	got, gotEv := run(func(m *Cache, a mem.Addr, l mem.Line) {
		if !m.Touch(a) || !m.Overwrite(a, l) {
			t.Fatal("Touch or Overwrite missed a resident line")
		}
	})
	wl, _ := want.Peek(0)
	gl, _ := got.Peek(0)
	if gl != wl || got.IsDirty(0) != want.IsDirty(0) || got.Updates(0) != want.Updates(0) ||
		got.Stats() != want.Stats() || len(gotEv) != 1 || len(wantEv) != 1 || gotEv[0] != wantEv[0] {
		t.Fatalf("Touch+Overwrite left %v/%v/%d/%+v evicting %v, Update left %v/%v/%d/%+v evicting %v",
			gl[0], got.IsDirty(0), got.Updates(0), got.Stats(), gotEv, wl[0], want.IsDirty(0), want.Updates(0), want.Stats(), wantEv)
	}
	before := got.Stats()
	if got.Touch(64) || got.Overwrite(64, line(9)) {
		t.Fatal("Touch or Overwrite reported a miss as resident")
	}
	if got.Stats() != before || got.Contains(64) {
		t.Fatal("a missed Touch or Overwrite changed the cache")
	}
}
