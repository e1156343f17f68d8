package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ccnvm/internal/mem"
)

func TestQueueBasics(t *testing.T) {
	q := NewDirtyAddrQueue(4)
	if q.Capacity() != 4 || q.Len() != 0 || q.Free() != 4 {
		t.Fatal("fresh queue state wrong")
	}
	q.Reserve(0, 64)
	if q.Len() != 2 || q.Free() != 2 {
		t.Fatalf("after reserve: len=%d free=%d", q.Len(), q.Free())
	}
	if !q.Contains(0) || !q.Contains(64) || q.Contains(128) {
		t.Fatal("Contains wrong")
	}
}

func TestQueueDeduplicates(t *testing.T) {
	q := NewDirtyAddrQueue(4)
	q.Reserve(0, 0, 64, 0)
	if q.Len() != 2 {
		t.Fatalf("duplicates counted: len=%d", q.Len())
	}
	// Unaligned addresses normalize to the same line.
	q.Reserve(65)
	if q.Len() != 2 {
		t.Fatal("unaligned duplicate counted")
	}
}

func TestQueueMissing(t *testing.T) {
	q := NewDirtyAddrQueue(8)
	q.Reserve(0, 64)
	if got := q.Missing([]mem.Addr{0, 64, 128, 192}); got != 2 {
		t.Fatalf("Missing = %d, want 2", got)
	}
}

func TestQueueOverflowPanics(t *testing.T) {
	q := NewDirtyAddrQueue(2)
	q.Reserve(0, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	q.Reserve(128)
}

func TestQueueClear(t *testing.T) {
	q := NewDirtyAddrQueue(2)
	q.Reserve(0, 64)
	q.Clear()
	if q.Len() != 0 || q.Contains(0) {
		t.Fatal("Clear incomplete")
	}
	q.Reserve(128, 192) // capacity restored
	if q.Len() != 2 {
		t.Fatal("queue unusable after Clear")
	}
}

func TestQueueInsertionOrder(t *testing.T) {
	q := NewDirtyAddrQueue(8)
	q.Reserve(192, 0, 64)
	got := q.Addrs()
	want := []mem.Addr{192, 0, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Addrs = %v, want %v", got, want)
		}
	}
}

func TestQueueZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewDirtyAddrQueue(0)
}

func TestQueueInvariantProperty(t *testing.T) {
	// Property: Len + Free == Capacity, and Missing + already-present ==
	// request size, for random reservation sequences.
	f := func(raw []uint16) bool {
		q := NewDirtyAddrQueue(64)
		for _, r := range raw {
			a := mem.Addr(r) * mem.LineSize
			if q.Contains(a) {
				continue
			}
			if q.Free() == 0 {
				q.Clear()
			}
			q.Reserve(a)
			if q.Len()+q.Free() != q.Capacity() {
				return false
			}
			if !q.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// queueModel is the reference the open-addressed queue is held to: a
// map for membership and a slice for order.
type queueModel struct {
	pos   map[mem.Addr]int
	order []mem.Addr
}

func (m *queueModel) reserve(a mem.Addr) {
	a = mem.Align(a)
	if _, ok := m.pos[a]; !ok {
		m.pos[a] = len(m.order)
		m.order = append(m.order, a)
	}
}

func (m *queueModel) index(a mem.Addr) int {
	if i, ok := m.pos[mem.Align(a)]; ok {
		return i
	}
	return -1
}

func (m *queueModel) missing(addrs []mem.Addr) int {
	n := 0
	for _, a := range addrs {
		if m.index(a) < 0 {
			n++
		}
	}
	return n
}

func (m *queueModel) clear() {
	m.pos = map[mem.Addr]int{}
	m.order = m.order[:0]
}

// TestQueueMatchesModel runs random Reserve/Missing/Contains/Index/Clear
// sequences against the reference at the capacities that matter: 1, the
// clamp floor of the default layout (counter line plus its path), the
// largest M of Fig. 6b, and one that is not a power of two — each also
// started just below a generation-stamp wrap, so that stale slots of the
// epochs before the wipe must stay dead after it.
func TestQueueMatchesModel(t *testing.T) {
	floor := 1 + mem.MustLayout(1<<30).InternalLevels
	for _, capacity := range []int{1, floor, 40, 64} {
		for _, startGen := range []uint32{1, math.MaxUint32 - 2} {
			q := NewDirtyAddrQueue(capacity)
			q.gen = startGen
			m := &queueModel{}
			m.clear()
			rng := rand.New(rand.NewSource(int64(capacity)))
			// A universe a few times the capacity: hits, misses and
			// probe-chain collisions all occur.
			pick := func() mem.Addr {
				return mem.Addr(rng.Intn(4*capacity+3))*mem.LineSize + mem.Addr(rng.Intn(mem.LineSize))
			}
			clears := 0
			for step := 0; step < 20000; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					batch := make([]mem.Addr, 1+rng.Intn(3))
					for i := range batch {
						batch[i] = pick()
					}
					if got, want := q.Missing(batch), m.missing(batch); got != want {
						t.Fatalf("cap %d step %d: Missing = %d, want %d", capacity, step, got, want)
					}
					for _, a := range batch {
						if m.index(a) < 0 && len(m.order) == capacity {
							continue // would overflow: the engine drains first
						}
						q.Reserve(a)
						m.reserve(a)
					}
				case op < 9:
					a := pick()
					if got, want := q.Index(a), m.index(a); got != want || q.Contains(a) != (want >= 0) {
						t.Fatalf("cap %d step %d: Index(%#x) = %d, want %d", capacity, step, uint64(a), got, want)
					}
				default:
					q.Clear()
					m.clear()
					clears++
				}
				if q.Len() != len(m.order) || q.Free() != capacity-len(m.order) || !slices.Equal(q.Addrs(), m.order) {
					t.Fatalf("cap %d step %d: queue %v, model %v", capacity, step, q.Addrs(), m.order)
				}
			}
			if wrapped := q.gen < startGen; wrapped != (startGen != 1) || clears < 3 {
				t.Fatalf("cap %d: generation %d after %d clears from %d: the wrap case was not exercised as intended", capacity, q.gen, clears, startGen)
			}
		}
	}
}
