// Package core implements the paper's contribution: the cc-NVM secure
// memory controller with its epoch-based consistent Bonsai Merkle Tree,
// the drainer and its dirty address queue, the atomic draining protocol
// over the ADR write pending queue, deferred spreading of Merkle-tree
// updates, and the Nwb register that closes the deferred-spreading
// replay window. Both evaluated variants live here: CCNVM (with
// deferred spreading) and the cc-NVM w/o DS ablation.
package core

import (
	"math/bits"

	"ccnvm/internal/mem"
)

// DirtyAddrQueue is the drainer's tracking structure: the set of
// metadata line addresses (counter lines and Merkle-tree nodes) that
// belong to the current epoch and will be flushed, atomically, at the
// next drain. Entries are reserved eagerly — a write-back reserves its
// counter line and every path node even before the nodes are dirtied,
// as deferred spreading computes them only at drain time.
//
// Like the hardware it models, the queue is a fixed piece of memory
// sized once from M: the addresses in insertion order, plus an
// open-addressed lookup table (linear probing, at most half full) from
// address to insertion position. A table slot belongs to the current
// epoch only when its generation stamp equals the queue's, so Clear is
// a counter bump, and since entries are never removed one at a time the
// table needs no tombstones. Iteration follows the order slice, never
// the table, so it repeats from run to run.
//
// Capacity is the paper's M parameter; exhaustion is draining trigger 1.
type DirtyAddrQueue struct {
	order []mem.Addr // insertion order; cap(order) is the capacity M
	slots []queueSlot
	mask  uint64
	gen   uint32 // current epoch's stamp, never 0
}

// queueSlot is one lookup-table entry; gen == 0 never matches a live
// queue, so the zero slot is empty.
type queueSlot struct {
	addr mem.Addr
	gen  uint32
	pos  int32 // index into order
}

// NewDirtyAddrQueue builds a queue with the given capacity (entries).
func NewDirtyAddrQueue(capacity int) *DirtyAddrQueue {
	if capacity <= 0 {
		panic("core: dirty address queue capacity must be positive")
	}
	size := 1 << bits.Len(uint(2*capacity-1)) // power of two, load factor <= 1/2
	return &DirtyAddrQueue{
		order: make([]mem.Addr, 0, capacity),
		slots: make([]queueSlot, size),
		mask:  uint64(size - 1),
		gen:   1,
	}
}

// Capacity returns M.
func (q *DirtyAddrQueue) Capacity() int { return cap(q.order) }

// Len returns the number of tracked addresses.
func (q *DirtyAddrQueue) Len() int { return len(q.order) }

// Free returns the number of unreserved entries.
func (q *DirtyAddrQueue) Free() int { return cap(q.order) - len(q.order) }

// find probes for the line-aligned address a. It returns the slot that
// holds a, or the empty slot where a would be inserted.
func (q *DirtyAddrQueue) find(a mem.Addr) (slot *queueSlot, found bool) {
	for i := mem.Mix64(uint64(a)) & q.mask; ; i = (i + 1) & q.mask {
		s := &q.slots[i]
		if s.gen != q.gen {
			return s, false
		}
		if s.addr == a {
			return s, true
		}
	}
}

// Index returns the insertion position of a — its index in Addrs — or
// -1 when a is not tracked.
func (q *DirtyAddrQueue) Index(a mem.Addr) int {
	if s, ok := q.find(mem.Align(a)); ok {
		return int(s.pos)
	}
	return -1
}

// Contains reports whether a is already tracked.
func (q *DirtyAddrQueue) Contains(a mem.Addr) bool { return q.Index(a) >= 0 }

// Missing returns how many of addrs are not yet tracked; the caller
// checks it against Free before reserving.
func (q *DirtyAddrQueue) Missing(addrs []mem.Addr) int {
	n := 0
	for _, a := range addrs {
		if !q.Contains(a) {
			n++
		}
	}
	return n
}

// Reserve tracks every address in addrs, skipping duplicates. It panics
// on overflow: callers must drain first when Missing exceeds Free, as
// the hardware blocks the write-back in that case.
func (q *DirtyAddrQueue) Reserve(addrs ...mem.Addr) {
	for _, a := range addrs {
		a = mem.Align(a)
		s, found := q.find(a)
		if found {
			continue
		}
		if len(q.order) == cap(q.order) {
			panic("core: dirty address queue overflow; drain before reserving")
		}
		*s = queueSlot{addr: a, gen: q.gen, pos: int32(len(q.order))}
		q.order = append(q.order, a)
	}
}

// Addrs returns the tracked addresses in insertion order. The slice is
// the queue's own memory: it must not be modified and is valid until
// the next Reserve or Clear.
func (q *DirtyAddrQueue) Addrs() []mem.Addr { return q.order }

// Clear empties the queue after a committed drain: one generation bump
// orphans every table slot. Only when the stamp wraps are the slots
// actually wiped, so a slot left over from 2^32 epochs ago cannot come
// back to life.
func (q *DirtyAddrQueue) Clear() {
	q.order = q.order[:0]
	q.gen++
	if q.gen == 0 {
		clear(q.slots)
		q.gen = 1
	}
}
