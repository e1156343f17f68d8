package mem

import "sort"

// storeShards is the number of line-map shards in a Store. Sharding
// serves copy-on-write cloning: a crash snapshot shares all shard maps
// with its source, and a later write re-copies only the one shard it
// touches instead of the whole image. 64 shards keep the per-write copy
// under ~2% of the store for typical images. Must be a power of two.
const storeShards = 64

// storeShard is one slice of the address space. A shard whose owned
// flag is false shares its map with at least one other Store (a clone
// ancestor or descendant) and must re-copy it before mutating.
type storeShard struct {
	lines map[Addr]Line
	owned bool
}

// ensureOwned makes the shard's map private to this store, copying it
// if it is currently shared (or nil). After it returns the shard may be
// mutated freely.
func (sh *storeShard) ensureOwned() {
	if sh.owned && sh.lines != nil {
		return
	}
	m := make(map[Addr]Line, len(sh.lines)+1)
	for a, l := range sh.lines {
		m[a] = l
	}
	sh.lines = m
	sh.owned = true
}

// Store is a sparse line-granular memory image. Absent lines read as
// zero, which the security layer interprets as "never written": the
// functional crypto layer derives deterministic default counters, HMACs
// and tree nodes for untouched lines, so a sparse image behaves exactly
// like a zero-initialized DIMM without materializing it.
//
// Internally the image is sharded so Clone is O(shards), not O(lines):
// crash-consistency experiments snapshot the NVM image at every
// potential crash point, and with copy-on-write sharing each snapshot
// costs a handful of map-header copies plus re-copying only the shards
// actually written afterwards.
//
// The zero value is an empty store ready to use.
type Store struct {
	shards [storeShards]storeShard
}

// shardOf selects the shard for a line-aligned address. Consecutive
// lines round-robin across shards, so a localized write burst after a
// snapshot still dirties few shards only when it is small, and spreads
// copy cost evenly when it is not.
func shardOf(a Addr) uint64 { return (uint64(a) / LineSize) & (storeShards - 1) }

// Read returns the line at a and whether it has ever been written.
// Absent lines read as all zero.
func (s *Store) Read(a Addr) (Line, bool) {
	a = Align(a)
	l, ok := s.shards[shardOf(a)].lines[a]
	return l, ok
}

// Write stores line l at address a.
func (s *Store) Write(a Addr, l Line) {
	a = Align(a)
	sh := &s.shards[shardOf(a)]
	sh.ensureOwned()
	sh.lines[a] = l
}

// Delete removes the line at a, returning it to the default (zero)
// state. Used by tests to model loss.
func (s *Store) Delete(a Addr) {
	a = Align(a)
	sh := &s.shards[shardOf(a)]
	if _, ok := sh.lines[a]; !ok {
		return // nothing to delete; don't privatize the shard for a no-op
	}
	sh.ensureOwned()
	delete(sh.lines, a)
}

// Len reports how many distinct lines have been written.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].lines)
	}
	return n
}

// Clone returns a logically independent copy of the store. Used to
// snapshot NVM images at crash points. The copy is lazy: both stores
// share the shard maps until one of them writes, at which point the
// writer re-copies just the affected shard. Either side may therefore
// be mutated or discarded without the other noticing.
func (s *Store) Clone() *Store {
	c := &Store{}
	for i := range s.shards {
		s.shards[i].owned = false
		c.shards[i].lines = s.shards[i].lines
	}
	return c
}

// Addrs returns the addresses of all written lines in ascending order.
// Deterministic ordering keeps recovery scans and tests reproducible.
func (s *Store) Addrs() []Addr {
	out := make([]Addr, 0, s.Len())
	for i := range s.shards {
		for a := range s.shards[i].lines {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Equal reports whether two stores hold identical contents, treating
// absent lines as zero.
func (s *Store) Equal(o *Store) bool {
	var zero Line
	for i := range s.shards {
		sl, ol := s.shards[i].lines, o.shards[i].lines
		for a, l := range sl {
			got, ok := ol[a]
			if !ok {
				got = zero
			}
			if l != got {
				return false
			}
		}
		for a, l := range ol {
			if _, ok := sl[a]; !ok && l != zero {
				return false
			}
		}
	}
	return true
}
