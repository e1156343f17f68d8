// Package cache implements the set-associative write-back caches used
// throughout the simulated hierarchy: the L1 and L2 data caches and the
// on-chip metadata cache (counter cache + Merkle-tree cache). All are
// 64 B-line, LRU-replacement, write-allocate caches, as in the paper's
// configuration.
//
// The cache is purely a state machine: it tracks presence, dirtiness and
// recency and reports hits, misses and evictions. Latency is charged by
// the caller (the simulator), which keeps one implementation reusable
// for every cache level.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"ccnvm/internal/mem"
)

// Stats accumulates cache events. Counters are plain uint64s read at end
// of simulation.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64 // total lines displaced
	DirtyEvicts uint64 // displaced lines that were dirty (write-backs)
	Writes      uint64 // stores / line updates
	Reads       uint64
}

// HitRatio returns hits/(hits+misses), or 0 for an untouched cache.
func (s *Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type way struct {
	tag   uint64
	data  mem.Line
	valid bool
	dirty bool
	lru   uint64 // higher = more recently used
}

// Cache is one set-associative write-back cache. Create with New; the
// zero value is not usable.
type Cache struct {
	name     string
	sets     uint64
	ways     int
	lines    []way // sets × ways, row-major
	tick     uint64
	stats    Stats
	onEvict  func(addr mem.Addr, line mem.Line, dirty bool)
	setShift uint
}

// Config describes a cache. SizeBytes must be ways × power-of-two × 64.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
}

// New builds a cache. OnEvict, if non-nil, is invoked for every line
// displaced by a fill or invalidated by Flush, with its dirtiness; the
// owner uses it to propagate write-backs down the hierarchy.
func New(cfg Config, onEvict func(addr mem.Addr, line mem.Line, dirty bool)) (*Cache, error) {
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: ways must be positive, got %d", cfg.Name, cfg.Ways)
	}
	lineCount := cfg.SizeBytes / mem.LineSize
	if lineCount <= 0 || lineCount%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible into %d ways of 64 B lines", cfg.Name, cfg.SizeBytes, cfg.Ways)
	}
	sets := uint64(lineCount / cfg.Ways)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d is not a power of two", cfg.Name, sets)
	}
	return &Cache{
		name:     cfg.Name,
		sets:     sets,
		ways:     cfg.Ways,
		lines:    make([]way, lineCount),
		onEvict:  onEvict,
		setShift: uint(bits.TrailingZeros64(uint64(mem.LineSize))),
	}, nil
}

// MustNew is New with panic-on-error, for fixed configurations.
func MustNew(cfg Config, onEvict func(addr mem.Addr, line mem.Line, dirty bool)) *Cache {
	c, err := New(cfg, onEvict)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Cache) locate(a mem.Addr) (setBase int, tag uint64) {
	blk := uint64(a) >> c.setShift
	set := blk & (c.sets - 1)
	return int(set) * c.ways, blk / c.sets
}

func (c *Cache) find(a mem.Addr) *way {
	base, tag := c.locate(a)
	for i := 0; i < c.ways; i++ {
		w := &c.lines[base+i]
		if w.valid && w.tag == tag {
			return w
		}
	}
	return nil
}

// Contains reports whether a is cached, without touching LRU state or
// statistics. The drainer uses it to probe for cached ancestors.
func (c *Cache) Contains(a mem.Addr) bool { return c.find(mem.Align(a)) != nil }

// IsDirty reports whether a is cached and dirty, without touching LRU
// state or statistics.
func (c *Cache) IsDirty(a mem.Addr) bool {
	w := c.find(mem.Align(a))
	return w != nil && w.dirty
}

// Read looks up a. On a hit it returns the line and true. On a miss it
// returns false; the caller fetches the line from below and calls Fill.
func (c *Cache) Read(a mem.Addr) (mem.Line, bool) {
	a = mem.Align(a)
	c.stats.Reads++
	if w := c.find(a); w != nil {
		c.stats.Hits++
		c.touch(w)
		return w.data, true
	}
	c.stats.Misses++
	return mem.Line{}, false
}

// Write updates a cached line, marking it dirty. It returns false on a
// miss (write-allocate: the caller fills first, then writes).
func (c *Cache) Write(a mem.Addr, l mem.Line) bool {
	a = mem.Align(a)
	c.stats.Writes++
	if w := c.find(a); w != nil {
		c.stats.Hits++
		w.data = l
		w.dirty = true
		c.touch(w)
		return true
	}
	c.stats.Misses++
	return false
}

// Touch is Write without new content: on a hit it marks a dirty, makes
// it most recently used and counts the write; on a miss it returns
// false and counts nothing. The content arrives later, by Overwrite.
func (c *Cache) Touch(a mem.Addr) bool {
	w := c.find(mem.Align(a))
	if w == nil {
		return false
	}
	c.stats.Writes++
	c.stats.Hits++
	w.dirty = true
	c.touch(w)
	return true
}

// Fill inserts line l for address a (after a miss was serviced from
// below), evicting the LRU way of the set if needed. dirty seeds the
// line's dirty bit: false for demand fills, true when installing a
// freshly written line. It returns the evicted victim, if any, via the
// OnEvict callback.
func (c *Cache) Fill(a mem.Addr, l mem.Line, dirty bool) {
	a = mem.Align(a)
	if w := c.find(a); w != nil {
		// Already present (e.g. racing fill): update in place.
		w.data = l
		w.dirty = w.dirty || dirty
		c.touch(w)
		return
	}
	base, tag := c.locate(a)
	victim := &c.lines[base]
	for i := 1; i < c.ways; i++ {
		w := &c.lines[base+i]
		if !w.valid {
			victim = w
			break
		}
		if victim.valid && w.lru < victim.lru {
			victim = w
		}
	}
	if victim.valid {
		c.stats.Evictions++
		if victim.dirty {
			c.stats.DirtyEvicts++
		}
		if c.onEvict != nil {
			c.onEvict(c.addrAt(victim, base/c.ways), victim.data, victim.dirty)
		}
	}
	victim.tag = tag
	victim.data = l
	victim.valid = true
	victim.dirty = dirty
	c.touch(victim)
}

// addrAt reconstructs the address of the occupied way w living in set.
func (c *Cache) addrAt(w *way, set int) mem.Addr {
	return mem.Addr((w.tag*c.sets + uint64(set)) << c.setShift)
}

func (c *Cache) touch(w *way) {
	c.tick++
	w.lru = c.tick
}

// CleanLine clears the dirty bit of a cached line without evicting it,
// modelling a write-back that leaves the line resident (as the drainer
// does when it flushes dirty metadata to the WPQ).
func (c *Cache) CleanLine(a mem.Addr) {
	if w := c.find(mem.Align(a)); w != nil {
		w.dirty = false
	}
}

// Overwrite replaces a cached line's content without touching LRU
// state, dirtiness or statistics, reporting whether a was cached. It
// stores content computed after the fact, not a new write.
func (c *Cache) Overwrite(a mem.Addr, l mem.Line) bool {
	if w := c.find(mem.Align(a)); w != nil {
		w.data = l
		return true
	}
	return false
}

// Peek returns a cached line's content without touching LRU state or
// statistics.
func (c *Cache) Peek(a mem.Addr) (mem.Line, bool) {
	if w := c.find(mem.Align(a)); w != nil {
		return w.data, true
	}
	return mem.Line{}, false
}

// DropAll silently invalidates every line without invoking OnEvict:
// power-failure semantics for volatile caches.
func (c *Cache) DropAll() {
	for i := range c.lines {
		c.lines[i].valid = false
	}
}

// Invalidate drops a line without invoking OnEvict, returning its
// content and dirtiness if it was present. Crash modelling uses it to
// lose cached state.
func (c *Cache) Invalidate(a mem.Addr) (mem.Line, bool, bool) {
	if w := c.find(mem.Align(a)); w != nil {
		w.valid = false
		return w.data, w.dirty, true
	}
	return mem.Line{}, false, false
}

// FlushAll evicts every valid line through OnEvict (dirty or clean) and
// empties the cache. Used at end of simulation to settle state.
func (c *Cache) FlushAll() {
	for i := range c.lines {
		w := &c.lines[i]
		if !w.valid {
			continue
		}
		c.stats.Evictions++
		if w.dirty {
			c.stats.DirtyEvicts++
		}
		if c.onEvict != nil {
			c.onEvict(c.addrAt(w, i/c.ways), w.data, w.dirty)
		}
		w.valid = false
	}
}

// DirtyAddrs returns the addresses of all dirty lines, ascending.
func (c *Cache) DirtyAddrs() []mem.Addr {
	var out []mem.Addr
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			out = append(out, c.addrAt(&c.lines[i], i/c.ways))
		}
	}
	slices.Sort(out)
	return out
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Name returns the configured cache name.
func (c *Cache) Name() string { return c.name }

// Len reports the number of valid lines.
func (c *Cache) Len() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}
