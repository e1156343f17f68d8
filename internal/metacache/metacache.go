// Package metacache implements the on-chip security-metadata cache: the
// combined counter cache and Merkle-tree cache that the paper places at
// the L2 level (128 KB, 8-way, 32-cycle access). Beyond plain caching it
// tracks, per dirty line, how many times the line has been updated since
// it became dirty — the quantity behind the paper's update-limit trigger
// N (draining trigger 3 for cc-NVM, the counter stop-loss for Osiris).
//
// Contents are volatile: a crash loses everything (Lose), which is
// precisely the hazard the consistency schemes under study manage.
package metacache

import (
	"ccnvm/internal/cache"
	"ccnvm/internal/mem"
)

// Cache is the metadata cache. Create with New.
type Cache struct {
	c       *cache.Cache
	updates map[mem.Addr]uint64
}

// Config sizes the cache; zero values select the paper's configuration.
type Config struct {
	SizeBytes int // default 128 KiB
	Ways      int // default 8
}

// New builds the metadata cache. onEvict fires for every displaced line
// with its dirtiness; each consistency design supplies its own policy
// (write through, drop and recover later, or trigger a drain).
func New(cfg Config, onEvict func(addr mem.Addr, line mem.Line, dirty bool)) *Cache {
	if cfg.SizeBytes == 0 {
		cfg.SizeBytes = 128 << 10
	}
	if cfg.Ways == 0 {
		cfg.Ways = 8
	}
	m := &Cache{updates: make(map[mem.Addr]uint64)}
	m.c = cache.MustNew(cache.Config{Name: "meta", SizeBytes: cfg.SizeBytes, Ways: cfg.Ways},
		func(a mem.Addr, l mem.Line, dirty bool) {
			delete(m.updates, a)
			if onEvict != nil {
				onEvict(a, l, dirty)
			}
		})
	return m
}

// Read looks up a line; miss means the caller fetches and Fills.
func (m *Cache) Read(a mem.Addr) (mem.Line, bool) { return m.c.Read(a) }

// Fill installs a line fetched (and verified) from NVM, clean.
func (m *Cache) Fill(a mem.Addr, l mem.Line) { m.c.Fill(a, l, false) }

// FillDirty installs a line that already differs from NVM (e.g. an
// Osiris counter corrected by online recovery).
func (m *Cache) FillDirty(a mem.Addr, l mem.Line) { m.c.Fill(a, l, true) }

// Update writes a line that must already be resident, marking it dirty
// and advancing its update count. It returns the count of updates since
// the line became dirty. Callers compare it against the N trigger.
func (m *Cache) Update(a mem.Addr, l mem.Line) uint64 {
	a = mem.Align(a)
	if !m.c.Write(a, l) {
		panic("metacache: Update of non-resident line")
	}
	m.updates[a]++
	return m.updates[a]
}

// Touch is Update of a resident line whose new content is not known
// yet: dirty bit, LRU position, update count and statistics move as
// Update moves them, the content stays. It returns false, changing
// nothing, when a is not resident.
func (m *Cache) Touch(a mem.Addr) bool {
	a = mem.Align(a)
	if !m.c.Touch(a) {
		return false
	}
	m.updates[a]++
	return true
}

// Overwrite replaces the content of a resident line and nothing else:
// no LRU, dirtiness, update-count or statistics side effect. It reports
// whether a was resident. The lazily hashed Merkle paths store their
// recomputed nodes with it, after Touch did the bookkeeping, so hashing
// late leaves the cache exactly as hashing in the walk did.
func (m *Cache) Overwrite(a mem.Addr, l mem.Line) bool { return m.c.Overwrite(a, l) }

// Updates returns the update count of a since it became dirty.
func (m *Cache) Updates(a mem.Addr) uint64 { return m.updates[mem.Align(a)] }

// Clean marks a line clean after it has been persisted, resetting its
// update count. The line stays resident.
func (m *Cache) Clean(a mem.Addr) {
	a = mem.Align(a)
	m.c.CleanLine(a)
	delete(m.updates, a)
}

// Contains reports residency without touching LRU or stats.
func (m *Cache) Contains(a mem.Addr) bool { return m.c.Contains(a) }

// IsDirty reports dirtiness without touching LRU or stats.
func (m *Cache) IsDirty(a mem.Addr) bool { return m.c.IsDirty(a) }

// Peek returns a line's content without touching LRU or statistics; the
// drainer uses it when flushing tracked lines.
func (m *Cache) Peek(a mem.Addr) (mem.Line, bool) { return m.c.Peek(a) }

// DirtyAddrs lists all dirty resident lines, ascending.
func (m *Cache) DirtyAddrs() []mem.Addr { return m.c.DirtyAddrs() }

// Lose drops the entire contents without eviction callbacks: the power
// failed and on-chip state is gone.
func (m *Cache) Lose() {
	m.c.DropAll()
	m.updates = make(map[mem.Addr]uint64)
}

// Stats returns the underlying cache statistics.
func (m *Cache) Stats() cache.Stats { return m.c.Stats() }
