package store

import "ccnvm/internal/mem"

// lineSetChunk is the number of data lines one chunk of a lineSet
// covers: 4096 lines, 256 KiB of data in a 512-byte bitmap.
const lineSetChunk = 1 << 12

// lineSet is a set of data-line addresses as a bitmap, one bit per
// line, kept in chunks allocated when a line in them is first added: a
// store's memory for it follows the span of the lines written, never
// the capacity, and a lookup is a shift, a slice index and a bit test.
// The zero value is an empty set.
type lineSet struct {
	chunks []*[lineSetChunk / 64]uint64
}

// lineBit returns the chunk index, word index and bit of line a.
func lineBit(a mem.Addr) (c, w int, bit uint64) {
	i := uint64(a / mem.LineSize)
	return int(i / lineSetChunk), int(i % lineSetChunk / 64), 1 << (i % 64)
}

// has reports whether a is in the set.
func (s *lineSet) has(a mem.Addr) bool {
	c, w, bit := lineBit(a)
	return c < len(s.chunks) && s.chunks[c] != nil && s.chunks[c][w]&bit != 0
}

// put adds a to the set when in is true and removes it otherwise.
func (s *lineSet) put(a mem.Addr, in bool) {
	c, w, bit := lineBit(a)
	if !in {
		if c < len(s.chunks) && s.chunks[c] != nil {
			s.chunks[c][w] &^= bit
		}
		return
	}
	if c >= len(s.chunks) {
		s.chunks = append(s.chunks, make([]*[lineSetChunk / 64]uint64, c+1-len(s.chunks))...)
	}
	if s.chunks[c] == nil {
		s.chunks[c] = new([lineSetChunk / 64]uint64)
	}
	s.chunks[c][w] |= bit
}
