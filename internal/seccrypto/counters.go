// Package seccrypto implements the cryptographic substrate of the
// secure memory controller: the split-counter encoding used by counter
// lines, counter-mode encryption (CME) with AES-generated one-time pads,
// and the 128-bit truncated HMACs used for data authentication and for
// Bonsai-Merkle-Tree nodes.
//
// Unlike most architecture-simulator reproductions, this layer is fully
// functional: data written to the NVM model really is AES-encrypted and
// really carries verifiable HMACs, so integrity attacks are detected by
// actual verification failures rather than by bookkeeping flags. Timing
// (AES and HMAC latencies) is charged separately by the simulator.
package seccrypto

import (
	"encoding/binary"
	"fmt"

	"ccnvm/internal/mem"
)

// MinorBits is the width of a per-block minor counter in the
// split-counter organization; MinorMax is its largest value.
const (
	MinorBits = 7
	MinorMax  = 1<<MinorBits - 1
)

// CounterLine is the decoded form of one 64 B counter line: a 64-bit
// major counter shared by a 4 KB page plus one 7-bit minor counter per
// 64 B block, exactly filling a line (8 + 64*7/8 = 64 bytes).
//
// The effective per-block counter used as the CME seed and as HMAC input
// is Major*2^7 + Minor[slot]; a minor overflow bumps the major counter,
// clears every minor, and forces re-encryption of the whole page.
type CounterLine struct {
	Major  uint64
	Minors [mem.BlocksPerPage]uint8
}

// Counter returns the effective counter value of block slot.
func (c *CounterLine) Counter(slot int) uint64 {
	return c.Major<<MinorBits | uint64(c.Minors[slot])
}

// Bump increments the minor counter of slot. If the minor would
// overflow, it instead bumps the major counter, clears all minors, sets
// slot's minor to 1 and reports overflow=true: the caller must
// re-encrypt every block of the page under the new major.
func (c *CounterLine) Bump(slot int) (overflow bool) {
	if c.Minors[slot] < MinorMax {
		c.Minors[slot]++
		return false
	}
	c.Major++
	c.Minors = [mem.BlocksPerPage]uint8{}
	c.Minors[slot] = 1
	return true
}

// minorWordBytes is the size of one packed word of minors: eight
// MinorBits-bit minors fill MinorBits bytes exactly.
const minorWordBytes = MinorBits

// Encode packs the counter line into its 64-byte NVM representation:
// the major counter in the first 8 bytes (little endian), then the 64
// seven-bit minors bit-packed into the remaining 56 bytes, minor i at
// bits [7i, 7i+7) of that little-endian bit string. Eight minors make
// one 7-byte word, so the line is packed a word at a time.
func (c *CounterLine) Encode() mem.Line {
	var l mem.Line
	binary.LittleEndian.PutUint64(l[:8], c.Major)
	for g := 0; g < mem.BlocksPerPage/8; g++ {
		// Unrolled: the loop form measures twice as slow.
		m := c.Minors[8*g : 8*g+8]
		w := uint64(m[0]&MinorMax) | uint64(m[1]&MinorMax)<<7 | uint64(m[2]&MinorMax)<<14 |
			uint64(m[3]&MinorMax)<<21 | uint64(m[4]&MinorMax)<<28 | uint64(m[5]&MinorMax)<<35 |
			uint64(m[6]&MinorMax)<<42 | uint64(m[7]&MinorMax)<<49
		b := l[8+minorWordBytes*g : 8+minorWordBytes*(g+1)]
		binary.LittleEndian.PutUint32(b, uint32(w))
		binary.LittleEndian.PutUint16(b[4:], uint16(w>>32))
		b[6] = byte(w >> 48)
	}
	return l
}

// DecodeCounterLine unpacks a 64-byte counter line. The all-zero line
// decodes to the all-zero counter state, so untouched NVM reads as
// "never encrypted" (counter value 0).
func DecodeCounterLine(l mem.Line) CounterLine {
	var c CounterLine
	c.Major = binary.LittleEndian.Uint64(l[:8])
	for g := 0; g < mem.BlocksPerPage/8; g++ {
		b := l[8+minorWordBytes*g : 8+minorWordBytes*(g+1)]
		w := uint64(binary.LittleEndian.Uint32(b)) | uint64(binary.LittleEndian.Uint16(b[4:]))<<32 | uint64(b[6])<<48
		m := c.Minors[8*g : 8*g+8]
		m[0] = uint8(w) & MinorMax
		m[1] = uint8(w>>7) & MinorMax
		m[2] = uint8(w>>14) & MinorMax
		m[3] = uint8(w>>21) & MinorMax
		m[4] = uint8(w>>28) & MinorMax
		m[5] = uint8(w>>35) & MinorMax
		m[6] = uint8(w>>42) & MinorMax
		m[7] = uint8(w>>49) & MinorMax
	}
	return c
}

// String summarizes a counter line for diagnostics.
func (c *CounterLine) String() string {
	nonzero := 0
	for _, m := range c.Minors {
		if m != 0 {
			nonzero++
		}
	}
	return fmt.Sprintf("ctr{major=%d dirtyMinors=%d}", c.Major, nonzero)
}
