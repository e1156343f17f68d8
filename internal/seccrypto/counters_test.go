package seccrypto

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"ccnvm/internal/mem"
)

// refEncode and refDecode are the bit-by-bit counter-line codec the
// word-wise one replaced, kept as the reference: minor i occupies bits
// [7i, 7i+7) of the 56 bytes after the major, least significant first.
func refEncode(c *CounterLine) mem.Line {
	var l mem.Line
	binary.LittleEndian.PutUint64(l[:8], c.Major)
	bitpos := 0
	for _, m := range c.Minors {
		byteIdx := 8 + bitpos/8
		off := bitpos % 8
		v := uint16(m&MinorMax) << off
		l[byteIdx] |= byte(v)
		if off > 8-MinorBits {
			l[byteIdx+1] |= byte(v >> 8)
		}
		bitpos += MinorBits
	}
	return l
}

func refDecode(l mem.Line) CounterLine {
	var c CounterLine
	c.Major = binary.LittleEndian.Uint64(l[:8])
	bitpos := 0
	for i := range c.Minors {
		byteIdx := 8 + bitpos/8
		off := bitpos % 8
		v := uint16(l[byteIdx]) >> off
		if off > 8-MinorBits {
			v |= uint16(l[byteIdx+1]) << (8 - off)
		}
		c.Minors[i] = uint8(v & MinorMax)
		bitpos += MinorBits
	}
	return c
}

// checkCodec holds the codec to the reference on one counter state and
// on one raw line.
func checkCodec(t *testing.T, c CounterLine, l mem.Line) {
	t.Helper()
	if got, want := c.Encode(), refEncode(&c); got != want {
		t.Fatalf("Encode(%v) = %x, reference %x", c.Minors, got, want)
	}
	if got, want := DecodeCounterLine(l), refDecode(l); got != want {
		t.Fatalf("Decode(%x) = %+v, reference %+v", l, got, want)
	}
	// Every 64-byte line is a valid encoding, so both directions invert.
	d := DecodeCounterLine(l)
	if got := d.Encode(); got != l {
		t.Fatalf("Encode(Decode(%x)) = %x", l, got)
	}
	for i := range c.Minors {
		c.Minors[i] &= MinorMax // Encode masks what does not fit a minor
	}
	if got := DecodeCounterLine(c.Encode()); got != c {
		t.Fatalf("Decode(Encode(c)) = %+v, want %+v", got, c)
	}
}

func TestCounterLineCodecMatchesReference(t *testing.T) {
	var ones mem.Line
	for i := range ones {
		ones[i] = 0xFF
	}
	var max CounterLine
	max.Major = ^uint64(0)
	for i := range max.Minors {
		max.Minors[i] = MinorMax
	}
	checkCodec(t, CounterLine{}, mem.Line{})
	checkCodec(t, max, ones)

	// Each slot alone, at every bit of a minor and one past it (the bit
	// Encode must mask off), and each line bit alone.
	for slot := 0; slot < mem.BlocksPerPage; slot++ {
		for bit := 0; bit <= MinorBits; bit++ {
			var c CounterLine
			c.Minors[slot] = 1 << bit
			var l mem.Line
			l[8+(slot*MinorBits+bit%MinorBits)/8] = 1 << ((slot*MinorBits + bit%MinorBits) % 8)
			checkCodec(t, c, l)
		}
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		var c CounterLine
		c.Major = rng.Uint64()
		var l mem.Line
		rng.Read(l[:])
		for s := range c.Minors {
			c.Minors[s] = uint8(rng.Intn(256))
		}
		checkCodec(t, c, l)
	}
}

// FuzzCounterLineCodec holds the word-wise codec to the bit-by-bit
// reference on arbitrary lines and arbitrary minors.
func FuzzCounterLineCodec(f *testing.F) {
	f.Add(make([]byte, mem.LineSize), make([]byte, mem.BlocksPerPage), uint64(0))
	f.Add([]byte{0xFF, 0x80, 0x7F}, []byte{MinorMax, MinorMax + 1, 1}, ^uint64(0))
	f.Fuzz(func(t *testing.T, line, minors []byte, major uint64) {
		var l mem.Line
		copy(l[:], line)
		c := CounterLine{Major: major}
		copy(c.Minors[:], minors)
		checkCodec(t, c, l)
	})
}

var codecSink mem.Line

// BenchmarkCounterLineCodec times what one counter bump pays: decode
// the cached line, encode it back.
func BenchmarkCounterLineCodec(b *testing.B) {
	var l mem.Line
	rand.New(rand.NewSource(1)).Read(l[:])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := DecodeCounterLine(l)
		l = c.Encode()
	}
	codecSink = l
}
