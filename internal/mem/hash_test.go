package mem

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestChecksumMatchesStdlib holds the persisted-record seal to
// hash/crc32's Castagnoli polynomial, zero-extended: slots, frames and
// image files must validate on every architecture, whichever CRC code
// path the CPU selects.
func TestChecksumMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 1000)
	rng.Read(random)
	line := make([]byte, LineSize)
	rng.Read(line)
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"one byte", []byte{0xA5}},
		{"line", line},
		{"random", random},
	} {
		want := uint64(crc32.Checksum(tc.in, crc32.MakeTable(crc32.Castagnoli)))
		if got := Checksum(tc.in); got != want {
			t.Errorf("%s: Checksum = %#x, crc32c = %#x", tc.name, got, want)
		}
		cut := len(tc.in) / 3
		if got := ChecksumUpdate(Checksum(tc.in[:cut]), tc.in[cut:]); got != want {
			t.Errorf("%s: ChecksumUpdate over a split = %#x, crc32c = %#x", tc.name, got, want)
		}
	}
}
