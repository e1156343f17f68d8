package mem

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestFNV64aMatchesStdlib holds the persisted-record seal to hash/fnv:
// slots, frames and image files written before the checksums were
// folded into FNV64a must keep validating.
func TestFNV64aMatchesStdlib(t *testing.T) {
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
		h := fnv.New64a()
		h.Write(tc.in)
		if got, want := FNV64a(tc.in), h.Sum64(); got != want {
			t.Errorf("%s: FNV64a = %#x, hash/fnv = %#x", tc.name, got, want)
		}
	}
}
