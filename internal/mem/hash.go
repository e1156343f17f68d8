package mem

import "encoding/binary"

// Mix64 is a 64-bit finalizing mixer (the SplitMix64 / MurmurHash3
// fmix64 constants). The simulator's hot-path memo tables index with it
// because map-free direct-mapped slots need a deterministic, well-mixed
// hash: Go's built-in map would randomize iteration and seed, which
// breaks bit-reproducible cache statistics.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// HashLine hashes a full 64-byte line with an FNV-1a pass over its
// eight words followed by a final mix. Used to index content-keyed memo
// tables (Merkle-node HMAC memos); collisions are resolved by full
// content comparison, so the hash only affects hit rate, never results.
func HashLine(l *Line) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < LineSize; i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(l[i:])) * 1099511628211
	}
	return Mix64(h)
}

// FNV64a is the FNV-1a 64-bit checksum of b, bit for bit hash/fnv's
// New64a. It is the one seal of everything persisted inside the trust
// boundary — spare-pool remap slots, the recovery journal, KV frames
// and manifest slots, crash-image files: it catches torn and truncated
// records, it authenticates nothing.
func FNV64a(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}
