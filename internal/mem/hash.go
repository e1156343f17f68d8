package mem

import "hash/crc32"

// Mix64 is a 64-bit finalizing mixer (the SplitMix64 / MurmurHash3
// fmix64 constants). The simulator's hot-path tables (the default-HMAC-
// line memo, the dirty address queue) index with it because map-free
// direct-mapped slots need a deterministic, well-mixed hash: Go's
// built-in map would randomize iteration and seed, which breaks
// bit-reproducible cache statistics.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// castagnoli is the CRC-32C table; hash/crc32 runs it on the CPU's CRC32
// instruction (SSE4.2 on amd64, the CRC extension on arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C of b, zero-extended to the 8-byte field every
// record stores it in: a stored word with any high bit set never
// matches. It is the one seal of everything persisted inside the trust
// boundary — spare-pool remap slots, the recovery journal, KV frames
// and manifest slots, crash-image files: it catches torn and truncated
// records, it authenticates nothing (the HMACs do that), so it is
// chosen for speed, not strength.
func Checksum(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli))
}
