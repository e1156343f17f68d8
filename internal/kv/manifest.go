package kv

import (
	"encoding/binary"
	"errors"

	"ccnvm/internal/mem"
)

// The compaction manifest is the namespace's one piece of non-append
// metadata: two single-line slots at the very start of the data region,
// in front of the log arena. A compaction pass rewrites the live set
// into the inactive half of the arena and then commits the relocation
// with ONE line write into the slot its sequence number selects
// (seq%2), following the same atomic-commit discipline as the device's
// remap table: newest valid sequence wins, a torn slot (non-empty but
// failing its checksum) falls back to the other slot, and reopen
// repairs the torn slot by re-encoding the ruling record. Both slots
// empty is a fresh namespace: generation 0, half 0 active, log starts
// at frame 1.
//
// Slot line layout (one mem.Line per slot; slot s at byte s*64):
//
//	[0:8)   magic "CKVMANIF"
//	[8:16)  seq      — commit generation, 1-based; the slot written is seq%2
//	[16:24) startSeq — last frame seq before the compacted run; the
//	                   active half's first frame carries startSeq+1
//	[24]    half     — arena half (0/1) holding the live log
//	[25:32) zero
//	[32:40) FNV-64a over bytes [0:32)
//	[40:64) zero
const (
	manifestMagic = "CKVMANIF"
	manifestSlots = 2
	// arenaStart is the first log byte: the arena sits past the slots.
	arenaStart = mem.Addr(manifestSlots * mem.LineSize)
)

// errManifestTorn distinguishes a half-written slot from an empty one.
var errManifestTorn = errors.New("kv: torn manifest slot")

// manifestRecord is one decoded manifest commit. The zero value is the
// fresh-namespace state.
type manifestRecord struct {
	Seq      uint64 // commit generation (0 = never compacted)
	StartSeq uint64 // frame seq preceding the active run
	Half     int    // arena half holding the live log
}

// manifestSlotAddr is where generation seq commits.
func manifestSlotAddr(seq uint64) mem.Addr {
	return mem.Addr(seq%manifestSlots) * mem.LineSize
}

// encodeManifest seals one slot line.
func encodeManifest(rec manifestRecord) mem.Line {
	var l mem.Line
	copy(l[0:8], manifestMagic)
	binary.LittleEndian.PutUint64(l[8:16], rec.Seq)
	binary.LittleEndian.PutUint64(l[16:24], rec.StartSeq)
	l[24] = byte(rec.Half)
	binary.LittleEndian.PutUint64(l[32:40], mem.FNV64a(l[0:32]))
	return l
}

// decodeManifest validates one slot. ok=false with a nil error is an
// empty (all-zero) slot; errManifestTorn is a non-empty slot that fails
// validation — a torn commit write to fall back from and repair.
func decodeManifest(l mem.Line) (manifestRecord, bool, error) {
	if l == (mem.Line{}) {
		return manifestRecord{}, false, nil
	}
	if string(l[0:8]) != manifestMagic {
		return manifestRecord{}, false, errManifestTorn
	}
	if got, want := binary.LittleEndian.Uint64(l[32:40]), mem.FNV64a(l[0:32]); got != want {
		return manifestRecord{}, false, errManifestTorn
	}
	rec := manifestRecord{
		Seq:      binary.LittleEndian.Uint64(l[8:16]),
		StartSeq: binary.LittleEndian.Uint64(l[16:24]),
		Half:     int(l[24]),
	}
	if rec.Seq == 0 || rec.Half >= manifestSlots {
		return manifestRecord{}, false, errManifestTorn
	}
	return rec, true, nil
}

// chooseManifest rules between the two slots: newest valid sequence
// wins, so a torn commit write rolls back to the previous generation.
// tornSlot is the slot index reopen must repair (-1 if both slots are
// healthy), and holds at most one slot: two torn slots mean the
// metadata is gone, which the error surfaces.
func chooseManifest(l0, l1 mem.Line) (rec manifestRecord, tornSlot int, err error) {
	r0, ok0, e0 := decodeManifest(l0)
	r1, ok1, e1 := decodeManifest(l1)
	if e0 != nil && e1 != nil {
		return manifestRecord{}, -1, errors.New("kv: both compaction manifest slots torn")
	}
	tornSlot = -1
	if e0 != nil {
		tornSlot = 0
	}
	if e1 != nil {
		tornSlot = 1
	}
	switch {
	case ok0 && ok1:
		if r1.Seq > r0.Seq {
			return r1, tornSlot, nil
		}
		return r0, tornSlot, nil
	case ok0:
		return r0, tornSlot, nil
	case ok1:
		return r1, tornSlot, nil
	}
	// No valid record: fresh namespace (possibly with a torn slot from
	// a crashed very first commit, which repair zeroes).
	return manifestRecord{}, tornSlot, nil
}
