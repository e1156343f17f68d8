package kv

import (
	"encoding/binary"

	"ccnvm/internal/mem"
	"ccnvm/internal/twoslot"
)

// The compaction manifest is the namespace's one piece of non-append
// metadata: a two-slot record (internal/twoslot; DESIGN.md "Two-slot
// records") of one line per slot, at the very start of the data
// region in front of the log arena. A compaction pass rewrites the live
// set into the inactive half of the arena and then commits the
// relocation with ONE line write into the slot its sequence number
// selects. Reopen repairs a torn slot from the ruling record and
// refuses two torn slots. No ruling record is a fresh namespace:
// generation 0, half 0 active, log starts at frame 1.
//
// Slot payload, inside the frame (magic "CKVMANIF" [0:8), seq [8:16) —
// the commit generation, 1-based — checksum [32:40)):
//
//	[16:24) startSeq — last frame seq before the compacted run; the
//	                   active half's first frame carries startSeq+1
//	[24]    half     — arena half (0/1) holding the live log
//	[25:32) zero
//
// arenaStart is the first log byte: the arena sits past the slots.
const arenaStart = mem.Addr(2 * mem.LineSize)

// ManifestFormat is the manifest's two-slot frame.
var ManifestFormat = twoslot.Format{Magic: "CKVMANIF", SealOff: 32, SlotLen: mem.LineSize}

// manifestRecord is one decoded manifest commit. The zero value is the
// fresh-namespace state.
type manifestRecord struct {
	Seq      uint64 // commit generation (0 = never compacted)
	StartSeq uint64 // frame seq preceding the active run
	Half     int    // arena half holding the live log
}

// encodeManifest seals one slot line.
func encodeManifest(rec manifestRecord) mem.Line {
	var l mem.Line
	binary.LittleEndian.PutUint64(l[16:24], rec.StartSeq)
	l[24] = byte(rec.Half)
	ManifestFormat.Seal(l[:], rec.Seq)
	return l
}

// decodeManifest reads the payload of a valid slot.
func decodeManifest(slot []byte) manifestRecord {
	return manifestRecord{
		Seq:      twoslot.Seq(slot),
		StartSeq: binary.LittleEndian.Uint64(slot[16:24]),
		Half:     int(slot[24]),
	}
}

// manifestOK is the payload check: generation 0 is never committed and
// the arena has two halves, so a slot claiming otherwise is torn.
func manifestOK(slot []byte) bool {
	return twoslot.Seq(slot) != 0 && slot[24] < 2
}
