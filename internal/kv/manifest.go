package kv

import (
	"encoding/binary"
	"fmt"

	"ccnvm/internal/mem"
	"ccnvm/internal/twoslot"
)

// The compaction manifest is the namespace's one piece of non-append
// metadata: a two-slot record (internal/twoslot; DESIGN.md "Two-slot
// records") of one line per slot, at the very start of the data
// region in front of the log arena. A compaction pass appends the
// live records of the log's oldest frames at the head and then commits
// the new tail with ONE line write into the slot its sequence number
// selects. Reopen repairs a torn slot from the ruling record and
// refuses two torn slots. No ruling record is a fresh namespace:
// generation 0, the tail at the arena's first line, the log starting
// at frame 1.
//
// Slot payload, inside the frame (magic "CKVTAIL" [0:8), seq [8:16) —
// the commit generation, 1-based — checksum [32:40)):
//
//	[16:24) tail    — data-region address of the log's first frame (or
//	                  of the head, when the pass left no frame)
//	[24:32) tailSeq — frame seq preceding the tail; the tail's frame
//	                  carries tailSeq+1
//
// arenaStart is the first log byte: the arena sits past the slots.
const arenaStart = mem.Addr(2 * mem.LineSize)

// ManifestFormat is the manifest's two-slot frame.
var ManifestFormat = twoslot.Format{Magic: "CKVTAIL", SealOff: 32, SlotLen: mem.LineSize}

// halvesManifestFormat is the manifest of the two-half arena an earlier
// build wrote: magic "CKVMANIF", startSeq at [16:24), the active half
// at [24]. Open refuses a slot of it by name.
var halvesManifestFormat = twoslot.Format{Magic: "CKVMANIF", SealOff: 32, SlotLen: mem.LineSize}

// manifestRecord is one decoded manifest commit. The zero value's Tail
// is not an arena address: Open reads it as the fresh namespace.
type manifestRecord struct {
	Seq     uint64   // commit generation (0 = never compacted)
	Tail    mem.Addr // the log's first frame
	TailSeq uint64   // frame seq preceding the tail
}

// encodeManifest seals one slot line.
func encodeManifest(rec manifestRecord) mem.Line {
	var l mem.Line
	binary.LittleEndian.PutUint64(l[16:24], uint64(rec.Tail))
	binary.LittleEndian.PutUint64(l[24:32], rec.TailSeq)
	ManifestFormat.Seal(l[:], rec.Seq)
	return l
}

// decodeManifest reads the payload of a valid slot.
func decodeManifest(slot []byte) manifestRecord {
	return manifestRecord{
		Seq:     twoslot.Seq(slot),
		Tail:    mem.Addr(binary.LittleEndian.Uint64(slot[16:24])),
		TailSeq: binary.LittleEndian.Uint64(slot[24:32]),
	}
}

// manifestOK is the payload check over an arena of ring bytes:
// generation 0 is never committed and the tail is a line of the arena,
// so a slot claiming otherwise is torn.
func manifestOK(ring uint64) func(slot []byte) bool {
	return func(slot []byte) bool {
		tail := decodeManifest(slot).Tail
		return twoslot.Seq(slot) != 0 && tail >= arenaStart && uint64(tail-arenaStart) < ring && tail%mem.LineSize == 0
	}
}

// refuseHalvesManifest fails a manifest table holding a sealed slot of
// the two-half format, which this build would otherwise rule torn.
func refuseHalvesManifest(table []byte) error {
	for i := range 2 {
		if halvesManifestFormat.State(table[i*mem.LineSize:(i+1)*mem.LineSize]) == twoslot.Valid {
			return fmt.Errorf("kv: manifest slot %d is in the two-half %q format of an earlier build, which this build does not read", i, halvesManifestFormat.Magic)
		}
	}
	return nil
}
