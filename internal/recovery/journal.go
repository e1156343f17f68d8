// The persisted recovery journal: recovery's Apply writes counters and
// tree nodes back into the same NVM that just tore writes and dropped
// ADR drains, so a power failure during recovery itself must be
// survivable. Apply therefore journals its progress in a small reserved
// region of the crash image (real hardware would dedicate a few
// metadata lines next to the root registers) under the same
// word-granularity persistence rules as every other NVM write: a
// journal record update can tear, and recovery must tolerate that too.
//
// The journal is a two-slot record (internal/twoslot; DESIGN.md
// "Two-slot records") of 192-byte slots. Every record carries the full
// pass header — the committed rebuilt root and the first pass's report
// verdicts — plus an optional pending write: the one counter line whose
// in-place persist is in flight. A torn record corrupts only the newest
// slot and the previous record remains loadable. Tree-node writes are
// never journaled individually — they are recomputable from the
// counters, so the header's root is enough.
//
// The protocol per Apply pass:
//
//	jBegin  — header record, Active set (skipped when resuming a pass
//	          whose journal is already active with the same header:
//	          rewriting it would re-arm the same strike point every
//	          reboot without making progress).
//	jPend   — before each counter-line write: header plus the pending
//	          address and content. The journal copy is authoritative —
//	          if the in-place write tears, resume reads the journaled
//	          line. A pending record matching the journal's current
//	          pending entry is not rewritten (same livelock argument).
//	jCommit — header record, Active cleared: recovery is complete and
//	          the next boot recovers from scratch.
package recovery

import (
	"encoding/binary"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/twoslot"
)

// JournalFormat is the journal's two-slot frame.
var JournalFormat = twoslot.Format{
	Magic:   "CCRJ\x01", // version 1
	SealOff: joChecksum,
	SlotLen: journalSlotLen,
}

// Slot layout inside the frame (magic [0,5), seq [8,16)): 176 bytes of
// payload, the checksum, padding to three 64-byte lines.
const (
	joFlags        = 5   // 1 byte: bit0 Active, bit1 PendingValid
	joRoot         = 6   // 1 byte: ConsistentRoot (0 "", 1 "old", 2 "new")
	joVerdicts     = 7   // 1 byte: bit0 PotentialReplay, bit1 CrashLossWindow
	joNwb          = 16  // 8 bytes
	joNretry       = 24  // 8 bytes
	joBlocks       = 32  // 4 bytes
	joLines        = 36  // 4 bytes
	joRootLine     = 40  // 64 bytes: committed rebuilt root
	joPendAddr     = 104 // 8 bytes
	joPendLine     = 112 // 64 bytes
	joChecksum     = 176 // 8 bytes over [0, 176)
	journalSlotLen = 192
)

// journalRecord is one decoded journal slot.
type journalRecord struct {
	Active bool
	Seq    uint64

	// The pass header: the rebuilt root this pass commits and the first
	// pass's report verdicts, so a resumed recovery reports what the
	// interrupted one established instead of re-deriving verdicts from
	// half-applied state.
	Root            mem.Line
	ConsistentRoot  string
	PotentialReplay bool
	CrashLossWindow bool
	Nwb             uint64
	Nretry          uint64
	Blocks          int
	Lines           int

	// The in-flight counter-line write, if any.
	PendingValid bool
	PendingAddr  mem.Addr
	PendingLine  mem.Line
}

// sameHeader reports whether two records describe the same Apply pass
// (pending entries aside) — the test for skipping a redundant jBegin.
func sameHeader(a, b journalRecord) bool {
	return a.Root == b.Root && a.ConsistentRoot == b.ConsistentRoot &&
		a.PotentialReplay == b.PotentialReplay && a.CrashLossWindow == b.CrashLossWindow &&
		a.Nwb == b.Nwb && a.Nretry == b.Nretry && a.Blocks == b.Blocks && a.Lines == b.Lines
}

func encodeSlot(rec journalRecord) [journalSlotLen]byte {
	var b [journalSlotLen]byte
	if rec.Active {
		b[joFlags] |= 1
	}
	if rec.PendingValid {
		b[joFlags] |= 2
	}
	switch rec.ConsistentRoot {
	case "old":
		b[joRoot] = 1
	case "new":
		b[joRoot] = 2
	}
	if rec.PotentialReplay {
		b[joVerdicts] |= 1
	}
	if rec.CrashLossWindow {
		b[joVerdicts] |= 2
	}
	binary.LittleEndian.PutUint64(b[joNwb:], rec.Nwb)
	binary.LittleEndian.PutUint64(b[joNretry:], rec.Nretry)
	binary.LittleEndian.PutUint32(b[joBlocks:], uint32(rec.Blocks))
	binary.LittleEndian.PutUint32(b[joLines:], uint32(rec.Lines))
	copy(b[joRootLine:], rec.Root[:])
	binary.LittleEndian.PutUint64(b[joPendAddr:], uint64(rec.PendingAddr))
	copy(b[joPendLine:], rec.PendingLine[:])
	JournalFormat.Seal(b[:], rec.Seq)
	return b
}

// decodeSlot reads the payload of a valid slot.
func decodeSlot(b []byte) journalRecord {
	rec := journalRecord{
		Active:          b[joFlags]&1 != 0,
		PendingValid:    b[joFlags]&2 != 0,
		PotentialReplay: b[joVerdicts]&1 != 0,
		CrashLossWindow: b[joVerdicts]&2 != 0,
		Seq:             twoslot.Seq(b),
		Nwb:             binary.LittleEndian.Uint64(b[joNwb:]),
		Nretry:          binary.LittleEndian.Uint64(b[joNretry:]),
		Blocks:          int(binary.LittleEndian.Uint32(b[joBlocks:])),
		Lines:           int(binary.LittleEndian.Uint32(b[joLines:])),
		PendingAddr:     mem.Addr(binary.LittleEndian.Uint64(b[joPendAddr:])),
	}
	switch b[joRoot] {
	case 1:
		rec.ConsistentRoot = "old"
	case 2:
		rec.ConsistentRoot = "new"
	}
	copy(rec.Root[:], b[joRootLine:])
	copy(rec.PendingLine[:], b[joPendLine:])
	return rec
}

// loadJournal returns the newest valid record. A record torn mid-write
// is not there, and the previous record (the other slot) rules; the
// torn slot is never repaired, the next record written overwrites it.
func loadJournal(img *engine.CrashImage) (journalRecord, bool) {
	c := JournalFormat.Choose(img.RecoveryJournal, nil)
	if c.Winner == nil {
		return journalRecord{}, false
	}
	return decodeSlot(c.Winner), true
}

// ensureJournal reserves the journal region. Allocation is not a
// persisted write: hardware pre-provisions the lines at format time.
func ensureJournal(img *engine.CrashImage) {
	if n := JournalFormat.TableLen(); len(img.RecoveryJournal) != n {
		img.RecoveryJournal = make([]byte, n)
	}
}

// JournalActive reports whether the image carries an uncommitted
// recovery journal — an Apply pass began and its commit record never
// persisted. Recover resumes such an image; the torture harness's
// bounded-reboots oracle checks that a converged recovery left it
// inactive.
func JournalActive(img *engine.CrashImage) bool {
	rec, ok := loadJournal(img)
	return ok && rec.Active
}

// Interrupt models a power failure during recovery: the After-th
// persisted write of one Apply pass is struck — torn at 8-byte word
// granularity under a fault model, dropped whole without one — and the
// pass stops, exactly as if power died mid-write. The reboot-loop
// torture drives ApplyInterrupted with increasing pass numbers until
// recovery converges.
type Interrupt struct {
	// After is the 1-based index of the persisted recovery write to
	// strike; 0 disables the strike (the pass runs to completion but
	// still counts its writes).
	After int

	// Faults, when non-nil, decides the struck write's tear mask the
	// same way the device decides a WPQ entry's fate; nil drops the
	// write whole.
	Faults *nvm.FaultModel

	// Seq disambiguates tear decisions across recovery passes: the same
	// write struck on a different reboot tears differently, as wear and
	// timing would make it.
	Seq uint64

	// Outputs: how many persisted writes the pass issued (including the
	// struck one) and how many line writes its plan held.
	Writes int
	Plan   int
}

// journalWriter issues Apply's persisted writes, counting them and
// striking the one the interrupt names. Line writes and journal-record
// updates each count as one write: both are one-line-or-less NVM
// updates on real hardware (the 192-byte record tears per 64-byte
// line, like a multi-line WPQ burst).
type journalWriter struct {
	img *engine.CrashImage
	itr *Interrupt
	n   int
}

// strike advances the write counter and reports whether this write is
// the one the interrupt kills.
func (w *journalWriter) strike() bool {
	w.n++
	if w.itr == nil {
		return false
	}
	w.itr.Writes = w.n
	return w.itr.After > 0 && w.n == w.itr.After
}

// writeLine persists one in-place line write; false means the interrupt
// fired and the pass must stop.
func (w *journalWriter) writeLine(a mem.Addr, l mem.Line) bool {
	if w.strike() {
		w.tearLine(a, l)
		return false
	}
	w.img.Image.Write(a, l)
	return true
}

// tearLine applies the struck write's surviving words. A whole drop
// leaves the line untouched (a stuck line stays stuck: no cells were
// rewritten); a partial tear mixes old and new words and, like any
// write, remaps a stuck line.
func (w *journalWriter) tearLine(a mem.Addr, l mem.Line) {
	var mask byte
	if w.itr.Faults != nil {
		mask = w.itr.Faults.TearMask(a, w.itr.Seq)
	}
	if mask == 0 {
		return
	}
	old, _ := w.img.Image.Store.Read(a)
	w.img.Image.Write(a, nvm.MixWords(old, l, mask))
}

// writeSlot persists one journal-record update into slot Seq%2; false
// means the interrupt fired. A struck update tears per 64-byte chunk,
// each chunk deciding its fate at a pseudo-address past the end of the
// layout (the journal's reserved lines live outside the data/metadata
// regions); with no fault model it drops whole.
func (w *journalWriter) writeSlot(rec journalRecord) bool {
	buf := encodeSlot(rec)
	slot := JournalFormat.Slot(w.img.RecoveryJournal, rec.Seq)
	if w.strike() {
		if w.itr.Faults != nil {
			base := mem.Addr(w.img.Image.Layout.TotalBytes()) + mem.Addr(JournalFormat.Off(rec.Seq))
			w.itr.Faults.TearChunks(slot, slot, buf[:], base, w.itr.Seq)
		}
		return false
	}
	copy(slot, buf[:])
	return true
}
