// The persisted recovery journal: recovery's Apply writes counters and
// tree nodes back into the same NVM that just tore writes and dropped
// ADR drains, so a power failure during recovery itself must be
// survivable. Apply therefore journals its progress in a small reserved
// region of the crash image (real hardware would dedicate a few
// metadata lines next to the root registers) under the same
// word-granularity persistence rules as every other NVM write: a
// journal record update can tear, and recovery must tolerate that too.
//
// The journal is two alternating 192-byte slots. Every record carries
// the full pass header — the committed rebuilt root and the first
// pass's report verdicts — plus an optional pending write: the one
// counter line whose in-place persist is in flight. Records go to slot
// Seq%2, so a torn record corrupts only the newest slot and the
// previous record remains loadable; a checksum tells the two apart.
// Tree-node writes are never journaled individually — they are
// recomputable from the counters, so the header's root is enough.
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
)

const (
	journalMagic   = "CCRJ"
	journalVersion = 1
	// journalSlotLen is one record slot: 176 bytes of payload, an 8-byte
	// FNV-64a checksum, padded to three 64-byte lines.
	journalSlotLen = 192
	journalLen     = 2 * journalSlotLen
)

// Slot byte offsets. The payload is checksummed as one unit; the
// checksum sits at the end so a record torn anywhere fails closed.
const (
	joMagic    = 0   // 4 bytes
	joVersion  = 4   // 1 byte
	joFlags    = 5   // 1 byte: bit0 Active, bit1 PendingValid
	joRoot     = 6   // 1 byte: ConsistentRoot (0 "", 1 "old", 2 "new")
	joVerdicts = 7   // 1 byte: bit0 PotentialReplay, bit1 CrashLossWindow
	joSeq      = 8   // 8 bytes
	joNwb      = 16  // 8 bytes
	joNretry   = 24  // 8 bytes
	joBlocks   = 32  // 4 bytes
	joLines    = 36  // 4 bytes
	joRootLine = 40  // 64 bytes: committed rebuilt root
	joPendAddr = 104 // 8 bytes
	joPendLine = 112 // 64 bytes
	joChecksum = 176 // 8 bytes over [0, 176)
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
	copy(b[joMagic:], journalMagic)
	b[joVersion] = journalVersion
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
	binary.LittleEndian.PutUint64(b[joSeq:], rec.Seq)
	binary.LittleEndian.PutUint64(b[joNwb:], rec.Nwb)
	binary.LittleEndian.PutUint64(b[joNretry:], rec.Nretry)
	binary.LittleEndian.PutUint32(b[joBlocks:], uint32(rec.Blocks))
	binary.LittleEndian.PutUint32(b[joLines:], uint32(rec.Lines))
	copy(b[joRootLine:], rec.Root[:])
	binary.LittleEndian.PutUint64(b[joPendAddr:], uint64(rec.PendingAddr))
	copy(b[joPendLine:], rec.PendingLine[:])
	binary.LittleEndian.PutUint64(b[joChecksum:], mem.FNV64a(b[:joChecksum]))
	return b
}

func decodeSlot(b []byte) (journalRecord, bool) {
	if len(b) < journalSlotLen || string(b[joMagic:joMagic+4]) != journalMagic || b[joVersion] != journalVersion {
		return journalRecord{}, false
	}
	if binary.LittleEndian.Uint64(b[joChecksum:]) != mem.FNV64a(b[:joChecksum]) {
		return journalRecord{}, false
	}
	rec := journalRecord{
		Active:          b[joFlags]&1 != 0,
		PendingValid:    b[joFlags]&2 != 0,
		PotentialReplay: b[joVerdicts]&1 != 0,
		CrashLossWindow: b[joVerdicts]&2 != 0,
		Seq:             binary.LittleEndian.Uint64(b[joSeq:]),
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
	return rec, true
}

// loadJournal returns the newest intact record. A record torn mid-write
// fails its checksum and the previous record (the other slot) rules.
func loadJournal(img *engine.CrashImage) (journalRecord, bool) {
	if len(img.RecoveryJournal) != journalLen {
		return journalRecord{}, false
	}
	r0, ok0 := decodeSlot(img.RecoveryJournal[:journalSlotLen])
	r1, ok1 := decodeSlot(img.RecoveryJournal[journalSlotLen:])
	switch {
	case ok0 && ok1:
		if r1.Seq > r0.Seq {
			return r1, true
		}
		return r0, true
	case ok0:
		return r0, true
	case ok1:
		return r1, true
	}
	return journalRecord{}, false
}

// ensureJournal reserves the journal region. Allocation is not a
// persisted write: hardware pre-provisions the lines at format time.
func ensureJournal(img *engine.CrashImage) {
	if len(img.RecoveryJournal) != journalLen {
		img.RecoveryJournal = make([]byte, journalLen)
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
// means the interrupt fired.
func (w *journalWriter) writeSlot(rec journalRecord) bool {
	buf := encodeSlot(rec)
	off := int(rec.Seq%2) * journalSlotLen
	if w.strike() {
		w.tearSlot(off, buf)
		return false
	}
	copy(w.img.RecoveryJournal[off:], buf[:])
	return true
}

// tearSlot tears a struck record update per 64-byte chunk, each chunk
// deciding its fate at a pseudo-address past the end of the layout (the
// journal's reserved lines live outside the data/metadata regions).
func (w *journalWriter) tearSlot(off int, buf [journalSlotLen]byte) {
	if w.itr.Faults == nil {
		return // dropped whole
	}
	base := mem.Addr(w.img.Image.Layout.TotalBytes())
	for c := 0; c < journalSlotLen; c += mem.LineSize {
		var old, new mem.Line
		copy(old[:], w.img.RecoveryJournal[off+c:])
		copy(new[:], buf[c:])
		mask := w.itr.Faults.TearMask(base+mem.Addr(off+c), w.itr.Seq)
		mixed := nvm.MixWords(old, new, mask)
		copy(w.img.RecoveryJournal[off+c:], mixed[:])
	}
}
