package nvm

import (
	"encoding/binary"
	"fmt"

	"ccnvm/internal/mem"
	"ccnvm/internal/twoslot"
)

// Finite spare-pool media management.
//
// With FaultModel.SpareLines > 0 the device carves an explicit spare
// region out of the media: every stuck-line heal and every scrub
// give-up consumes one spare line, recorded in a remap table persisted
// as a two-slot record (internal/twoslot; DESIGN.md "Two-slot
// records"). A crash mid-commit tears only the slot being written, so
// the previous record rules and the interrupted remap rolls back
// cleanly (the line simply re-presents as stuck or weak and is remapped
// again on the next boot). Recovery validates and repairs the table
// before the four-step walk, so a lost mapping is never misread as
// tampering.
//
// SpareLines == 0 keeps the historical unlimited pool: no table is
// allocated, no accounting happens, and every prior image and digest
// stays bit-identical.

// Remap record payload, inside the two-slot frame:
//
//	off  16  entry count (2)
//	off  18  pool size (2)
//	off  20  reserved (4)
//	off  24  entries: RemapMaxEntries × 9 bytes (addr 8 + flags 1;
//	         flag bit 0 = weak-exempt)
const (
	remapEntryLen  = 9
	remapHeaderLen = 24

	// RemapMaxEntries bounds the pool: the largest spare region one
	// record can describe.
	RemapMaxEntries = 64

	// RemapSlotLen is one record slot, RemapTableLen the whole two-slot
	// table, both multiples of the 64-byte persistence chunk so crash
	// tearing composes per chunk exactly like data lines.
	RemapSlotLen  = 640
	RemapTableLen = 2 * RemapSlotLen
)

// RemapFormat is the remap table's two-slot frame.
var RemapFormat = twoslot.Format{
	Magic:   "CCRT\x01", // version 1
	SealOff: remapHeaderLen + RemapMaxEntries*remapEntryLen,
	SlotLen: RemapSlotLen,
}

// RemapEntry is one address→spare mapping. Exempt marks lines the pool
// also shields from weak-line decisions (scrub give-ups and runtime
// retry-exhaustion remaps); plain heals of stuck lines keep the
// historical semantics where the replacement cells can still be weak.
type RemapEntry struct {
	Addr   mem.Addr `json:"addr"`
	Exempt bool     `json:"exempt,omitempty"`
}

// RemapRecord is one decoded table record.
type RemapRecord struct {
	Seq     uint64
	Total   int // provisioned pool size
	Entries []RemapEntry
}

// EncodeRemapRecord renders one slot. Entries beyond RemapMaxEntries
// are a programming error (the pool is capped below that).
func EncodeRemapRecord(r RemapRecord) []byte {
	if len(r.Entries) > RemapMaxEntries {
		panic(fmt.Sprintf("nvm: remap record overflow: %d entries", len(r.Entries)))
	}
	b := make([]byte, RemapSlotLen)
	binary.LittleEndian.PutUint16(b[16:18], uint16(len(r.Entries)))
	binary.LittleEndian.PutUint16(b[18:20], uint16(r.Total))
	for i, e := range r.Entries {
		off := remapHeaderLen + i*remapEntryLen
		binary.LittleEndian.PutUint64(b[off:off+8], uint64(e.Addr))
		if e.Exempt {
			b[off+8] = 1
		}
	}
	RemapFormat.Seal(b, r.Seq)
	return b
}

// remapCountOK is the payload check: a record cannot list more entries
// than its pool (or the slot) holds, so a slot claiming that is torn.
func remapCountOK(b []byte) bool {
	n := binary.LittleEndian.Uint16(b[16:18])
	return n <= RemapMaxEntries && n <= binary.LittleEndian.Uint16(b[18:20])
}

// LoadRemapTable rules the two-slot table: ok is true when a record
// rules (the newest valid one), torn when a slot is neither empty nor a
// valid record — the signature of a crash mid-commit, which the
// previous record's rule rolls back.
func LoadRemapTable(table []byte) (rec RemapRecord, ok, torn bool) {
	return remapRuling(RemapFormat.Choose(table, remapCountOK))
}

// RepairRemapTable is recovery's replay step: LoadRemapTable, plus the
// winning record rewritten over any torn slot, so the rollback is made
// durable and a re-entered recovery sees a fully intact table. With no
// record ruling the table is left as it is.
func RepairRemapTable(table []byte) (rec RemapRecord, ok, torn bool) {
	c := RemapFormat.Choose(table, remapCountOK)
	if c.Winner != nil {
		RemapFormat.Repair(table, c)
	}
	return remapRuling(c)
}

func remapRuling(c twoslot.Choice) (rec RemapRecord, ok, torn bool) {
	if c.Winner == nil {
		return RemapRecord{}, false, c.AnyTorn()
	}
	b := c.Winner
	rec = RemapRecord{Seq: c.Seq, Total: int(binary.LittleEndian.Uint16(b[18:20]))}
	for i := 0; i < int(binary.LittleEndian.Uint16(b[16:18])); i++ {
		off := remapHeaderLen + i*remapEntryLen
		rec.Entries = append(rec.Entries, RemapEntry{
			Addr:   mem.Addr(binary.LittleEndian.Uint64(b[off : off+8])),
			Exempt: b[off+8]&1 != 0,
		})
	}
	return rec, true, c.AnyTorn()
}

// SpareStats is the pool's accounting snapshot. Total == 0 means the
// unlimited legacy pool (no finite media management armed).
type SpareStats struct {
	Total   int    `json:"total"`
	Used    int    `json:"used"`
	Remaps  uint64 `json:"remaps"`  // successful remaps this boot
	Refused uint64 `json:"refused"` // remap attempts refused: pool empty
}

// Finite reports whether a finite pool is armed.
func (s SpareStats) Finite() bool { return s.Total > 0 }

// Remaining is the unconsumed spare count (0 on the unlimited pool,
// whose accounting is vacuous).
func (s SpareStats) Remaining() int { return s.Total - s.Used }

// initSparePool formats a finite pool: slot 0 gets an empty sequence-0
// record (hardware pre-provisioning), so recovery always learns the
// pool size even before the first remap commits.
func (d *Device) initSparePool(total int) {
	if total > RemapMaxEntries {
		total = RemapMaxEntries
	}
	d.spareTotal = total
	d.spareUsed = 0
	d.remapEntries = nil
	d.remapIdx = make(map[mem.Addr]int)
	d.remapSeq = 0
	d.remapsBoot = 0
	d.remapRefused = 0
	d.remapTable = make([]byte, RemapTableLen)
	d.remapPrev = nil
	copy(d.remapTable[:RemapSlotLen], EncodeRemapRecord(RemapRecord{Total: total}))
}

// SpareStats returns the pool accounting.
func (d *Device) SpareStats() SpareStats {
	return SpareStats{Total: d.spareTotal, Used: d.spareUsed, Remaps: d.remapsBoot, Refused: d.remapRefused}
}

// RemapEntries returns the committed mappings in consumption order.
func (d *Device) RemapEntries() []RemapEntry {
	return append([]RemapEntry(nil), d.remapEntries...)
}

// RemapTable exposes the persisted table bytes (nil on the unlimited
// pool); snapshots and tests read it.
func (d *Device) RemapTable() []byte { return d.remapTable }

// Remap moves line a onto a spare. exempt additionally shields the
// line from weak-line decisions (scrub give-up semantics); a plain
// heal keeps them, matching the historical stuck-heal behaviour. On
// the unlimited legacy pool the call is free; on a finite pool it
// consumes one spare and commits a remap record, unless a is already
// remapped (re-heals and exempt upgrades re-use the spare). An empty
// pool returns *SpareExhaustedError and changes nothing.
func (d *Device) Remap(a mem.Addr, exempt bool) error {
	a = mem.Align(a)
	if d.spareTotal == 0 {
		if exempt {
			if d.weakExempt == nil {
				d.weakExempt = make(map[mem.Addr]bool)
			}
			d.weakExempt[a] = true
		}
		return nil
	}
	if i, ok := d.remapIdx[a]; ok {
		if exempt && !d.remapEntries[i].Exempt {
			d.remapEntries[i].Exempt = true
			d.weakExempt[a] = true
			d.commitRemapRecord()
		}
		delete(d.stuck, a)
		return nil
	}
	if d.spareUsed >= d.spareTotal {
		d.remapRefused++
		return &SpareExhaustedError{Total: d.spareTotal, Addr: a}
	}
	d.spareUsed++
	d.remapIdx[a] = len(d.remapEntries)
	d.remapEntries = append(d.remapEntries, RemapEntry{Addr: a, Exempt: exempt})
	if exempt {
		d.weakExempt[a] = true
	}
	delete(d.stuck, a)
	d.commitRemapRecord()
	return nil
}

// commitRemapRecord writes the next record into slot seq%2, keeping
// the overwritten slot's prior bytes so crash tearing can compose
// old/new per 64-byte chunk, exactly like a torn data line.
func (d *Device) commitRemapRecord() {
	d.remapsBoot++
	d.remapSeq++
	slot := RemapFormat.Slot(d.remapTable, d.remapSeq)
	d.remapPrev = append(d.remapPrev[:0], slot...)
	copy(slot, EncodeRemapRecord(RemapRecord{
		Seq:     d.remapSeq,
		Total:   d.spareTotal,
		Entries: d.remapEntries,
	}))
}

// TearNewestRemapSlot applies power-failure tearing to the most recent
// remap-record commit: each 64-byte chunk of the newest slot
// independently keeps the new bytes, reverts to the slot's prior
// content, or mixes per 8-byte word, per the fault model's TearMask.
// A damaged slot fails its checksum and the previous record rules —
// the crash-consistency contract under test. No-op unless a finite
// pool committed a record this boot under TornWrites. Reports whether
// the slot was damaged.
func (d *Device) TearNewestRemapSlot() bool {
	if d.spareTotal == 0 || d.remapsBoot == 0 || d.remapPrev == nil || !d.faults.CrashAffectsWPQ() || !d.faults.TornWrites {
		return false
	}
	// Pseudo-addresses past twice the device size keep the table's tear
	// decisions out of every real line's stream (the recovery journal
	// uses [TotalBytes, TotalBytes+384) for its own).
	base := mem.Addr(2*d.layout.TotalBytes()) + mem.Addr(RemapFormat.Off(d.remapSeq))
	slot := RemapFormat.Slot(d.remapTable, d.remapSeq)
	return d.faults.TearChunks(slot, d.remapPrev, slot, base, d.remapSeq)
}

// healOnWrite heals a stuck line at its rewrite. On the unlimited
// legacy pool this is the free delete it always was; a finite pool
// charges the heal one spare (re-heals of an already-remapped line are
// free), and once the pool is exhausted the write lands on dead cells:
// the content is stored but the line stays stuck, so the loss is
// visible to reads rather than silent.
func (d *Device) healOnWrite(a mem.Addr) {
	if !d.stuck[a] {
		return
	}
	if d.spareTotal == 0 {
		delete(d.stuck, a)
		return
	}
	_ = d.Remap(a, false) // exhaustion already counted in remapRefused
}

// restoreSparePool rebuilds the pool from a snapshot's table bytes:
// the ruling record is the single source of truth, so a remap whose
// commit tore rolls back here (its line re-presents as stuck or weak
// and is simply remapped again).
func (d *Device) restoreSparePool(table []byte) {
	d.remapTable = append([]byte(nil), table...)
	d.remapIdx = make(map[mem.Addr]int)
	d.remapEntries = nil
	d.weakExempt = make(map[mem.Addr]bool)
	d.spareUsed = 0
	d.remapSeq = 0
	d.remapsBoot = 0
	d.remapRefused = 0
	d.remapPrev = nil
	rec, ok, _ := LoadRemapTable(d.remapTable)
	if !ok {
		return
	}
	d.spareTotal = rec.Total
	d.remapSeq = rec.Seq
	for _, e := range rec.Entries {
		d.remapIdx[e.Addr] = len(d.remapEntries)
		d.remapEntries = append(d.remapEntries, e)
		if e.Exempt {
			d.weakExempt[e.Addr] = true
		}
	}
	d.spareUsed = len(d.remapEntries)
}
