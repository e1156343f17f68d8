package nvm

import (
	"encoding/binary"
	"fmt"

	"ccnvm/internal/mem"
)

// Finite spare-pool media management.
//
// With FaultModel.SpareLines > 0 the device carves an explicit spare
// region out of the media: every stuck-line heal and every scrub
// give-up consumes one spare line, recorded in a remap table that is
// persisted with the same discipline as the recovery journal (PR 5):
// two fixed slots, each a checksummed record, written alternately by
// sequence number. A commit is one slot write; a crash mid-commit
// leaves a torn slot whose checksum fails, so the previous record
// rules and the interrupted remap rolls back cleanly (the line simply
// re-presents as stuck or weak and is remapped again on the next
// boot). Recovery validates and repairs the table before the four-step
// walk, so a lost mapping is never misread as tampering.
//
// SpareLines == 0 keeps the historical unlimited pool: no table is
// allocated, no accounting happens, and every prior image and digest
// stays bit-identical.

// Remap record geometry. One slot is RemapSlotLen bytes:
//
//	off   0  magic "CCRT" (4)
//	off   4  version (1)
//	off   5  reserved (3)
//	off   8  sequence number (8, little-endian)
//	off  16  entry count (2)
//	off  18  pool size (2)
//	off  20  reserved (4)
//	off  24  entries: RemapMaxEntries × 9 bytes (addr 8 + flags 1;
//	         flag bit 0 = weak-exempt)
//	off 600  FNV-64a checksum over [0,600) (8)
//	         zero padding to 640
const (
	remapMagic     = "CCRT"
	remapVersion   = 1
	remapEntryLen  = 9
	remapHeaderLen = 24

	// RemapMaxEntries bounds the pool: the largest spare region one
	// record can describe.
	RemapMaxEntries = 64

	remapChecksumOff = remapHeaderLen + RemapMaxEntries*remapEntryLen

	// RemapSlotLen is one record slot, RemapTableLen the whole two-slot
	// table, both multiples of the 64-byte persistence chunk so crash
	// tearing composes per chunk exactly like data lines.
	RemapSlotLen  = 640
	RemapTableLen = 2 * RemapSlotLen
)

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
	copy(b[0:4], remapMagic)
	b[4] = remapVersion
	binary.LittleEndian.PutUint64(b[8:16], r.Seq)
	binary.LittleEndian.PutUint16(b[16:18], uint16(len(r.Entries)))
	binary.LittleEndian.PutUint16(b[18:20], uint16(r.Total))
	for i, e := range r.Entries {
		off := remapHeaderLen + i*remapEntryLen
		binary.LittleEndian.PutUint64(b[off:off+8], uint64(e.Addr))
		if e.Exempt {
			b[off+8] = 1
		}
	}
	binary.LittleEndian.PutUint64(b[remapChecksumOff:remapChecksumOff+8], mem.FNV64a(b[:remapChecksumOff]))
	return b
}

// DecodeRemapSlot parses one slot, reporting ok=false for anything
// torn, truncated or foreign.
func DecodeRemapSlot(b []byte) (RemapRecord, bool) {
	if len(b) < RemapSlotLen || string(b[0:4]) != remapMagic || b[4] != remapVersion {
		return RemapRecord{}, false
	}
	if binary.LittleEndian.Uint64(b[remapChecksumOff:remapChecksumOff+8]) != mem.FNV64a(b[:remapChecksumOff]) {
		return RemapRecord{}, false
	}
	r := RemapRecord{
		Seq:   binary.LittleEndian.Uint64(b[8:16]),
		Total: int(binary.LittleEndian.Uint16(b[18:20])),
	}
	n := int(binary.LittleEndian.Uint16(b[16:18]))
	if n > RemapMaxEntries || n > r.Total {
		return RemapRecord{}, false
	}
	for i := 0; i < n; i++ {
		off := remapHeaderLen + i*remapEntryLen
		r.Entries = append(r.Entries, RemapEntry{
			Addr:   mem.Addr(binary.LittleEndian.Uint64(b[off : off+8])),
			Exempt: b[off+8]&1 != 0,
		})
	}
	return r, true
}

// remapSlotEmpty reports a slot that was never written (all-zero magic):
// fresh media, as opposed to a torn record.
func remapSlotEmpty(b []byte) bool {
	return len(b) >= 4 && b[0] == 0 && b[1] == 0 && b[2] == 0 && b[3] == 0
}

// LoadRemapTable decodes the two-slot table. ok is true when at least
// one slot holds an intact record (the newest by sequence number wins);
// torn is true when a non-empty slot failed its checksum — the
// signature of a crash mid-commit, which the previous record's rule
// rolls back.
func LoadRemapTable(table []byte) (rec RemapRecord, ok, torn bool) {
	if len(table) < RemapTableLen {
		return RemapRecord{}, false, false
	}
	r0, ok0 := DecodeRemapSlot(table[:RemapSlotLen])
	r1, ok1 := DecodeRemapSlot(table[RemapSlotLen:])
	torn = (!ok0 && !remapSlotEmpty(table[:RemapSlotLen])) ||
		(!ok1 && !remapSlotEmpty(table[RemapSlotLen:]))
	switch {
	case ok0 && ok1:
		if r1.Seq > r0.Seq {
			return r1, true, torn
		}
		return r0, true, torn
	case ok0:
		return r0, true, torn
	case ok1:
		return r1, true, torn
	}
	return RemapRecord{}, false, torn
}

// RepairRemapTable is recovery's replay step: the winning record is
// re-encoded over any torn slot, so the rollback is made durable and a
// re-entered recovery sees a fully intact table. Returns the ruling
// record and whether a torn slot was repaired.
func RepairRemapTable(table []byte) (rec RemapRecord, ok, torn bool) {
	rec, ok, torn = LoadRemapTable(table)
	if !ok || !torn {
		return rec, ok, torn
	}
	enc := EncodeRemapRecord(rec)
	if _, s0 := DecodeRemapSlot(table[:RemapSlotLen]); !s0 {
		copy(table[:RemapSlotLen], enc)
	}
	if _, s1 := DecodeRemapSlot(table[RemapSlotLen:]); !s1 {
		copy(table[RemapSlotLen:], enc)
	}
	return rec, ok, torn
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
	if d.dropRemapCommit {
		return // sabotage: the spare is consumed but the record never lands
	}
	d.remapSeq++
	slot := int(d.remapSeq % 2)
	off := slot * RemapSlotLen
	d.remapPrev = append(d.remapPrev[:0], d.remapTable[off:off+RemapSlotLen]...)
	copy(d.remapTable[off:off+RemapSlotLen], EncodeRemapRecord(RemapRecord{
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
	slot := int(d.remapSeq % 2)
	off := slot * RemapSlotLen
	// Pseudo-addresses past twice the device size keep the table's tear
	// decisions out of every real line's stream (the recovery journal
	// uses [TotalBytes, TotalBytes+384) for its own).
	base := mem.Addr(2 * d.layout.TotalBytes())
	torn := false
	for c := 0; c < RemapSlotLen/64; c++ {
		mask := d.faults.TearMask(base+mem.Addr(off+c*64), d.remapSeq)
		if mask == 0xff {
			continue
		}
		var old, new mem.Line
		copy(old[:], d.remapPrev[c*64:c*64+64])
		copy(new[:], d.remapTable[off+c*64:off+c*64+64])
		mixed := MixWords(old, new, mask)
		copy(d.remapTable[off+c*64:off+c*64+64], mixed[:])
		torn = true
	}
	return torn
}

// SabotageDropRemapCommit breaks the remap-commit protocol for the
// torture harness's break-remap-commit self-test: spares are consumed
// and lines healed, but record writes are silently dropped, so the
// persisted table forgets every remap. The spare-accounting oracle
// must notice.
func (d *Device) SabotageDropRemapCommit() { d.dropRemapCommit = true }

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
