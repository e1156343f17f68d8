package nvm

import (
	"errors"
	"reflect"
	"testing"

	"ccnvm/internal/mem"
)

func spareDevice(t testing.TB, m *FaultModel) *Device {
	t.Helper()
	d := device(t)
	d.SetFaultModel(m)
	return d
}

func TestRemapRecordRoundTrip(t *testing.T) {
	rec := RemapRecord{
		Seq:   7,
		Total: 5,
		Entries: []RemapEntry{
			{Addr: 0x1000},
			{Addr: 0x2040, Exempt: true},
			{Addr: 0x3f80},
		},
	}
	b := EncodeRemapRecord(rec)
	if len(b) != RemapSlotLen {
		t.Fatalf("slot length %d, want %d", len(b), RemapSlotLen)
	}
	got, ok := DecodeRemapSlot(b)
	if !ok {
		t.Fatal("round trip failed to decode")
	}
	if got.Seq != rec.Seq || got.Total != rec.Total || !reflect.DeepEqual(got.Entries, rec.Entries) {
		t.Fatalf("round trip changed the record: %+v -> %+v", rec, got)
	}
}

func TestDecodeRemapSlotRejectsDamage(t *testing.T) {
	rec := RemapRecord{Seq: 3, Total: 4, Entries: []RemapEntry{{Addr: 0x40}}}
	good := EncodeRemapRecord(rec)
	for _, off := range []int{0, 4, 8, 16, 18, remapHeaderLen, remapChecksumOff, remapChecksumOff + 7} {
		b := append([]byte(nil), good...)
		b[off] ^= 0xff
		if _, ok := DecodeRemapSlot(b); ok {
			t.Errorf("decode accepted a slot with byte %d flipped", off)
		}
	}
	if _, ok := DecodeRemapSlot(good[:RemapSlotLen-1]); ok {
		t.Error("decode accepted a truncated slot")
	}
	// An entry count above the provisioned pool size is structurally
	// impossible on a real device; a slot claiming it is damage.
	over := EncodeRemapRecord(RemapRecord{Seq: 1, Total: 2, Entries: []RemapEntry{{Addr: 0x40}, {Addr: 0x80}}})
	over[16] = 3 // count 3 > total 2; checksum now stale too, but fix it
	copyChecksum(over)
	if _, ok := DecodeRemapSlot(over); ok {
		t.Error("decode accepted count > total")
	}
}

// copyChecksum re-seals a slot after a test mutates its header, so the
// structural checks (not the checksum) are what reject it.
func copyChecksum(b []byte) {
	sum := mem.Checksum(b[:remapChecksumOff])
	for i := 0; i < 8; i++ {
		b[remapChecksumOff+i] = byte(sum >> (8 * i))
	}
}

func TestLoadRemapTableNewestWins(t *testing.T) {
	table := make([]byte, RemapTableLen)
	copy(table[:RemapSlotLen], EncodeRemapRecord(RemapRecord{Seq: 4, Total: 3, Entries: []RemapEntry{{Addr: 0x40}, {Addr: 0x80}}}))
	copy(table[RemapSlotLen:], EncodeRemapRecord(RemapRecord{Seq: 3, Total: 3, Entries: []RemapEntry{{Addr: 0x40}}}))
	rec, ok, torn := LoadRemapTable(table)
	if !ok || torn {
		t.Fatalf("load: ok=%v torn=%v", ok, torn)
	}
	if rec.Seq != 4 || len(rec.Entries) != 2 {
		t.Fatalf("winner is seq %d with %d entries, want seq 4 with 2", rec.Seq, len(rec.Entries))
	}
}

func TestLoadRemapTableTornFallsBack(t *testing.T) {
	table := make([]byte, RemapTableLen)
	copy(table[:RemapSlotLen], EncodeRemapRecord(RemapRecord{Seq: 4, Total: 3, Entries: []RemapEntry{{Addr: 0x40}, {Addr: 0x80}}}))
	copy(table[RemapSlotLen:], EncodeRemapRecord(RemapRecord{Seq: 3, Total: 3, Entries: []RemapEntry{{Addr: 0x40}}}))
	table[8] ^= 0x5a // tear the newest slot's sequence field
	rec, ok, torn := LoadRemapTable(table)
	if !ok || !torn {
		t.Fatalf("load: ok=%v torn=%v, want intact fallback over a torn slot", ok, torn)
	}
	if rec.Seq != 3 || len(rec.Entries) != 1 {
		t.Fatalf("fallback is seq %d with %d entries, want the previous record", rec.Seq, len(rec.Entries))
	}

	// Repair makes the rollback durable: the torn slot is rewritten from
	// the winner and a re-entered load sees a fully intact table.
	if _, ok, torn := RepairRemapTable(table); !ok || !torn {
		t.Fatalf("repair: ok=%v torn=%v", ok, torn)
	}
	rec2, ok2, torn2 := LoadRemapTable(table)
	if !ok2 || torn2 {
		t.Fatalf("post-repair load: ok=%v torn=%v", ok2, torn2)
	}
	if rec2.Seq != rec.Seq || !reflect.DeepEqual(rec2.Entries, rec.Entries) {
		t.Fatal("repair changed the ruling record")
	}
}

func TestLoadRemapTableEmptySlotIsNotTorn(t *testing.T) {
	table := make([]byte, RemapTableLen)
	copy(table[:RemapSlotLen], EncodeRemapRecord(RemapRecord{Total: 2}))
	rec, ok, torn := LoadRemapTable(table)
	if !ok || torn {
		t.Fatalf("freshly formatted table: ok=%v torn=%v", ok, torn)
	}
	if rec.Total != 2 || len(rec.Entries) != 0 {
		t.Fatalf("format record = %+v", rec)
	}
}

// TestRemapCommitTearEveryChunk is the exhaustive crash-mid-commit
// property at the record layer: a commit is ten 64-byte chunk writes,
// and a crash after any prefix — or tearing any chunk at word
// granularity — must leave a table that decodes to exactly the old or
// the new record, never to garbage and never to a false "unformatted".
func TestRemapCommitTearEveryChunk(t *testing.T) {
	oldRec := RemapRecord{Seq: 5, Total: 4, Entries: []RemapEntry{{Addr: 0x40}, {Addr: 0x80, Exempt: true}}}
	newRec := RemapRecord{Seq: 7, Total: 4, Entries: []RemapEntry{{Addr: 0x40}, {Addr: 0x80, Exempt: true}, {Addr: 0x1000}}}
	otherSlot := EncodeRemapRecord(RemapRecord{Seq: 6, Total: 4, Entries: oldRec.Entries})
	oldSlot := EncodeRemapRecord(oldRec)
	newSlot := EncodeRemapRecord(newRec)

	check := func(name string, slot []byte, wantSeq uint64, wantTorn bool) {
		t.Helper()
		table := make([]byte, RemapTableLen)
		copy(table[RemapSlotLen:], slot)      // slot 1: the commit in flight
		copy(table[:RemapSlotLen], otherSlot) // slot 0: the intact seq-6 record
		rec, ok, torn := LoadRemapTable(table)
		if !ok {
			t.Fatalf("%s: no record rules", name)
		}
		if torn != wantTorn {
			t.Fatalf("%s: torn=%v, want %v", name, torn, wantTorn)
		}
		if rec.Seq != wantSeq {
			t.Fatalf("%s: seq %d rules, want %d", name, rec.Seq, wantSeq)
		}
		n := len(rec.Entries)
		if n != len(oldRec.Entries) && n != len(newRec.Entries) {
			t.Fatalf("%s: ruling record has %d entries, want %d or %d", name, n, len(oldRec.Entries), len(newRec.Entries))
		}
		// Recovery's repair must converge: after one repair the table is
		// intact and a second load agrees byte for byte.
		RepairRemapTable(table)
		rec2, ok2, torn2 := LoadRemapTable(table)
		if !ok2 || torn2 || rec2.Seq != rec.Seq || !reflect.DeepEqual(rec2.Entries, rec.Entries) {
			t.Fatalf("%s: repair did not converge (ok=%v torn=%v seq=%d)", name, ok2, torn2, rec2.Seq)
		}
	}

	chunks := RemapSlotLen / 64
	for k := 0; k <= chunks; k++ {
		// Crash after the k-th chunk write: prefix new, suffix old.
		slot := append([]byte(nil), oldSlot...)
		copy(slot[:k*64], newSlot[:k*64])
		wantSeq, wantTorn := uint64(6), true
		switch k {
		case 0:
			wantSeq, wantTorn = oldRec.Seq, false // commit never started: old slot intact, seq 6 is older
			if oldRec.Seq < 6 {
				wantSeq = 6
			}
		case chunks:
			wantSeq, wantTorn = newRec.Seq, false
		}
		check("prefix", slot, wantSeq, wantTorn)

		// Crash inside the k-th chunk: prefix new, chunk k torn per word.
		if k < chunks {
			var oldL, newL mem.Line
			copy(oldL[:], oldSlot[k*64:k*64+64])
			copy(newL[:], newSlot[k*64:k*64+64])
			if oldL == newL {
				continue // identical chunk: no observable tear
			}
			mixed := MixWords(oldL, newL, 0x2d)
			if mixed == oldL || mixed == newL {
				continue
			}
			slot := append([]byte(nil), oldSlot...)
			copy(slot[:k*64], newSlot[:k*64])
			copy(slot[k*64:k*64+64], mixed[:])
			check("word-mix", slot, 6, true)
		}
	}
}

func TestDeviceSpareAccounting(t *testing.T) {
	d := spareDevice(t, &FaultModel{Seed: 3, StuckLines: 2, SpareLines: 2})
	var l mem.Line
	for i := 0; i < 16; i++ {
		l[0] = byte(i)
		d.Write(mem.Addr(i)*mem.LineSize, l)
	}
	stuck := d.InjectStuckLines()
	if len(stuck) != 2 {
		t.Fatalf("injected %d stuck lines, want 2", len(stuck))
	}

	// Healing a stuck line by rewrite consumes one spare and commits.
	d.Write(stuck[0], l)
	s := d.SpareStats()
	if s.Used != 1 || s.Remaps != 1 || s.Refused != 0 {
		t.Fatalf("after first heal: %+v", s)
	}
	if d.ReadFails(stuck[0], 0) {
		t.Fatal("healed line still fails reads")
	}

	// Re-healing the same line is free: the spare is already assigned.
	d.Write(stuck[0], l)
	if s := d.SpareStats(); s.Used != 1 {
		t.Fatalf("re-heal consumed another spare: %+v", s)
	}

	// An exempt upgrade re-uses the spare but commits a new record.
	before := d.SpareStats().Remaps
	if err := d.Remap(stuck[0], true); err != nil {
		t.Fatalf("exempt upgrade: %v", err)
	}
	s = d.SpareStats()
	if s.Used != 1 || s.Remaps != before+1 {
		t.Fatalf("after exempt upgrade: %+v", s)
	}

	// Second stuck line takes the last spare; the pool is then empty.
	d.Write(stuck[1], l)
	if s := d.SpareStats(); s.Used != 2 || s.Remaining() != 0 {
		t.Fatalf("after second heal: %+v", s)
	}

	// With the pool empty a fresh remap is refused with the typed error
	// and nothing changes.
	var ex *SpareExhaustedError
	if err := d.Remap(0x3000, false); !errors.As(err, &ex) {
		t.Fatalf("exhausted remap returned %v, want *SpareExhaustedError", err)
	}
	if ex.Total != 2 || ex.Addr != 0x3000 {
		t.Fatalf("error carries %+v", ex)
	}
	if s := d.SpareStats(); s.Used != 2 || s.Refused != 1 {
		t.Fatalf("after refused remap: %+v", s)
	}
}

// TestExhaustedHealLeavesLineStuck pins the lost-but-detected contract:
// once the pool is empty a rewrite of a stuck line stores the content
// but cannot heal the cells, so the loss stays visible to reads instead
// of silently disappearing.
func TestExhaustedHealLeavesLineStuck(t *testing.T) {
	d := spareDevice(t, &FaultModel{Seed: 5, StuckLines: 2, SpareLines: 1})
	var l mem.Line
	for i := 0; i < 16; i++ {
		d.Write(mem.Addr(i)*mem.LineSize, l)
	}
	stuck := d.InjectStuckLines()
	if len(stuck) != 2 {
		t.Fatalf("injected %d stuck lines, want 2", len(stuck))
	}
	d.Write(stuck[0], l) // takes the only spare
	d.Write(stuck[1], l) // pool empty: content lands on dead cells
	if !d.ReadFails(stuck[1], 9) {
		t.Fatal("exhausted heal silently cleared the stuck line")
	}
	if got := d.StuckLines(); len(got) != 1 || got[0] != stuck[1] {
		t.Fatalf("stuck set = %v, want [%#x]", got, uint64(stuck[1]))
	}
	if s := d.SpareStats(); s.Refused == 0 {
		t.Fatalf("refusal not counted: %+v", s)
	}
}

func TestSparePoolCappedAtRecordCapacity(t *testing.T) {
	d := spareDevice(t, &FaultModel{Seed: 1, StuckLines: 1, SpareLines: RemapMaxEntries + 100})
	if s := d.SpareStats(); s.Total != RemapMaxEntries {
		t.Fatalf("pool total %d, want cap %d", s.Total, RemapMaxEntries)
	}
}

func TestSpareSnapshotRestoreRoundTrip(t *testing.T) {
	d := spareDevice(t, &FaultModel{Seed: 3, StuckLines: 2, SpareLines: 4})
	var l mem.Line
	for i := 0; i < 16; i++ {
		d.Write(mem.Addr(i)*mem.LineSize, l)
	}
	stuck := d.InjectStuckLines()
	d.Write(stuck[0], l)
	if err := d.Remap(stuck[1], true); err != nil {
		t.Fatal(err)
	}
	want := d.RemapEntries()
	img := d.Snapshot()
	if len(img.RemapTable) != RemapTableLen {
		t.Fatalf("snapshot table is %d bytes", len(img.RemapTable))
	}

	d2 := spareDevice(t, &FaultModel{Seed: 3, StuckLines: 2, SpareLines: 4})
	d2.Restore(img)
	if got := d2.RemapEntries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restore lost mappings: %v vs %v", got, want)
	}
	s := d2.SpareStats()
	if s.Total != 4 || s.Used != 2 || s.Remaps != 0 {
		t.Fatalf("restored stats = %+v (Remaps counts this boot)", s)
	}
	// The exempt flag must survive: the restored line takes no weak-line
	// decisions.
	if d2.LineWeak(stuck[1]) {
		t.Fatal("restored exempt line presents as weak")
	}
}

// TestSabotagedCommitRollsBackOnRestore pins what the torture harness's
// break-remap-commit self-test relies on: a consumed spare whose record
// write was dropped does not survive a reboot — the table is the single
// source of truth.
func TestSabotagedCommitRollsBackOnRestore(t *testing.T) {
	d := spareDevice(t, &FaultModel{Seed: 3, StuckLines: 1, SpareLines: 2})
	var l mem.Line
	for i := 0; i < 16; i++ {
		d.Write(mem.Addr(i)*mem.LineSize, l)
	}
	stuck := d.InjectStuckLines()
	d.SabotageDropRemapCommit()
	d.Write(stuck[0], l)
	if s := d.SpareStats(); s.Used != 1 {
		t.Fatalf("sabotaged heal did not consume in memory: %+v", s)
	}
	d2 := spareDevice(t, &FaultModel{Seed: 3, StuckLines: 1, SpareLines: 2})
	d2.Restore(d.Snapshot())
	if s := d2.SpareStats(); s.Used != 0 {
		t.Fatalf("dropped commit survived the reboot: %+v", s)
	}
}
