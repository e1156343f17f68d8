package nvm

import (
	"bytes"
	"encoding/hex"
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

// TestRemapRecordRoundTrip pins the slot bytes: the record below
// encodes to exactly what the encoder wrote before the two-slot frame
// moved to internal/twoslot (a 51-byte header and entries, the checksum
// at 600, zero elsewhere), and a table holding it rules back the same
// record.
func TestRemapRecordRoundTrip(t *testing.T) {
	rec := RemapRecord{Seq: 7, Total: 5, Entries: []RemapEntry{{Addr: 0x1000}, {Addr: 0x2040, Exempt: true}, {Addr: 0x3f80}}}
	want := make([]byte, RemapSlotLen)
	hex.Decode(want, []byte("434352540100000007000000000000000300050000000000001000000000000000402000000000000001803f0000000000"))
	hex.Decode(want[600:], []byte("673a40a800000000"))
	b := EncodeRemapRecord(rec)
	if !bytes.Equal(b, want) {
		t.Fatalf("slot bytes changed:\n got %x\nwant %x", b, want)
	}
	table := make([]byte, RemapTableLen)
	copy(RemapFormat.Slot(table, rec.Seq), b)
	if got, ok, torn := LoadRemapTable(table); !ok || torn || !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip: %+v (ok=%v torn=%v), want %+v", got, ok, torn, rec)
	}
}

// TestDecodeRemapSlotRejectsDamage: frame damage is internal/twoslot's
// to catch; the payload check is the table's own. A sealed slot listing
// more entries than its pool holds is torn, and the record before it
// rules.
func TestDecodeRemapSlotRejectsDamage(t *testing.T) {
	table := make([]byte, RemapTableLen)
	copy(table, EncodeRemapRecord(RemapRecord{Seq: 2, Total: 2, Entries: []RemapEntry{{Addr: 0x40}}}))
	over := RemapFormat.Slot(table, 3)
	copy(over, EncodeRemapRecord(RemapRecord{Seq: 3, Total: 2, Entries: []RemapEntry{{Addr: 0x40}, {Addr: 0x80}}}))
	over[16] = 3
	RemapFormat.Seal(over, 3)
	if rec, ok, torn := LoadRemapTable(table); !ok || !torn || rec.Seq != 2 {
		t.Fatalf("count > total: ruled seq %d (ok=%v torn=%v), want seq 2 over a torn slot", rec.Seq, ok, torn)
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
