package nvm

import (
	"errors"
	"testing"

	"ccnvm/internal/mem"
)

func device(t testing.TB) *Device {
	t.Helper()
	return NewDevice(mem.MustLayout(64<<20), PCMTiming(3))
}

func TestPCMTiming(t *testing.T) {
	tm := PCMTiming(3)
	if tm.ReadCycles != 180 || tm.WriteCycles != 450 {
		t.Fatalf("timing = %+v, want 180/450 at 3 GHz", tm)
	}
}

func TestWriteBreakdownByRegion(t *testing.T) {
	d := device(t)
	lay := d.Layout()
	var l mem.Line
	d.Write(0, l)                      // data
	d.Write(lay.CounterBase, l)        // counter
	d.Write(lay.HMACBase, l)           // hmac
	d.Write(lay.NodeAddr(1, 0), l)     // tree
	d.Write(mem.Addr(mem.LineSize), l) // data again
	w := d.Writes()
	if w.Data != 2 || w.Counter != 1 || w.HMAC != 1 || w.Tree != 1 {
		t.Fatalf("breakdown = %v", w)
	}
	if w.Total() != 5 {
		t.Fatalf("total = %d, want 5", w.Total())
	}
}

func TestWriteOutsideSpaceReturnsTypedError(t *testing.T) {
	d := device(t)
	bad := mem.Addr(d.Layout().TotalBytes())
	err := d.Write(bad, mem.Line{})
	var re *AddrRangeError
	if !errors.As(err, &re) {
		t.Fatalf("out-of-space write returned %v, want *AddrRangeError", err)
	}
	if re.Addr != bad {
		t.Fatalf("error names address %#x, want %#x", uint64(re.Addr), uint64(bad))
	}
	if d.Writes().Total() != 0 {
		t.Fatal("failed write counted against a region")
	}
}

func TestReadNeverWritten(t *testing.T) {
	d := device(t)
	l, ok := d.Read(0)
	if ok {
		t.Fatal("unwritten line reported as written")
	}
	if l != (mem.Line{}) {
		t.Fatal("unwritten line not zero")
	}
	if d.Reads() != 1 {
		t.Fatal("read not counted")
	}
}

func TestPeekDoesNotCount(t *testing.T) {
	d := device(t)
	d.Peek(0)
	if d.Reads() != 0 {
		t.Fatal("Peek counted as a read")
	}
}

func TestWear(t *testing.T) {
	d := device(t)
	var l mem.Line
	for i := 0; i < 5; i++ {
		d.Write(128, l)
	}
	d.Write(0, l)
	a, w := d.MaxWear()
	if a != 128 || w != 5 {
		t.Fatalf("MaxWear = (%#x,%d), want (0x80,5)", uint64(a), w)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	d := device(t)
	var l mem.Line
	l[0] = 1
	d.Write(0, l)
	img := d.Snapshot()
	l[0] = 2
	d.Write(0, l)
	got, _ := img.Read(0)
	if got[0] != 1 {
		t.Fatal("snapshot sees later writes")
	}
}

func TestRestoreResetsStats(t *testing.T) {
	d := device(t)
	var l mem.Line
	d.Write(0, l)
	img := d.Snapshot()
	d.Read(0)
	d.Restore(img)
	if d.Reads() != 0 || d.Writes().Total() != 0 {
		t.Fatal("Restore did not clear statistics")
	}
	if _, ok := d.Peek(0); !ok {
		t.Fatal("Restore lost contents")
	}
}

func TestImageCloneIsDeep(t *testing.T) {
	d := device(t)
	var l mem.Line
	l[0] = 1
	d.Write(0, l)
	img := d.Snapshot()
	cp := img.Clone()
	l[0] = 9
	cp.Write(0, l)
	orig, _ := img.Read(0)
	if orig[0] != 1 {
		t.Fatal("image clone shares storage")
	}
}

func TestWriteBreakdownAdd(t *testing.T) {
	a := WriteBreakdown{Data: 1, HMAC: 2, Counter: 3, Tree: 4}
	b := WriteBreakdown{Data: 10, HMAC: 20, Counter: 30, Tree: 40}
	a.Add(b)
	if a.Data != 11 || a.HMAC != 22 || a.Counter != 33 || a.Tree != 44 {
		t.Fatalf("Add result = %+v", a)
	}
}

// TestRestoreResetsWear pins the wear semantics Restore documents: wear
// counters track per-boot write pressure, so a reboot from a crash
// image starts them at zero and only post-restore writes accumulate.
// The fault model keys weak-line decisions on (addr, wear), so this
// reset is also what re-rolls cell state across a reboot.
func TestRestoreResetsWear(t *testing.T) {
	d := device(t)
	var l mem.Line
	for i := 0; i < 5; i++ {
		d.Write(128, l)
	}
	img := d.Snapshot()
	d.Restore(img)
	if _, w := d.MaxWear(); w != 0 {
		t.Fatalf("wear survived Restore: max %d, want 0", w)
	}
	d.Write(128, l)
	d.Write(128, l)
	d.Write(0, l)
	if a, w := d.MaxWear(); a != 128 || w != 2 {
		t.Fatalf("post-restore MaxWear = (%#x,%d), want (0x80,2)", uint64(a), w)
	}
}

// TestUnalignedAddressHitsStuckAndExemptLines: an address inside a line
// is that line. The stuck and scrub-exempt sets are keyed by line
// address, so they must be consulted after aligning — an unaligned
// address used to slip past both.
func TestUnalignedAddressHitsStuckAndExemptLines(t *testing.T) {
	d := device(t)
	d.SetFaultModel(&FaultModel{Seed: 1, WeakLineRate: 1, StuckLines: 1})
	const stuck, exempt = mem.Addr(0), mem.Addr(4096)
	if err := d.Write(stuck, mem.Line{1}); err != nil {
		t.Fatal(err)
	}
	if got := d.InjectStuckLines(); len(got) != 1 || got[0] != stuck {
		t.Fatalf("InjectStuckLines = %#x, want the one written line", got)
	}
	if err := d.Write(exempt, mem.Line{2}); err != nil {
		t.Fatal(err)
	}
	if !d.LineWeak(exempt + 8) {
		t.Fatal("every written line is weak at rate 1")
	}
	d.ExemptLine(exempt)
	for _, a := range []mem.Addr{stuck, stuck + 8, exempt, exempt + 8} {
		if d.LineWeak(a) {
			t.Errorf("LineWeak(%#x) = true for a stuck or exempt line", uint64(a))
		}
	}

	img := d.Snapshot()
	if _, ok := img.Read(stuck + 8); ok {
		t.Error("Image.Read inside a stuck line returned its content")
	}
	img.Write(stuck+8, mem.Line{3})
	if img.Stuck[stuck] {
		t.Error("Image.Write inside a stuck line did not heal it")
	}
	if l, ok := img.Read(stuck); !ok || l[0] != 3 {
		t.Error("Image.Write inside a line did not land on the line")
	}
}

// TestMaxWearLowestAddressWinsTie pins the tie-break the running
// maximum must keep: among the hottest lines, the lowest address.
func TestMaxWearLowestAddressWinsTie(t *testing.T) {
	d := device(t)
	for _, a := range []mem.Addr{128, 64, 128, 64, 192} {
		if err := d.Write(a, mem.Line{}); err != nil {
			t.Fatal(err)
		}
	}
	if a, w := d.MaxWear(); a != 64 || w != 2 {
		t.Fatalf("MaxWear = %#x x%d, want 0x40 x2", uint64(a), w)
	}
}
