// Package nvm models the non-volatile main memory device: a sparse
// byte-addressable PCM DIMM with the paper's read/write latencies,
// per-region access accounting and per-line write-endurance counters.
//
// The device is purely functional plus bookkeeping; service timing
// (banks, queues, the write-pending queue and ADR semantics) lives in
// package memctrl, which owns a Device.
package nvm

import (
	"fmt"
	"slices"

	"ccnvm/internal/mem"
)

// Timing holds the device latencies in cycles. The paper models PCM at
// 60 ns reads and 150 ns writes on a 3 GHz core: 180 and 450 cycles.
type Timing struct {
	ReadCycles  int64
	WriteCycles int64
}

// PCMTiming returns the paper's PCM timing at a given core clock in GHz.
func PCMTiming(clockGHz float64) Timing {
	return Timing{
		ReadCycles:  int64(60 * clockGHz),
		WriteCycles: int64(150 * clockGHz),
	}
}

// WriteBreakdown counts NVM line writes by address region. This is the
// quantity Figure 5(b) plots.
type WriteBreakdown struct {
	Data    uint64
	HMAC    uint64
	Counter uint64
	Tree    uint64
}

// Total sums all regions.
func (w WriteBreakdown) Total() uint64 { return w.Data + w.HMAC + w.Counter + w.Tree }

// Add accumulates o into w.
func (w *WriteBreakdown) Add(o WriteBreakdown) {
	w.Data += o.Data
	w.HMAC += o.HMAC
	w.Counter += o.Counter
	w.Tree += o.Tree
}

// String renders the breakdown compactly.
func (w WriteBreakdown) String() string {
	return fmt.Sprintf("writes{data=%d hmac=%d ctr=%d tree=%d total=%d}",
		w.Data, w.HMAC, w.Counter, w.Tree, w.Total())
}

// Device is the NVM DIMM. Create with NewDevice.
type Device struct {
	layout *mem.Layout
	timing Timing
	store  mem.Store
	wear   mem.LineMap[uint64] // per-line write counts, same page index as store

	// The hottest line so far: wear only grows between restores, so the
	// maximum is kept as writes arrive instead of searched for.
	maxWear     uint64
	maxWearAddr mem.Addr

	writes WriteBreakdown
	reads  uint64

	// Media fault state; all nil/empty on the idealized device.
	faults     *FaultModel
	stuck      map[mem.Addr]bool // permanently unreadable until rewritten
	weakExempt map[mem.Addr]bool // chronically weak lines remapped by scrubbing

	// Finite spare-pool state (see spare.go); all zero/nil on the
	// unlimited legacy pool (FaultModel.SpareLines == 0).
	spareTotal      int
	spareUsed       int
	remapEntries    []RemapEntry
	remapIdx        map[mem.Addr]int
	remapSeq        uint64
	remapsBoot      uint64
	remapRefused    uint64
	remapTable      []byte
	remapPrev       []byte // prior bytes of the most recently written slot
	dropRemapCommit bool   // torture sabotage: drop record writes
}

// NewDevice builds a device over the given layout and timing.
func NewDevice(layout *mem.Layout, timing Timing) *Device {
	return &Device{layout: layout, timing: timing}
}

// Layout returns the device's address-space layout.
func (d *Device) Layout() *mem.Layout { return d.layout }

// SetFaultModel installs (or, with nil, removes) the media fault model.
// Install it before issuing traffic: weak-line decisions depend on wear.
func (d *Device) SetFaultModel(m *FaultModel) {
	d.faults = m
	if m != nil {
		if d.stuck == nil {
			d.stuck = make(map[mem.Addr]bool)
		}
		if d.weakExempt == nil {
			d.weakExempt = make(map[mem.Addr]bool)
		}
		if m.SpareLines > 0 {
			d.initSparePool(m.SpareLines)
		}
	}
}

// FaultModel returns the installed fault model (nil on the idealized
// device).
func (d *Device) FaultModel() *FaultModel { return d.faults }

// Timing returns the device latencies.
func (d *Device) Timing() Timing { return d.timing }

// Read returns the line at a and whether it was ever written. Absent
// lines read as zero ("never written"); the security layer derives
// default metadata for them.
func (d *Device) Read(a mem.Addr) (mem.Line, bool) {
	d.reads++
	return d.store.Read(a)
}

// Peek reads without counting an access; recovery and tests use it.
func (d *Device) Peek(a mem.Addr) (mem.Line, bool) { return d.store.Read(a) }

// Holds reports whether the device holds img's lines, unwritten since
// one was snapshotted or restored from the other (mem.LineMap.Shares):
// false after any write to either, even of the same bytes.
func (d *Device) Holds(img *Image) bool { return d.store.Shares(img.Store) }

// Range lists the written lines in [lo, hi) in ascending address order
// without counting an access; page reclaim walks its arena half with it.
func (d *Device) Range(lo, hi mem.Addr) []mem.Addr { return d.store.Range(lo, hi) }

// Write persists line l at a, counting the write against its region and
// the line's wear counter. Writing heals a stuck line (the device remaps
// it to a spare). An out-of-range address returns *AddrRangeError.
func (d *Device) Write(a mem.Addr, l mem.Line) error {
	a = mem.Align(a)
	switch d.layout.RegionOf(a) {
	case mem.RegionData:
		d.writes.Data++
	case mem.RegionHMAC:
		d.writes.HMAC++
	case mem.RegionCounter:
		d.writes.Counter++
	case mem.RegionTree:
		d.writes.Tree++
	default:
		return &AddrRangeError{Addr: a}
	}
	w := d.wearOf(a) + 1
	d.wear.Write(a, w)
	if w > d.maxWear || (w == d.maxWear && a < d.maxWearAddr) {
		d.maxWear, d.maxWearAddr = w, a
	}
	d.healOnWrite(a)
	d.store.Write(a, l)
	return nil
}

// ReadFails reports whether the given read attempt (0-based) of line a
// fails under the fault model: always for a stuck line, for the first
// one or two attempts of a weak line. The idealized device never fails.
func (d *Device) ReadFails(a mem.Addr, attempt int) bool {
	if d.faults == nil {
		return false
	}
	a = mem.Align(a)
	if d.stuck[a] {
		return true
	}
	if d.faults.WeakLineRate <= 0 || d.weakExempt[a] {
		return false
	}
	if _, ok := d.store.Read(a); !ok {
		return false // never-written cells have no weak state
	}
	w := d.wearOf(a)
	if !d.faults.lineWeak(a, w) {
		return false
	}
	return attempt < d.faults.failCount(a, w)
}

// wearOf returns how many times line a was written since boot.
func (d *Device) wearOf(a mem.Addr) uint64 {
	w, _ := d.wear.Read(a)
	return w
}

// LineWeak reports whether a's current cell state is weak (scrubbing
// targets these).
func (d *Device) LineWeak(a mem.Addr) bool {
	a = mem.Align(a)
	if d.faults == nil || d.weakExempt[a] || d.stuck[a] {
		return false
	}
	if _, ok := d.store.Read(a); !ok {
		return false
	}
	return d.faults.lineWeak(a, d.wearOf(a))
}

// WeakLines lists the currently weak written lines in address order.
func (d *Device) WeakLines() []mem.Addr {
	if d.faults == nil || d.faults.WeakLineRate <= 0 {
		return nil
	}
	var out []mem.Addr
	for _, a := range d.store.Addrs() {
		if d.LineWeak(a) {
			out = append(out, a)
		}
	}
	return out
}

// ExemptLine marks a line as remapped to a spare after scrubbing gave up
// on its cells: it no longer produces weak-line errors. It is the
// legacy spelling of Remap(a, true); on a finite pool an exhausted-pool
// refusal is silent here — callers that must observe it use Remap.
func (d *Device) ExemptLine(a mem.Addr) {
	_ = d.Remap(a, true)
}

// StuckLines returns the currently stuck lines in address order.
func (d *Device) StuckLines() []mem.Addr {
	out := make([]mem.Addr, 0, len(d.stuck))
	for a := range d.stuck {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// InjectStuckLines applies the fault model's stuck-at failures at a
// power loss: StuckLines distinct written lines, picked deterministically
// from the seed, become permanently unreadable. It returns the newly
// stuck addresses.
func (d *Device) InjectStuckLines() []mem.Addr {
	if d.faults == nil || d.faults.StuckLines <= 0 {
		return nil
	}
	addrs := d.store.Addrs()
	if len(addrs) == 0 {
		return nil
	}
	if d.stuck == nil {
		d.stuck = make(map[mem.Addr]bool)
	}
	var out []mem.Addr
	for i := 0; len(out) < d.faults.StuckLines && i < 4*d.faults.StuckLines+16; i++ {
		a := addrs[int(d.faults.hash(saltStuck, uint64(i))%uint64(len(addrs)))]
		if !d.stuck[a] {
			d.stuck[a] = true
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// ApplyCrashFault mutates the persistent content without any access
// accounting: the power-failure fault model tears or reverts lines the
// ADR flush could not cover, which is not a serviced write and must not
// show up in write or wear statistics. present=false removes the line
// (no word of it ever reached the media).
func (d *Device) ApplyCrashFault(a mem.Addr, l mem.Line, present bool) {
	a = mem.Align(a)
	if present {
		d.store.Write(a, l)
	} else {
		d.store.Delete(a)
	}
}

// Writes returns the per-region write counters.
func (d *Device) Writes() WriteBreakdown { return d.writes }

// Reads returns the total line reads.
func (d *Device) Reads() uint64 { return d.reads }

// MaxWear returns the largest per-line write count and the address that
// holds it; NVM lifetime is bounded by the hottest line.
func (d *Device) MaxWear() (mem.Addr, uint64) {
	return d.maxWearAddr, d.maxWear
}

// Image is a crash snapshot of the persistent state: the NVM contents
// plus nothing else (TCB registers are snapshotted by the engine, which
// owns them). Stuck lists lines whose cells failed permanently at the
// power loss: they hold content but return read errors until rewritten.
type Image struct {
	Layout *mem.Layout
	Store  *mem.Store
	Stuck  map[mem.Addr]bool

	// RemapTable is the persisted two-slot spare remap table; nil on
	// the unlimited legacy pool (see spare.go).
	RemapTable []byte
}

// Snapshot captures the current persistent contents.
func (d *Device) Snapshot() *Image {
	img := &Image{Layout: d.layout, Store: d.store.Clone()}
	if len(d.stuck) > 0 {
		img.Stuck = make(map[mem.Addr]bool, len(d.stuck))
		for a := range d.stuck {
			img.Stuck[a] = true
		}
	}
	if d.spareTotal > 0 {
		img.RemapTable = append([]byte(nil), d.remapTable...)
	}
	return img
}

// Restore replaces the device contents with a snapshot, clearing access
// statistics. Used to reboot a simulated machine from a crash image.
// Wear counters reset with the statistics: the model tracks per-boot
// write pressure, not lifetime endurance (see TestRestoreResetsWear).
func (d *Device) Restore(img *Image) {
	d.store = *img.Store.Clone()
	d.writes = WriteBreakdown{}
	d.reads = 0
	d.wear = mem.LineMap[uint64]{}
	d.maxWear, d.maxWearAddr = 0, 0
	d.stuck = make(map[mem.Addr]bool)
	for a := range img.Stuck {
		d.stuck[a] = true
	}
	if len(img.RemapTable) > 0 {
		d.restoreSparePool(img.RemapTable)
	}
}

// Read returns the line at a in the image, with never-written handling
// identical to the live device. Stuck lines read as absent: their
// content is unreachable.
func (i *Image) Read(a mem.Addr) (mem.Line, bool) {
	a = mem.Align(a)
	if i.Stuck[a] {
		return mem.Line{}, false
	}
	return i.Store.Read(a)
}

// Write mutates the image in place; attack injection and recovery's
// Apply use it. Writing heals a stuck line, mirroring the device.
func (i *Image) Write(a mem.Addr, l mem.Line) {
	a = mem.Align(a)
	delete(i.Stuck, a)
	i.Store.Write(a, l)
}

// Clone deep-copies the image so attacks can be injected on a copy.
func (i *Image) Clone() *Image {
	cp := &Image{Layout: i.Layout, Store: i.Store.Clone()}
	if len(i.Stuck) > 0 {
		cp.Stuck = make(map[mem.Addr]bool, len(i.Stuck))
		for a := range i.Stuck {
			cp.Stuck[a] = true
		}
	}
	if len(i.RemapTable) > 0 {
		cp.RemapTable = append([]byte(nil), i.RemapTable...)
	}
	return cp
}
