package engine_test

import (
	"slices"
	"testing"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/memctrl"
	"ccnvm/internal/metacache"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/seccrypto"
)

// rigDev builds one engine by name and also returns its NVM device, for
// tests that assert per-region write counts.
func rigDev(t testing.TB, design string, p engine.Params) (engine.Engine, *nvm.Device) {
	t.Helper()
	lay := mem.MustLayout(capacity)
	dev := nvm.NewDevice(lay, nvm.PCMTiming(3))
	return engineOn(t, design, dev, p), dev
}

// engineOn builds an engine over an existing device (fresh or restored
// from a crash image).
func engineOn(t testing.TB, name string, dev *nvm.Device, p engine.Params) engine.Engine {
	t.Helper()
	ctrl := memctrl.New(memctrl.Config{}, dev)
	keys := seccrypto.DefaultKeys()
	lay := dev.Layout()
	d, ok := design.Lookup(name)
	if !ok {
		t.Fatalf("unknown design %q", name)
	}
	return d.New(lay, keys, ctrl, metacache.Config{}, p)
}

// reboot restores the (recovered) crash image onto a fresh device,
// builds the same design over it, and installs the recovered TCB and
// tree — the power-on sequence after recovery.Apply.
func reboot(t testing.TB, design string, img *engine.CrashImage, rec recovery.Recovered, p engine.Params) engine.Engine {
	t.Helper()
	dev := nvm.NewDevice(img.Image.Layout, nvm.PCMTiming(3))
	dev.Restore(img.Image)
	e := engineOn(t, design, dev, p)
	e.(interface{ RestoreTCB(engine.TCB) }).RestoreTCB(rec.TCB)
	if tr, ok := e.(interface{ RestoreTree(map[mem.Addr]mem.Line) }); ok {
		tr.RestoreTree(rec.Tree())
	}
	return e
}

// TestOsirisWriteBackCounts pins Osiris's write economics: every
// write-back costs a data and an HMAC line, the counter line reaches NVM
// only every N-th update (the stop-loss), and the Merkle tree is never
// persisted.
func TestOsirisWriteBackCounts(t *testing.T) {
	const n, k = 4, 10
	e, dev := rigDev(t, "osiris", engine.Params{UpdateLimit: n})
	now := int64(0)
	for i := 0; i < k; i++ {
		now = e.WriteBack(now, 0x2000, pattern(0x2000, byte(i))) + 50
	}
	w := dev.Writes()
	if w.Data != k || w.HMAC != k {
		t.Fatalf("data/HMAC writes = %d/%d, want %d each (%s)", w.Data, w.HMAC, k, w)
	}
	if want := uint64(k / n); w.Counter != want {
		t.Fatalf("counter writes = %d, want %d (stop-loss every %d updates; %s)", w.Counter, want, n, w)
	}
	if w.Tree != 0 {
		t.Fatalf("osiris persisted %d tree nodes; the tree must stay volatile (%s)", w.Tree, w)
	}
}

// TestOsirisSettleEventOrderRepeats pins the order in which Settle
// persists the counter lines that run ahead of NVM: ascending by
// address, the same on every run, because the controller event tap
// feeds the persist-ordering graph and, under a fault model, the order
// numbers the in-flight writes a crash tears.
func TestOsirisSettleEventOrderRepeats(t *testing.T) {
	const pages = 16
	run := func() []memctrl.Event {
		e, _ := rigDev(t, "osiris", engine.Params{})
		now := int64(0)
		for i := 0; i < pages; i++ {
			a := mem.Addr((i*7919)%1024) * mem.PageSize
			now = e.WriteBack(now, a, pattern(a, byte(i))) + 50
		}
		var events []memctrl.Event
		e.(*engine.Osiris).Ctrl.SetEventTap(func(ev memctrl.Event) { events = append(events, ev) })
		e.Settle(now)
		return events
	}
	first := run()
	if len(first) != pages {
		t.Fatalf("Settle emitted %d events, want one write per run-ahead counter line (%d)", len(first), pages)
	}
	for k, ev := range first {
		if ev.Kind != memctrl.EvWriteAccept || (k > 0 && ev.Addr <= first[k-1].Addr) {
			t.Fatalf("Settle event %d is kind %d at %#x, want counter-line writes in ascending address order", k, ev.Kind, uint64(ev.Addr))
		}
	}
	for i := 0; i < 10; i++ {
		if !slices.Equal(run(), first) {
			t.Fatal("two fresh machines emitted different event sequences at Settle")
		}
	}
}

// TestOsirisCrashRecoverRoundTrip crashes Osiris with counters lagging
// (under the stop-loss), recovers them by online retries, applies the
// result, and reads the data back on a rebooted engine.
func TestOsirisCrashRecoverRoundTrip(t *testing.T) {
	const n = 8
	e, _ := rigDev(t, "osiris", engine.Params{UpdateLimit: n})
	addrs := []mem.Addr{0x2000, 0x2040, 0x2000, 0x9000, 0x2000}
	now := int64(0)
	for i, a := range addrs {
		now = e.WriteBack(now, a, pattern(a, byte(i))) + 50
	}
	// The snapshot hook must be non-destructive: reads still verify.
	_ = e.(interface{ NVMSnapshot() *nvm.Image }).NVMSnapshot()
	if pt, _ := e.ReadBlock(now, 0x9000); pt != pattern(0x9000, 3) {
		t.Fatal("read after NVMSnapshot returned wrong plaintext")
	}

	img := e.Crash()
	rep := recovery.Recover(img)
	if !rep.Clean() {
		t.Fatalf("clean osiris crash flagged: %+v", rep)
	}
	if rep.Nretry == 0 || rep.RecoveredBlocks == 0 {
		t.Fatalf("lagging counters needed no retries (Nretry=%d blocks=%d); stop-loss test is vacuous", rep.Nretry, rep.RecoveredBlocks)
	}
	if rep.Nretry > uint64(len(addrs)) {
		t.Fatalf("Nretry=%d exceeds total updates %d; stop-loss bound broken", rep.Nretry, len(addrs))
	}
	rec := recovery.Apply(img, rep)

	e2 := reboot(t, "osiris", img, rec, engine.Params{UpdateLimit: n})
	for a, v := range map[mem.Addr]byte{0x2000: 4, 0x2040: 1, 0x9000: 3} {
		pt, _ := e2.ReadBlock(now, a)
		if pt != pattern(a, v) {
			t.Fatalf("rebooted read of %#x returned wrong plaintext", uint64(a))
		}
	}
	if v := e2.Stats().IntegrityViolations; v != 0 {
		t.Fatalf("%d integrity violations on the rebooted engine", v)
	}
}
