package recovery_test

import (
	"math/rand"
	"testing"

	"ccnvm/internal/attack"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/seccrypto"
	"ccnvm/internal/store"
	"ccnvm/internal/torture"
)

const capacity = 1 << 30

func build(t testing.TB, name string, p engine.Params) engine.Engine {
	t.Helper()
	st, err := store.Open(store.Options{Design: name, Capacity: capacity, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	return st.Engine()
}

// snapshotNVM captures persistent state without the destructive Crash.
func snapshotNVM(t *testing.T, e engine.Engine) *nvm.Image {
	t.Helper()
	s, ok := e.(interface{ NVMSnapshot() *nvm.Image })
	if !ok {
		t.Fatal("engine lacks NVMSnapshot")
	}
	return s.NVMSnapshot()
}

func pattern(addr mem.Addr, v byte) mem.Line {
	var l mem.Line
	for i := range l {
		l[i] = byte(uint64(addr)>>(8*(i%8))) ^ v ^ byte(i)
	}
	return l
}

// workload runs a mixed write stream and returns the engine mid-epoch
// (no settle), so counters are stalled at the crash point.
func workload(t testing.TB, e engine.Engine, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	now := int64(0)
	for i := 0; i < n; i++ {
		a := mem.Addr(rng.Intn(48) * 4096)
		if rng.Intn(4) == 0 {
			a += mem.Addr(rng.Intn(4) * 64)
		}
		now = e.WriteBack(now, a, pattern(a, byte(i))) + 25
	}
}

func TestCleanCrashRecoversAllDesigns(t *testing.T) {
	// cc-NVM (both variants), Osiris and SC must all recover a crash
	// without attacks: counters restored, no attacks reported.
	for _, d := range []string{"sc", "osiris", "ccnvm-wods", "ccnvm"} {
		t.Run(d, func(t *testing.T) {
			e := build(t, d, engine.Params{UpdateLimit: 16, QueueEntries: 64})
			workload(t, e, 250, 1)
			img := e.Crash()
			rep := recovery.Recover(img)
			if !rep.Clean() {
				t.Fatalf("%s: clean crash flagged: mismatches=%d tampered=%d replay=%v (Nwb=%d Nretry=%d)",
					d, len(rep.TreeMismatches), len(rep.Tampered), rep.PotentialReplay, rep.Nwb, rep.Nretry)
			}
			if d == "ccnvm" && rep.Nretry != rep.Nwb {
				t.Fatalf("ccnvm: Nretry %d != Nwb %d on a clean crash", rep.Nretry, rep.Nwb)
			}
		})
	}
}

func TestCCNVMRecoveryRetriesBounded(t *testing.T) {
	e := build(t, "ccnvm", engine.Params{UpdateLimit: 8})
	workload(t, e, 300, 2)
	img := e.Crash()
	rep := recovery.Recover(img)
	if !rep.Clean() {
		t.Fatalf("clean crash flagged: %+v", rep)
	}
	if rep.Nwb > 0 && rep.RecoveredBlocks == 0 {
		t.Fatal("mid-epoch crash should need counter recovery")
	}
}

func TestSCNeedsNoRecovery(t *testing.T) {
	e := build(t, "sc", engine.Params{})
	workload(t, e, 150, 3)
	rep := recovery.Recover(e.Crash())
	if rep.Nretry != 0 || rep.RecoveredBlocks != 0 {
		t.Fatalf("SC image needed recovery: Nretry=%d", rep.Nretry)
	}
	if !rep.Clean() {
		t.Fatal("SC clean crash flagged")
	}
}

func TestWoCCIsUnrecoverable(t *testing.T) {
	// The motivating failure: without crash consistency, enough traffic
	// leaves NVM metadata stale beyond the retry bound, so innocent data
	// is indistinguishable from an attack.
	e := build(t, "wocc", engine.Params{UpdateLimit: 16})
	rng := rand.New(rand.NewSource(4))
	now := int64(0)
	a := mem.Addr(0)
	for i := 0; i < 64; i++ { // one hot line: counters lag far beyond N
		now = e.WriteBack(now, a, pattern(a, byte(i))) + 25
		_ = rng
	}
	rep := recovery.Recover(e.Crash())
	if rep.Clean() {
		t.Fatal("w/o-CC crash image recovered cleanly; expected unrecoverable damage")
	}
}

func TestSpoofLocatedAfterCrash(t *testing.T) {
	for _, d := range []string{"ccnvm", "ccnvm-wods"} {
		t.Run(d, func(t *testing.T) {
			e := build(t, d, engine.Params{UpdateLimit: 16})
			workload(t, e, 200, 5)
			img := e.Crash()
			victim := firstDataAddr(t, img)
			if err := attack.SpoofData(img, victim); err != nil {
				t.Fatal(err)
			}
			rep := recovery.Recover(img)
			if len(rep.Tampered) != 1 || rep.Tampered[0].Addr != victim {
				t.Fatalf("%s: spoof not located: %+v", d, rep.Tampered)
			}
			if !rep.Located() {
				t.Fatalf("%s: spoof detected but Located()==false", d)
			}
		})
	}
}

func TestSpliceLocatedAtBothBlocks(t *testing.T) {
	e := build(t, "ccnvm", engine.Params{UpdateLimit: 16})
	workload(t, e, 200, 6)
	img := e.Crash()
	addrs := dataAddrs(img)
	if len(addrs) < 2 {
		t.Fatal("not enough data blocks")
	}
	a, b := addrs[0], addrs[len(addrs)/2]
	if err := attack.SpliceData(img, a, b); err != nil {
		t.Fatal(err)
	}
	rep := recovery.Recover(img)
	found := map[mem.Addr]bool{}
	for _, tb := range rep.Tampered {
		found[tb.Addr] = true
	}
	if !found[a] || !found[b] {
		t.Fatalf("splice not located at both blocks: %+v", rep.Tampered)
	}
}

func TestCounterReplayLocatedByTreeCheck(t *testing.T) {
	// Replaying an NVM counter line to a pre-drain version breaks the
	// parent/child chain: step 1 locates it.
	e := build(t, "ccnvm", engine.Params{UpdateLimit: 4}) // small N: drains happen
	var snapshot *nvm.Image
	now := int64(0)
	hot := mem.Addr(0)
	for i := 0; i < 30; i++ {
		now = e.WriteBack(now, hot, pattern(hot, byte(i))) + 25
		if i == 10 {
			snapshot = snapshotNVM(t, e) // early persistent state
		}
	}
	img := e.Crash()
	if err := attack.ReplayCounterLine(img, snapshot, hot); err != nil {
		t.Fatal(err)
	}
	rep := recovery.Recover(img)
	if len(rep.TreeMismatches) == 0 {
		t.Fatal("replayed counter line not located by the tree check")
	}
	lay := img.Image.Layout
	want := lay.CounterLineOf(hot)
	located := false
	for _, m := range rep.TreeMismatches {
		if m.Addr == want {
			located = true
		}
	}
	if !located {
		t.Fatalf("mismatches %v do not include the replayed counter line %#x", rep.TreeMismatches, uint64(want))
	}
}

func TestTreeNodeSpoofLocated(t *testing.T) {
	e := build(t, "ccnvm", engine.Params{UpdateLimit: 4})
	workload(t, e, 120, 8)
	img := e.Crash()
	// Find a written level-1 node to corrupt.
	lay := img.Image.Layout
	var idx uint64
	found := false
	for _, a := range img.Image.Store.Addrs() {
		if lay.RegionOf(a) == mem.RegionTree {
			if lv, i := lay.NodeAt(a); lv == 1 {
				idx, found = i, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no level-1 node persisted; increase workload")
	}
	if err := attack.SpoofTreeNode(img, 1, idx); err != nil {
		t.Fatal(err)
	}
	rep := recovery.Recover(img)
	if len(rep.TreeMismatches) == 0 {
		t.Fatal("corrupted tree node not detected")
	}
}

func TestDataReplayDetectedViaNwb(t *testing.T) {
	// Figure 4's attack: crash before the drain commits, replay newly
	// written data + HMAC to their old version. The old Merkle tree is
	// consistent and the old counter matches the replayed pair, so only
	// Nwb != Nretry reveals it.
	e := build(t, "ccnvm", engine.Params{UpdateLimit: 64, QueueEntries: 64})
	hot := mem.Addr(8 * 4096)
	now := e.WriteBack(0, hot, pattern(hot, 1)) + 100
	early := snapshotNVM(t, e) // persistent state with version 1
	// More write-backs to the same block within one epoch.
	now = e.WriteBack(now, hot, pattern(hot, 2)) + 100
	_ = e.WriteBack(now, hot, pattern(hot, 3))
	img := e.Crash()
	if img.TCB.Nwb == 0 {
		t.Fatal("test setup: epoch drained; replay window closed")
	}
	if err := attack.ReplayBlock(img, early, hot); err != nil {
		t.Fatal(err)
	}
	rep := recovery.Recover(img)
	if !rep.PotentialReplay {
		t.Fatalf("replay within the DS window not detected: Nwb=%d Nretry=%d", rep.Nwb, rep.Nretry)
	}
	if rep.Located() {
		t.Fatal("this attack is detectable but must not be locatable")
	}
}

func TestOsirisDetectsButCannotLocate(t *testing.T) {
	// The §3 contrast: Osiris Plus detects a spoofed block only as a
	// root mismatch — the tampered HMAC check fires too here (since the
	// spoof breaks the data HMAC), so use a replay instead, which Osiris
	// cannot pin down.
	e := build(t, "osiris", engine.Params{UpdateLimit: 16})
	hot := mem.Addr(4096)
	now := e.WriteBack(0, hot, pattern(hot, 1)) + 100
	early := snapshotNVM(t, e)
	now = e.WriteBack(now, hot, pattern(hot, 2)) + 100
	_ = e.WriteBack(now, hot, pattern(hot, 3))
	img := e.Crash()
	if err := attack.ReplayBlock(img, early, hot); err != nil {
		t.Fatal(err)
	}
	rep := recovery.Recover(img)
	if !rep.PotentialReplay {
		t.Fatal("osiris: replayed block not detected via root mismatch")
	}
	if rep.Located() {
		t.Fatal("osiris must not be able to locate the attack")
	}
}

func TestApplyThenResume(t *testing.T) {
	// Recover a clean crash, apply the rebuilt state, boot a fresh
	// cc-NVM engine on the image and verify data still reads back.
	e := build(t, "ccnvm", engine.Params{UpdateLimit: 16})
	want := map[mem.Addr]byte{}
	now := int64(0)
	for i := 0; i < 150; i++ {
		a := mem.Addr((i % 24) * 4096)
		want[a] = byte(i)
		now = e.WriteBack(now, a, pattern(a, byte(i))) + 25
	}
	img := e.Crash()
	rep := recovery.Recover(img)
	if !rep.Clean() {
		t.Fatalf("clean crash flagged: %+v", rep)
	}
	rec := recovery.Apply(img, rep)
	if rec.TCB.RootNew != rep.RebuiltRoot || rec.TCB.Nwb != 0 {
		t.Fatalf("resumed TCB: RootNew is the rebuilt root = %v, Nwb = %d; want true, 0",
			rec.TCB.RootNew == rep.RebuiltRoot, rec.TCB.Nwb)
	}

	st2, err := store.OpenRecovered(img, rec, store.Options{Params: engine.Params{UpdateLimit: 16}})
	if err != nil {
		t.Fatal(err)
	}
	e2 := st2.Engine()
	now = 0
	for a, v := range want {
		pt, done := e2.ReadBlock(now, a)
		if pt != pattern(a, v) {
			t.Fatalf("post-recovery read of %#x wrong", uint64(a))
		}
		now = done + 10
	}
	if viol := e2.Stats().IntegrityViolations; viol != 0 {
		t.Fatalf("%d violations reading recovered image", viol)
	}
	// And the resumed engine keeps working.
	a := mem.Addr(0)
	now = e2.WriteBack(now, a, pattern(a, 200)) + 50
	pt, _ := e2.ReadBlock(now, a)
	if pt != pattern(a, 200) {
		t.Fatal("resumed engine lost a write")
	}
}

func TestRandomizedCrashPointsPropertyCCNVM(t *testing.T) {
	// Property: for any crash point in a random workload without
	// attacks, recovery satisfies every torture oracle — clean report,
	// Nretry == Nwb replay-window accounting, all-or-nothing epochs, and
	// bit-for-bit agreement with the golden reference machine. The
	// oracles subsume the bespoke assertions this test used to make.
	r := torture.DefaultRunner()
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cell := torture.Cell{
			Design:   "ccnvm",
			Workload: "hot",
			Seed:     seed,
			Ops:      40 + rng.Intn(200),
			N:        4 + uint64(seed*4),
			M:        32,
		}
		cell.CrashAt = 1 + rng.Intn(cell.Ops)
		if f := r.RunCell(cell); f != nil {
			t.Fatalf("seed %d: %v\nrepro: %s", seed, f, f.Cell.Repro())
		}
	}
}

func firstDataAddr(t *testing.T, img *engine.CrashImage) mem.Addr {
	t.Helper()
	as := dataAddrs(img)
	if len(as) == 0 {
		t.Fatal("no data blocks in image")
	}
	return as[0]
}

func dataAddrs(img *engine.CrashImage) []mem.Addr {
	var out []mem.Addr
	for _, a := range img.Image.Store.Addrs() {
		if img.Image.Layout.RegionOf(a) == mem.RegionData {
			out = append(out, a)
		}
	}
	return out
}

func TestExtensionLocatesDataReplay(t *testing.T) {
	// The §4.4 extension: with persistent per-line update registers, the
	// Figure 4 replay is localized to its page instead of forcing a
	// whole-NVM drop.
	e := build(t, "ccnvm-ext", engine.Params{UpdateLimit: 64, QueueEntries: 64})
	hot := mem.Addr(8 * 4096)
	now := e.WriteBack(0, hot, pattern(hot, 1)) + 100
	early := snapshotNVM(t, e)
	now = e.WriteBack(now, hot, pattern(hot, 2)) + 100
	_ = e.WriteBack(now, hot, pattern(hot, 3))
	img := e.Crash()
	if img.TCB.ExtDirty == nil || len(img.TCB.ExtDirty) == 0 {
		t.Fatal("extension registers empty")
	}
	if err := attack.ReplayBlock(img, early, hot); err != nil {
		t.Fatal(err)
	}
	rep := recovery.Recover(img)
	if !rep.Located() {
		t.Fatalf("extension failed to locate the replay: %+v", rep)
	}
	if rep.PotentialReplay {
		t.Fatal("extension should locate, not merely detect")
	}
	if len(rep.ReplayedPages) != 1 || rep.ReplayedPages[0] != mem.Addr(8*4096) {
		t.Fatalf("replayed pages = %v, want [0x8000]", rep.ReplayedPages)
	}
}

func TestExtensionCleanCrash(t *testing.T) {
	e := build(t, "ccnvm-ext", engine.Params{UpdateLimit: 16})
	workload(t, e, 200, 11)
	rep := recovery.Recover(e.Crash())
	if !rep.Clean() {
		t.Fatalf("extension flagged a clean crash: %+v", rep)
	}
}

func TestExtensionRegistersResetAtDrain(t *testing.T) {
	e := build(t, "ccnvm-ext", engine.Params{UpdateLimit: 4})
	hot := mem.Addr(0)
	now := int64(0)
	for i := 0; i < 4; i++ { // exactly N: the 4th write-back drains
		now = e.WriteBack(now, hot, pattern(hot, byte(i))) + 10
	}
	img := e.Crash()
	if len(img.TCB.ExtDirty) != 0 {
		t.Fatalf("registers survived the drain: %v", img.TCB.ExtDirty)
	}
}

func TestExtensionSpoofStillLocatedAtBlock(t *testing.T) {
	// The extension must not regress the block-granular location of
	// spoofing attacks.
	e := build(t, "ccnvm-ext", engine.Params{UpdateLimit: 16})
	workload(t, e, 150, 12)
	img := e.Crash()
	victim := firstDataAddr(t, img)
	if err := attack.SpoofData(img, victim); err != nil {
		t.Fatal(err)
	}
	rep := recovery.Recover(img)
	if len(rep.Tampered) != 1 || rep.Tampered[0].Addr != victim {
		t.Fatalf("spoof not located under extension: %+v", rep.Tampered)
	}
}

// TestAttackFuzzer is the adversarial property test: random attacks of
// random kinds against random crash points must always be caught (no
// false negatives), and untouched images must always recover cleanly
// (no false positives). Only attacks that actually change persistent
// state count — a replay of an unchanged block is a no-op, not a miss.
func TestAttackFuzzer(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := build(t, "ccnvm", engine.Params{UpdateLimit: 4 + uint64(rng.Intn(3))*8})
		var snapshot *nvm.Image
		now := int64(0)
		n := 60 + rng.Intn(150)
		snapAt := n / 2
		for i := 0; i < n; i++ {
			a := mem.Addr(rng.Intn(32) * 4096)
			now = e.WriteBack(now, a, pattern(a, byte(i))) + 25
			if i == snapAt {
				snapshot = snapshotNVM(t, e)
			}
		}
		img := e.Crash()

		// Control: the untouched image must be clean.
		if rep := recovery.Recover(cloneImage(img)); !rep.Clean() {
			t.Fatalf("seed %d: false positive on clean image", seed)
		}

		mutated := cloneImage(img)
		changed := false
		kind := rng.Intn(4)
		addrs := dataAddrs(mutated)
		victim := addrs[rng.Intn(len(addrs))]
		switch kind {
		case 0:
			if err := attack.SpoofData(mutated, victim); err != nil {
				t.Fatal(err)
			}
			changed = true
		case 1:
			other := addrs[rng.Intn(len(addrs))]
			before1, _ := mutated.Image.Read(victim)
			before2, _ := mutated.Image.Read(other)
			if err := attack.SpliceData(mutated, victim, other); err != nil {
				t.Fatal(err)
			}
			changed = before1 != before2
		case 2:
			ca := mutated.Image.Layout.CounterLineOf(victim)
			before, _ := mutated.Image.Read(ca)
			if err := attack.ReplayCounterLine(mutated, snapshot, victim); err != nil {
				t.Fatal(err)
			}
			after, _ := mutated.Image.Read(ca)
			changed = before != after
		case 3:
			before, _ := mutated.Image.Read(victim)
			ha, _ := mutated.Image.Layout.HMACLineOf(victim)
			beforeH, _ := mutated.Image.Read(ha)
			if err := attack.ReplayBlock(mutated, snapshot, victim); err != nil {
				t.Fatal(err)
			}
			after, _ := mutated.Image.Read(victim)
			afterH, _ := mutated.Image.Read(ha)
			changed = before != after || beforeH != afterH
		}
		if !changed {
			continue // no-op mutation: nothing to detect
		}
		rep := recovery.Recover(mutated)
		if rep.Clean() {
			t.Fatalf("seed %d kind %d: attack on %#x went undetected", seed, kind, uint64(victim))
		}
	}
}

func cloneImage(img *engine.CrashImage) *engine.CrashImage {
	cp := *img
	cp.Image = img.Image.Clone()
	cp.TCB = img.TCB.CloneExt()
	return &cp
}

// TestVerdictWithheldWhenPackedLineMovesMajor: a packed line whose
// inline counter carries another major than the counter line a raw block
// of its page was authenticated under moves the page's applied major, so
// that raw block no longer opens at its applied counter, and even a
// lossless Apply hands out no boot verdict. The test re-registers the
// rebuilt root to make the forged image recover lossless.
func TestVerdictWithheldWhenPackedLineMovesMajor(t *testing.T) {
	st, err := store.Open(store.Options{Design: "arsenal", Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var raw mem.Line
	for k := range raw {
		raw[k] = byte(mem.Mix64(uint64(k)))
	}
	for a, l := range map[mem.Addr]mem.Line{0: raw, mem.LineSize: {7}} {
		if err := st.Write(a, l); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.FlushEpoch(); err != nil {
		t.Fatal(err)
	}
	img := st.Crash()
	cry := seccrypto.MustEngine(img.Keys)
	_, ctr, packed, ok := img.PackedBlock(cry, mem.LineSize)
	if _, _, rawPacked, _ := img.PackedBlock(cry, 0); !packed || !ok || rawPacked {
		t.Fatal("want a raw block at line 0 and a packed one at line 1")
	}
	forged, _ := engine.PackArsenalLine(cry, mem.LineSize, ctr+1<<seccrypto.MinorBits, mem.Line{7})
	img.Image.Write(mem.LineSize, forged)
	img.TCB.RootNew = recovery.Recover(cloneImage(img)).RebuiltRoot
	rep := recovery.Recover(img)
	if !rep.Lossless() {
		t.Fatalf("forged image does not recover lossless: %+v", rep)
	}
	if recovery.Apply(img, rep).Verdict() != nil {
		t.Fatal("Apply handed out a boot verdict over a raw block its walk authenticated under another major")
	}
}
