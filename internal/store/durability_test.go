package store_test

import (
	"errors"
	"slices"
	"testing"

	"ccnvm/internal/design/names"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/store"
	"ccnvm/internal/torture"
)

// persistLine is the content of the i-th write of a durability test:
// distinct per write, so a line that recovers an older version fails.
func persistLine(i int) mem.Line {
	var l mem.Line
	for k := range l {
		l[k] = byte(mem.Mix64(uint64(i<<8 + k)))
	}
	return l
}

// persistAddr is the address of the i-th write: overwrites within the
// first page, whose counter line reaches the update limit again and
// again, and every fifth write on the next page.
func persistAddr(i int) mem.Addr {
	if i%5 == 4 {
		return mem.PageSize + mem.Addr(i%7)*mem.LineSize
	}
	return mem.Addr(i*7%40) * mem.LineSize
}

// TestWriteIsDurableAtReturn pins the store's durability contract: a
// write is durable when Store.Write returns, with no FlushEpoch. For
// every design the KV layer serves on, at N = 16 and M = 64, a run of
// writes that crosses at least two update-limit drains is crashed
// after every k-th write and rebooted. Every accepted line must read
// back its last value, the recovery report must name no lost block,
// and reading every line again through the engine (after a write has
// retired the boot verdict) must count no integrity violation.
func TestWriteIsDurableAtReturn(t *testing.T) {
	const writes = 56
	params := engine.Params{UpdateLimit: 16, QueueEntries: 64}
	open := func(t *testing.T, name string) *store.Store {
		st, err := store.Open(store.Options{Design: name, Capacity: 1 << 20, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, name := range torture.KVDesigns() {
		t.Run(name, func(t *testing.T) {
			full := open(t, name)
			for i := range writes {
				if err := full.Write(persistAddr(i), persistLine(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Only the cc-NVM designs drain; the others persist their
			// metadata by their own rules on every write.
			if s := full.Engine().Stats(); s.Drains > 0 && s.DrainUpdateLimit < 2 {
				t.Fatalf("%d writes crossed %d update-limit drains, want at least 2", writes, s.DrainUpdateLimit)
			}
			for k := 1; k <= writes; k++ {
				st := open(t, name)
				want := map[mem.Addr]mem.Line{}
				for i := range k {
					if err := st.Write(persistAddr(i), persistLine(i)); err != nil {
						t.Fatal(err)
					}
					want[persistAddr(i)] = persistLine(i)
				}
				rb, rep, err := store.Reboot(st.Crash(), store.Options{Params: params})
				if err != nil {
					t.Fatalf("crash after write %d: %v", k, err)
				}
				if len(rep.LostBlocks) > 0 {
					t.Fatalf("crash after write %d: recovery lost %v", k, rep.LostBlocks)
				}
				check := func(how string) {
					for a, l := range want {
						got, err := rb.Read(a)
						if err != nil {
							t.Fatal(err)
						}
						if got != l {
							t.Fatalf("crash after write %d: line %#x %s reads %x, want %x", k, uint64(a), how, got[:8], l[:8])
						}
					}
				}
				check("from the boot verdict")
				if err := rb.Write(mem.Addr(rb.Capacity())-mem.LineSize, persistLine(-1)); err != nil {
					t.Fatal(err)
				}
				check("through the engine")
				if v := rb.Engine().Stats().IntegrityViolations; v != 0 {
					t.Fatalf("crash after write %d: %d integrity violations after reboot", k, v)
				}
			}
		})
	}
}

// TestCrashAfterRebootRecovers: a store that was crashed and rebooted
// must survive its next crash too. Write lines 48 and 66 (two counter
// lines of a 1 MiB store), crash, reboot, write line 48 again and
// crash: the second reboot must recover losslessly and read both
// lines. On Osiris Plus and Arsenal the write after the reboot walks a
// path whose siblings only the persisted tree holds (DESIGN.md, "On-chip
// trees after a reboot"); hashing level defaults in their place made
// the second recovery flag a potential replay.
func TestCrashAfterRebootRecovers(t *testing.T) {
	params := engine.Params{UpdateLimit: 16, QueueEntries: 64}
	a, b := mem.Addr(48)*mem.LineSize, mem.Addr(66)*mem.LineSize
	for _, name := range torture.KVDesigns() {
		t.Run(name, func(t *testing.T) {
			st, err := store.Open(store.Options{Design: name, Capacity: 1 << 20, Params: params})
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range []mem.Addr{a, b} {
				if err := st.Write(x, persistLine(i)); err != nil {
					t.Fatal(err)
				}
			}
			if st, _, err = store.Reboot(st.Crash(), store.Options{Params: params}); err != nil {
				t.Fatalf("first reboot: %v", err)
			}
			if err := st.Write(a, persistLine(2)); err != nil {
				t.Fatal(err)
			}
			rb, rep, err := store.Reboot(st.Crash(), store.Options{Params: params})
			if err != nil {
				t.Fatalf("second reboot: %v", err)
			}
			if !rep.Lossless() {
				t.Fatalf("second recovery is not lossless: lost %v", rep.LostBlocks)
			}
			for x, want := range map[mem.Addr]mem.Line{a: persistLine(2), b: persistLine(1)} {
				if got, err := rb.Read(x); err != nil || got != want {
					t.Fatalf("line %#x after the second reboot: %x, %v, want %x", uint64(x), got[:8], err, want[:8])
				}
			}
		})
	}
}

// TestReplayedSubtreeAfterRebootIsFlagged: Osiris Plus and Arsenal
// keep their tree on chip and do not verify the device's copy, so a
// rebooted engine must take the tree its recovery rebuilt, not the one
// on the device. Page 0 is written and recovered, and the post-recovery
// copy of its subtree is saved: its data, HMAC and counter lines and
// the tree nodes above them up to the node where page 4's path joins.
// Page 0 is written again and recovered; between that Apply and the
// restart the saved subtree is put back on the device. A write to page
// 4, which updates the joining node, and a crash follow: the next
// recovery must flag the replay. Updating the device's copy of that
// node instead carries the old subtree's hash into ROOTnew, the old
// counters rebuild to the same root and the replay goes unnoticed.
func TestReplayedSubtreeAfterRebootIsFlagged(t *testing.T) {
	params := engine.Params{UpdateLimit: 16, QueueEntries: 64}
	victim, sibling := mem.Addr(0), mem.Addr(4*mem.PageSize)
	for _, name := range []string{names.Osiris, names.Arsenal} {
		t.Run(name, func(t *testing.T) {
			st, err := store.Open(store.Options{Design: name, Capacity: 1 << 20, Params: params})
			if err != nil {
				t.Fatal(err)
			}
			lay := st.Layout()
			hl, _ := lay.HMACLineOf(victim)
			subtree := []mem.Addr{victim, hl, lay.CounterLineOf(victim)}
			level, vi, si := 0, lay.CounterLineIndex(lay.CounterLineOf(victim)), lay.CounterLineIndex(lay.CounterLineOf(sibling))
			for vi != si {
				level, vi, _ = lay.ParentOf(level, vi)
				_, si, _ = lay.ParentOf(level-1, si)
				subtree = append(subtree, lay.NodeAddr(level, vi))
			}
			if level < 2 {
				t.Fatalf("the two paths join at level %d; the replayed subtree must hold a node below the join", level)
			}
			for i, a := range []mem.Addr{victim, sibling} {
				if err := st.Write(a, persistLine(i)); err != nil {
					t.Fatal(err)
				}
			}
			img := st.Crash()
			if st, _, err = store.Reboot(img, store.Options{Params: params}); err != nil {
				t.Fatalf("first reboot: %v", err)
			}
			saved := map[mem.Addr]mem.Line{}
			for _, a := range subtree {
				l, ok := img.Image.Read(a)
				if !ok {
					t.Fatalf("line %#x is not on the recovered device", uint64(a))
				}
				saved[a] = l
			}
			if err := st.Write(victim, persistLine(2)); err != nil {
				t.Fatal(err)
			}
			img = st.Crash()
			rep := recovery.Recover(img)
			if !rep.Clean() {
				t.Fatalf("second recovery is not clean: %+v", rep)
			}
			rec := recovery.Apply(img, rep)
			for a, l := range saved {
				img.Image.Write(a, l)
			}
			if st, err = store.OpenRecovered(img, rec, store.Options{Params: params}); err != nil {
				t.Fatal(err)
			}
			if err := st.Write(sibling, persistLine(3)); err != nil {
				t.Fatal(err)
			}
			if rep := recovery.Recover(st.Crash()); !rep.PotentialReplay {
				t.Fatalf("a subtree replayed after the reboot went unflagged: clean=%v", rep.Clean())
			}
		})
	}
}

// TestBoundedADRLossIsDeclared: under a bounded ADR budget an accepted
// write can be lost at a crash whether or not an epoch flush followed
// it — FlushEpoch does not wait for the write queue to retire — but
// never silently. The crash image's Suspects (the manifest recovery
// consumes) must be non-empty and the report must open a loss window;
// every written line that does not read back intact after the reboot
// must be a suspect itself (dropped whole, it reads its stale content)
// or a lost block the report pins on a suspect line (a torn counter or
// HMAC line takes the blocks it covers with it).
func TestBoundedADRLossIsDeclared(t *testing.T) {
	const writes = 8
	params := engine.Params{UpdateLimit: 16, QueueEntries: 64}
	for _, name := range torture.KVDesigns() {
		for _, flush := range []bool{false, true} {
			st, err := store.Open(store.Options{Design: name, Capacity: 1 << 20, Params: params,
				Faults: &nvm.FaultModel{Seed: 1, TornWrites: true, ADRBudget: 1}})
			if err != nil {
				t.Fatal(err)
			}
			for i := range writes {
				if err := st.Write(mem.Addr(i)*mem.LineSize, persistLine(i)); err != nil {
					t.Fatal(err)
				}
			}
			if flush {
				if err := st.FlushEpoch(); err != nil {
					t.Fatal(err)
				}
			}
			img := st.Crash()
			rb, rep, err := store.Reboot(img, store.Options{Params: params})
			if err != nil {
				t.Fatalf("%s flush=%v: %v", name, flush, err)
			}
			if len(img.Suspects) == 0 || !rep.CrashLossWindow {
				t.Fatalf("%s flush=%v: a one-entry ADR budget left suspects %v, loss window %v",
					name, flush, img.Suspects, rep.CrashLossWindow)
			}
			declared := func(a mem.Addr) bool {
				return slices.Contains(img.Suspects, a) || slices.ContainsFunc(rep.LostBlocks, func(b recovery.LostBlock) bool {
					return b.Addr == a && slices.Contains(img.Suspects, b.Line)
				})
			}
			for i := range writes {
				a := mem.Addr(i) * mem.LineSize
				v0 := rb.Engine().Stats().IntegrityViolations
				got, err := rb.Read(a)
				if err != nil {
					t.Fatal(err)
				}
				intact := got == persistLine(i) && rb.Engine().Stats().IntegrityViolations == v0
				if !intact && !declared(a) {
					t.Fatalf("%s flush=%v: line %#x lost without being declared (suspects %v, lost %v)",
						name, flush, uint64(a), img.Suspects, rep.LostBlocks)
				}
			}
		}
	}
}

// TestWriteReportsControllerError: with no flush behind an
// acknowledgement, Write itself must return the controller's device
// error, so a write is never reported durable once the controller has
// failed one.
func TestWriteReportsControllerError(t *testing.T) {
	st, err := store.Open(store.Options{Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Write(0, persistLine(0)); err != nil {
		t.Fatal(err)
	}
	st.HostWrite(st.Now(), ^mem.Addr(0)&^(mem.LineSize-1), persistLine(1))
	var rangeErr *nvm.AddrRangeError
	if err := st.Write(mem.LineSize, persistLine(2)); !errors.As(err, &rangeErr) {
		t.Fatalf("Write after a failed device write returned %v, want the *nvm.AddrRangeError", err)
	}
}
