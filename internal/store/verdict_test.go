package store_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/seccrypto"
	"ccnvm/internal/store"
	"ccnvm/internal/torture"
)

var verdictParams = engine.Params{UpdateLimit: 8, QueueEntries: 64}

// kvCrashImage is a small KV namespace of the design that lost power:
// 48 batches of four puts on a 1 MiB store, every third value
// incompressible (the rest pack on Arsenal), then eight store writes the
// last epoch never closed, so recovery has counters to retry.
func kvCrashImage(tb testing.TB, name string, faults *nvm.FaultModel) *engine.CrashImage {
	tb.Helper()
	st, err := store.Open(store.Options{Design: name, Capacity: 1 << 20, Params: verdictParams, Faults: faults})
	if err != nil {
		tb.Fatal(err)
	}
	db, err := kv.Open(st, kv.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := range 48 {
		ops := make([]kv.Op, 4)
		for j := range ops {
			n := i*len(ops) + j
			val := bytes.Repeat([]byte{byte(n)}, 40+n%90)
			if n%3 == 0 {
				for k := range val {
					val[k] = byte(mem.Mix64(uint64(n<<16 + k)))
				}
			}
			ops[j] = kv.Op{Kind: kv.OpPut, Key: []byte(fmt.Sprintf("k%03d", n%150)), Val: val}
		}
		if err := db.Batch(ops); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range 8 {
		var l mem.Line
		for k := range l {
			l[k] = byte(mem.Mix64(uint64(i<<8 + k)))
		}
		if err := st.Write(mem.Addr(st.Capacity())-mem.Addr(i+1)*mem.LineSize, l); err != nil {
			tb.Fatal(err)
		}
	}
	return db.Crash()
}

// bootPair recovers img and opens two stores from the result: one with
// the boot verdict the lossless Apply returned, and one from a clone of
// the applied image whose Recovered carries the registers alone.
func bootPair(tb testing.TB, img *engine.CrashImage) (withVerdict, plain *store.Store) {
	tb.Helper()
	rep := recovery.Recover(img)
	if !rep.Lossless() {
		tb.Fatalf("%s: recovery is not lossless: %+v", img.Design, rep)
	}
	rec := recovery.Apply(img, rep)
	if rec.Verdict() == nil {
		tb.Fatalf("%s: a lossless Apply returned no boot verdict", img.Design)
	}
	clone := img.Clone()
	withVerdict, err := store.OpenRecovered(img, rec, store.Options{Params: verdictParams})
	if err != nil {
		tb.Fatal(err)
	}
	plain, err = store.OpenRecovered(clone, recovery.Recovered{TCB: rec.TCB}, store.Options{Params: verdictParams})
	if err != nil {
		tb.Fatal(err)
	}
	return withVerdict, plain
}

// dataLines lists every written data line of img, plus the last line of
// each page it writes to when that line was never written.
func dataLines(img *engine.CrashImage) []mem.Addr {
	lay := img.Image.Layout
	out := img.Image.Store.Range(lay.Bounds(mem.RegionData))
	for _, a := range out {
		if end := (a/mem.PageSize + 1) * mem.PageSize; end < mem.Addr(lay.DataBytes) {
			if _, ok := img.Image.Read(end - mem.LineSize); !ok && !slices.Contains(out, end-mem.LineSize) {
				out = append(out, end-mem.LineSize)
			}
		}
	}
	return out
}

// readAll reads every line of addrs through Read, then again through one
// Fetch per line and an Opener, returning the plaintexts in that order
// and the integrity violations counted after each.
func readAll(tb testing.TB, st *store.Store, addrs []mem.Addr) ([]mem.Line, []uint64) {
	tb.Helper()
	var pts []mem.Line
	var viol []uint64
	for _, a := range addrs {
		pt, err := st.Read(a)
		if err != nil {
			tb.Fatal(err)
		}
		pts, viol = append(pts, pt), append(viol, st.Engine().Stats().IntegrityViolations)
	}
	op := st.NewOpener()
	for _, a := range addrs {
		f, err := st.Fetch(nil, a, 1)
		if err != nil {
			tb.Fatal(err)
		}
		pt, _ := op.Open(&f[0])
		pts, viol = append(pts, pt), append(viol, st.Engine().Stats().IntegrityViolations)
	}
	return pts, viol
}

// sameReads fails unless both stores return the same plaintext and the
// same running violation count for every read of addrs.
func sameReads(tb testing.TB, withVerdict, plain *store.Store, addrs []mem.Addr) {
	tb.Helper()
	got, gotV := readAll(tb, withVerdict, addrs)
	want, wantV := readAll(tb, plain, addrs)
	for i := range got {
		a := addrs[i%len(addrs)]
		if got[i] != want[i] || gotV[i] != wantV[i] {
			tb.Fatalf("read %d of line %#x: verdict %x with %d violations, engine %x with %d",
				i, uint64(a), got[i][:8], gotV[i], want[i][:8], wantV[i])
		}
	}
}

// TestBootVerdictMatchesEngine is the verdict's differential test, for
// every design the KV torture cells run: a store serving a lossless
// recovery's boot verdict returns, through Read and through Fetch and
// an Opener, the plaintext and violation count of a store that
// authenticates every line in the engine, and its reads bypass the
// engine's clock; after the first write the written line reads back
// and a line tampered on the device is counted; a store opened with
// other keys or on a faulty device does not serve the verdict; and a
// recovery that lost writes to media faults hands out no verdict.
func TestBootVerdictMatchesEngine(t *testing.T) {
	for _, name := range torture.KVDesigns() {
		t.Run(name, func(t *testing.T) {
			img := kvCrashImage(t, name, nil)
			withVerdict, plain := bootPair(t, img)
			addrs := dataLines(img)
			sameReads(t, withVerdict, plain, addrs)
			if v := plain.Engine().Stats().IntegrityViolations; v != 0 {
				t.Fatalf("the engine counted %d violations on an untampered image", v)
			}
			if withVerdict.Now() >= plain.Now() {
				t.Fatalf("verdict reads advanced the clock to %d, engine reads to %d", withVerdict.Now(), plain.Now())
			}

			// The first write ends the window: the written line reads back,
			// and a line tampered on the device after it is counted.
			if err := withVerdict.Write(addrs[0], mem.Line{1}); err != nil {
				t.Fatal(err)
			}
			if got, err := withVerdict.Read(addrs[0]); err != nil || got != (mem.Line{1}) {
				t.Fatalf("written line reads back %x, %v", got[:8], err)
			}
			victim := addrs[len(addrs)/2]
			ct, _ := withVerdict.Device().Peek(victim)
			ct[7] ^= 1
			if err := withVerdict.Device().Write(victim, ct); err != nil {
				t.Fatal(err)
			}
			before := withVerdict.Engine().Stats().IntegrityViolations
			if _, err := withVerdict.Read(victim); err != nil {
				t.Fatal(err)
			}
			if after := withVerdict.Engine().Stats().IntegrityViolations; after != before+1 {
				t.Fatalf("a line tampered after the first write counted %d violations, want 1", after-before)
			}
		})
	}
	t.Run("other keys or faults", func(t *testing.T) {
		img := kvCrashImage(t, design.CCNVM, nil)
		rec := recovery.Apply(img, recovery.Recover(img))
		a := dataLines(img)[0]
		other := seccrypto.Keys{AES: [16]byte{1}}
		for i, o := range []store.Options{{}, {Keys: &other}, {Faults: &nvm.FaultModel{Seed: 1}}} {
			o.Params = verdictParams
			st, err := store.OpenRecovered(img.Clone(), rec, o)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Read(a); err != nil {
				t.Fatal(err)
			}
			if served := st.Now() == 0; served != (i == 0) {
				t.Fatalf("a store opened with %+v: verdict served %v", o, served)
			}
		}
	})
	t.Run("lossy", func(t *testing.T) {
		img := kvCrashImage(t, design.CCNVM, &nvm.FaultModel{Seed: 3, StuckLines: 2})
		rep := recovery.Recover(img)
		if rep.Lossless() {
			t.Fatal("stuck lines left the recovery lossless; the case is vacuous")
		}
		if v := recovery.Apply(img, rep).Verdict(); v != nil {
			t.Fatal("a recovery that lost lines to the media handed out a boot verdict")
		}
	})
}

// verdictImages caches FuzzBootVerdict's crash image per KV design.
var verdictImages sync.Map

// TestRebootedNamespaceKeepsEveryKey: kvCrashImage's namespace reboots
// with all 150 keys it was given and no integrity violation, for every
// design the KV torture cells run — Arsenal included, whose packed
// lines authenticate only under the sideband tags the image carries.
func TestRebootedNamespaceKeepsEveryKey(t *testing.T) {
	for _, name := range torture.KVDesigns() {
		t.Run(name, func(t *testing.T) {
			st, _, err := store.Reboot(kvCrashImage(t, name, nil), store.Options{Params: verdictParams})
			if err != nil {
				t.Fatal(err)
			}
			db, err := kv.Open(st, kv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if keys, v := db.Stats().Keys, st.Engine().Stats().IntegrityViolations; keys != 150 || v != 0 {
				t.Fatalf("reopened with %d of 150 keys and %d violations", keys, v)
			}
		})
	}
}

// FuzzBootVerdict flips one bit of one data, data-HMAC or counter line
// of a small rebooted KV image on the raw device, between the reboot
// and the reads: the store serving the boot verdict and the store
// authenticating in the engine must return the same plaintext and the
// same violation count for every data line.
func FuzzBootVerdict(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint8(0), uint8(0))
	f.Add(uint8(0), uint16(9), uint8(5), uint8(3))
	f.Add(uint8(2), uint16(40), uint8(63), uint8(7))
	f.Add(uint8(3), uint16(77), uint8(8), uint8(0))
	names := torture.KVDesigns()
	f.Fuzz(func(t *testing.T, d uint8, line uint16, byteAt, bit uint8) {
		name := names[int(d)%len(names)]
		base, ok := verdictImages.Load(name)
		if !ok {
			base, _ = verdictImages.LoadOrStore(name, kvCrashImage(t, name, nil))
		}
		img := base.(*engine.CrashImage).Clone()
		withVerdict, plain := bootPair(t, img)
		addrs := dataLines(img)
		lay := img.Image.Layout
		var targets []mem.Addr
		for _, a := range addrs {
			ha, _ := lay.HMACLineOf(a)
			for _, x := range []mem.Addr{a, ha, lay.CounterLineOf(a)} {
				if _, ok := img.Image.Read(x); ok && !slices.Contains(targets, x) {
					targets = append(targets, x)
				}
			}
		}
		at := targets[int(line)%len(targets)]
		for _, st := range []*store.Store{withVerdict, plain} {
			l, _ := st.Device().Peek(at)
			l[int(byteAt)%mem.LineSize] ^= 1 << (bit % 8)
			if err := st.Device().Write(at, l); err != nil {
				t.Fatal(err)
			}
		}
		sameReads(t, withVerdict, plain, addrs)
	})
}
