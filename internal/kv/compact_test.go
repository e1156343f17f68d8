package kv

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/store"
)

// Internal-package tests: the compaction machinery (manifest slots,
// pass phases, test hooks) is exercised white-box here; the black-box
// crash sweeps live in internal/torture.

func compactStore(t testing.TB, capacity uint64) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{
		Capacity: capacity,
		Params:   engine.Params{UpdateLimit: 16, QueueEntries: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func compactDB(t testing.TB, st *store.Store) *DB {
	t.Helper()
	db, err := Open(st, Options{
		WriteController: WriteControllerOptions{SlowdownDelay: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestManifestRoundTripAndRuling pins the slot bytes (exactly what the
// encoder wrote before the two-slot frame moved to internal/twoslot)
// and reopen's ruling: a torn slot — damaged, or sealed over generation
// 0 or a third arena half — is rewritten from the ruling record (zeroed
// when none rules), two torn slots are refused, and a line whose first
// word is zero is an empty slot, left as it is.
func TestManifestRoundTripAndRuling(t *testing.T) {
	rec := manifestRecord{Seq: 7, StartSeq: 123, Half: 1}
	l := encodeManifest(rec)
	const want = "434b564d414e494607000000000000007b0000000000000001000000000000007f00e7fa00000000000000000000000000000000000000000000000000000000"
	if hex.EncodeToString(l[:]) != want || decodeManifest(l[:]) != rec {
		t.Fatalf("slot %x decodes to %+v; want %s and %+v", l, decodeManifest(l[:]), want, rec)
	}
	torn := encodeManifest(manifestRecord{Seq: 8})
	torn[12] ^= 0xff
	word0Zero := mem.Line{9: 3}
	for i, tc := range []struct {
		slot0, slot1, slot1After mem.Line
		gen                      uint64 // the ruling generation, unless refused
		refused                  bool
	}{
		{l, torn, l, 7, false},
		{l, encodeManifest(manifestRecord{Seq: 8, Half: 2}), l, 7, false},
		{mem.Line{}, encodeManifest(manifestRecord{Seq: 0}), mem.Line{}, 0, false},
		{mem.Line{}, torn, mem.Line{}, 0, false},
		{torn, torn, torn, 0, true},
		{mem.Line{}, word0Zero, word0Zero, 0, false},
	} {
		st := compactStore(t, 1<<18)
		if st.Write(0, tc.slot0) != nil || st.Write(mem.LineSize, tc.slot1) != nil || st.FlushEpoch() != nil {
			t.Fatal("writing the manifest slots failed")
		}
		db, err := Open(st, Options{})
		if (err != nil) != tc.refused || (err == nil && db.Generation() != tc.gen) {
			t.Fatalf("row %d: Open err = %v, want refused %v and generation %d", i, err, tc.refused, tc.gen)
		}
		if got, _ := st.Read(mem.LineSize); got != tc.slot1After {
			t.Fatalf("row %d: slot 1 after Open is %x, want %x", i, got, tc.slot1After)
		}
	}
}

// TestChurnSurvivesBeyondLogCapacity is the acceptance churn workload:
// overwrite a small key set until the namespace has absorbed more than
// four times its log capacity. Without compaction the stop trigger
// would refuse around one capacity's worth; with it every batch must be
// acknowledged — zero permanent stalls, zero lost acked writes. No pass
// zeroes anything: the retired half keeps its frames, tagged with an
// older layout, and every pass lays its run over such frames.
func TestChurnSurvivesBeyondLogCapacity(t *testing.T) {
	st := compactStore(t, 1<<18)
	db := compactDB(t, st)
	logCap := db.Stats().Stall.Capacity
	val := bytes.Repeat([]byte{0xC7}, 1024)
	var written uint64
	model := map[string]byte{}
	for i := 0; written < 4*logCap; i++ {
		key := fmt.Sprintf("churn-%02d", i%16)
		v := append([]byte{byte(i)}, val...)
		if err := db.Put([]byte(key), v); err != nil {
			t.Fatalf("put %d refused after %d bytes (%.1fx capacity): %v",
				i, written, float64(written)/float64(logCap), err)
		}
		model[key] = byte(i)
		written += uint64(len(v))
	}
	s := db.Stats()
	if s.Compaction == nil || s.Compaction.Passes == 0 {
		t.Fatalf("churn of %d bytes over a %d-byte log ran no compaction: %+v", written, logCap, s.Compaction)
	}
	if s.Compaction.Passes < 2 || s.Compaction.ReclaimedLines != 0 {
		t.Fatalf("churn ran %d passes and reclaimed %d lines; want two or more passes and no reclaim",
			s.Compaction.Passes, s.Compaction.ReclaimedLines)
	}
	if h := frameAt(t, st, db.halfStart(1-db.active)); h.tag == db.tagLocked() {
		t.Fatalf("the retired half's first frame carries the open layout's tag %+v", h.tag)
	}
	for key, tag := range model {
		v, ok, err := db.Get([]byte(key))
		if err != nil || !ok || v[0] != tag || !bytes.Equal(v[1:], val) {
			t.Fatalf("key %s lost through churn: ok=%v err=%v", key, ok, err)
		}
	}
	// The full state must survive a crash + reboot + rescan.
	img := db.Crash()
	st2, _, err := store.Reboot(img, store.Options{Params: engine.Params{UpdateLimit: 16, QueueEntries: 64}})
	if err != nil {
		t.Fatal(err)
	}
	db2 := compactDB(t, st2)
	for key, tag := range model {
		v, ok, err := db2.Get([]byte(key))
		if err != nil || !ok || v[0] != tag {
			t.Fatalf("key %s lost across reboot: ok=%v err=%v", key, ok, err)
		}
	}
	if db2.Generation() == 0 {
		t.Fatal("recovered namespace lost its compaction generation")
	}
}

// TestCompactCrashAtEveryWriteBoundary arms a power failure at every
// accepted host write across a workload with an explicit mid-stream
// pass, and demands reopen always lands on a consistent prefix: acked
// batches present, deleted keys dead, no partial state.
func TestCompactCrashAtEveryWriteBoundary(t *testing.T) {
	type step struct {
		ops []Op
	}
	steps := []step{
		{ops: []Op{{Kind: OpPut, Key: []byte("a"), Val: bytes.Repeat([]byte{1}, 100)}}},
		{ops: []Op{{Kind: OpPut, Key: []byte("b"), Val: bytes.Repeat([]byte{2}, 100)}}},
		{ops: []Op{{Kind: OpDelete, Key: []byte("a")}}},
		{ops: []Op{{Kind: OpPut, Key: []byte("c"), Val: bytes.Repeat([]byte{3}, 100)}}},
	}
	// Prefix states: state after j steps, with compaction after step 2.
	states := make([]map[string]bool, len(steps)+1)
	states[0] = map[string]bool{}
	for i, s := range steps {
		cp := map[string]bool{}
		for k, v := range states[i] {
			cp[k] = v
		}
		for _, op := range s.ops {
			if op.Kind == OpDelete {
				delete(cp, string(op.Key))
			} else {
				cp[string(op.Key)] = true
			}
		}
		states[i+1] = cp
	}

	for n := 0; ; n++ {
		st := compactStore(t, 1<<20)
		db := compactDB(t, st)
		st.ArmCrash(n)
		acked, struck := 0, false
		for i, s := range steps {
			if err := db.Batch(s.ops); err != nil {
				if !errors.Is(err, store.ErrCrashed) {
					t.Fatalf("crash %d step %d: %v", n, i, err)
				}
				struck = true
				break
			}
			acked = i + 1
			if i == 1 {
				if err := db.Compact(); err != nil {
					if !errors.Is(err, store.ErrCrashed) {
						t.Fatalf("crash %d compact: %v", n, err)
					}
					struck = true
					break
				}
			}
		}
		img := db.Crash()
		st2, _, err := store.Reboot(img, store.Options{Params: engine.Params{UpdateLimit: 16, QueueEntries: 64}})
		if err != nil {
			t.Fatalf("crash %d reboot: %v", n, err)
		}
		db2 := compactDB(t, st2)
		// The recovered namespace must equal states[j] for some j >= acked.
		match := -1
		for j := acked; j <= len(steps); j++ {
			okAll := true
			for _, k := range []string{"a", "b", "c"} {
				_, ok, err := db2.Get([]byte(k))
				if err != nil {
					t.Fatalf("crash %d get %s: %v", n, k, err)
				}
				if ok != states[j][k] {
					okAll = false
					break
				}
			}
			if okAll {
				match = j
				break
			}
		}
		if match < 0 {
			t.Fatalf("crash %d: recovered state matches no prefix >= %d acked", n, acked)
		}
		if !struck {
			t.Logf("swept %d crash boundaries", n)
			return
		}
	}
}

// TestSnapshotMidCompactionReadsPreSwitchView pins the satellite
// contract: a snapshot taken while a pass is relocating the live set
// keeps serving the consistent pre-switch view after the switch, and a
// further pass, which would write its run over the retired half the
// snapshot reads, is refused while the pin lasts.
func TestSnapshotMidCompactionReadsPreSwitchView(t *testing.T) {
	st := compactStore(t, 1<<20)
	db := compactDB(t, st)
	if err := db.Put([]byte("keep"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("gone"), []byte("dead")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("gone")); err != nil {
		t.Fatal(err)
	}

	var snap *Snapshot
	db.testHookMidCopy = func() { snap = db.Snapshot() }
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.testHookMidCopy = nil
	if snap == nil {
		t.Fatal("mid-copy hook never ran")
	}
	// Overwrite after the pass; the snapshot must still see v1 and the
	// pre-snapshot deletion.
	if err := db.Put([]byte("keep"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := snap.Get([]byte("keep")); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("snapshot view moved: (%q,%v,%v)", v, ok, err)
	}
	if _, ok, _ := snap.Get([]byte("gone")); ok {
		t.Fatal("snapshot resurrects a deleted key")
	}
	if v, _, _ := db.Get([]byte("keep")); string(v) != "v2" {
		t.Fatalf("live view stale: %q", v)
	}
	if err := db.Compact(); !errors.Is(err, ErrCompactPinned) {
		t.Fatalf("pass over a pinned retired half: %v", err)
	}
	if v, ok, err := snap.Get([]byte("keep")); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("snapshot view moved after a refused pass: (%q,%v,%v)", v, ok, err)
	}
	snap.Release()
	if _, _, err := snap.Get([]byte("keep")); !errors.Is(err, ErrSnapshotReleased) {
		t.Fatalf("released snapshot still readable: %v", err)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("pass after Release: %v", err)
	}
}

// TestDeletedKeyNeverResurrectsThroughCompactCrashRecover is the
// delete-heavy churn satellite: keys deleted before a pass must stay
// dead through compact + crash + recover, at every crash boundary of
// the pass itself.
func TestDeletedKeyNeverResurrectsThroughCompactCrashRecover(t *testing.T) {
	for n := 0; ; n++ {
		st := compactStore(t, 1<<20)
		db := compactDB(t, st)
		for i := 0; i < 8; i++ {
			if err := db.Put([]byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{byte(i)}, 120)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			if err := db.Delete([]byte(fmt.Sprintf("k%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		// Everything above is acked; only the pass is under the gun.
		st.ArmCrash(n)
		struck := false
		if err := db.Compact(); err != nil {
			if !errors.Is(err, store.ErrCrashed) {
				t.Fatalf("crash %d compact: %v", n, err)
			}
			struck = true
		}
		img := db.Crash()
		st2, _, err := store.Reboot(img, store.Options{Params: engine.Params{UpdateLimit: 16, QueueEntries: 64}})
		if err != nil {
			t.Fatalf("crash %d reboot: %v", n, err)
		}
		db2 := compactDB(t, st2)
		for i := 0; i < 4; i++ {
			if _, ok, _ := db2.Get([]byte(fmt.Sprintf("k%d", i))); ok {
				t.Fatalf("crash %d: deleted key k%d resurrected", n, i)
			}
		}
		for i := 4; i < 8; i++ {
			v, ok, err := db2.Get([]byte(fmt.Sprintf("k%d", i)))
			if err != nil || !ok || len(v) != 120 || v[0] != byte(i) {
				t.Fatalf("crash %d: live key k%d lost (%v,%v)", n, i, ok, err)
			}
		}
		if !struck {
			t.Logf("swept %d pass-internal crash boundaries", n)
			return
		}
	}
}

// frameAt parses the frame header at a, failing the test if there is
// none.
func frameAt(t *testing.T, st *store.Store, a mem.Addr) frameHeader {
	t.Helper()
	l, err := st.Read(a)
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseHeader(l)
	if err != nil {
		t.Fatalf("no frame header at %#x: %v", uint64(a), err)
	}
	return h
}

// framesTagged counts the lines of [lo, hi) that parse as a frame
// header carrying tag.
func framesTagged(t *testing.T, st *store.Store, lo, hi mem.Addr, tag frameTag) int {
	t.Helper()
	n := 0
	for a := lo; a < hi; a += mem.LineSize {
		l, err := st.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		if h, err := parseHeader(l); err == nil && h.tag == tag {
			n++
		}
	}
	return n
}

// rebootDB crashes db and reopens the namespace on a rebooted store.
func rebootDB(t *testing.T, db *DB) (*store.Store, *DB) {
	t.Helper()
	st, _, err := store.Reboot(db.Crash(), store.Options{Params: engine.Params{UpdateLimit: 16, QueueEntries: 64}})
	if err != nil {
		t.Fatal(err)
	}
	return st, compactDB(t, st)
}

// TestReopenDiscardsOrphanRunAndConverges: an interrupted pass leaves
// an orphan run (no committed manifest) of two frames. It stays on the
// media, and reopen must never index it; a second reopen rebuilds the
// same keymap, seq and head. A later pass lays a one-frame run over it,
// leaving the orphan's second frame past the new run, and a crash after
// that must still recover the model.
func TestReopenDiscardsOrphanRunAndConverges(t *testing.T) {
	const keys = compactFrameOps + 6
	st := compactStore(t, 1<<20)
	db := compactDB(t, st)
	model := map[string]bool{}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("o%02d", i)
		if err := db.Put([]byte(k), bytes.Repeat([]byte{byte(i)}, 200)); err != nil {
			t.Fatal(err)
		}
		model[k] = true
	}
	// Crash right after the run's last write, before the manifest
	// commit: the run is fully on media but uncommitted.
	orphan := frameTag{gen: 1, startSeq: keys}
	dst := 1 - db.active
	db.testHookMidCopy = func() { st.ArmCrash(0) }
	err := db.Compact()
	if err == nil || !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("pass survived the armed crash: %v", err)
	}
	st2, db2 := rebootDB(t, db)
	if g := db2.Generation(); g != 0 {
		t.Fatalf("orphan run committed a generation: %d", g)
	}
	dstLo, dstHi := db2.halfStart(dst), db2.halfStart(dst)+mem.Addr(db2.halfBytes)
	if n := framesTagged(t, st2, dstLo, dstHi, orphan); n != 2 {
		t.Fatalf("%d frames of the orphan run on the media, want 2", n)
	}
	if s := db2.Stats(); s.Compaction != nil {
		t.Fatalf("reopen over an orphan run reports compaction stats %+v", s.Compaction)
	}
	check := func(db *DB) {
		t.Helper()
		for k := range model {
			if v, ok, err := db.Get([]byte(k)); err != nil || !ok || len(v) != 200 {
				t.Fatalf("key %s lost to an orphan run: ok=%v err=%v", k, ok, err)
			}
		}
		if len(db.idx) != len(model) {
			t.Fatalf("namespace holds %d keys, want %d", len(db.idx), len(model))
		}
	}
	check(db2)
	// Second reopen over the same store: the same namespace.
	db3 := compactDB(t, st2)
	if !reflect.DeepEqual(db3.idx, db2.idx) || db3.seq != db2.seq || db3.head != db2.head {
		t.Fatalf("second reopen rebuilt seq %d head %#x, first seq %d head %#x",
			db3.seq, uint64(db3.head), db2.seq, uint64(db2.head))
	}
	// Delete ten keys, so the next pass writes one shorter frame over
	// the orphan's first and leaves its second on the media.
	var dels []Op
	for i := keys - 10; i < keys; i++ {
		k := fmt.Sprintf("o%02d", i)
		dels = append(dels, Op{Kind: OpDelete, Key: []byte(k)})
		delete(model, k)
	}
	if err := db3.Batch(dels); err != nil {
		t.Fatal(err)
	}
	if err := db3.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := framesTagged(t, st2, db3.head, dstHi, orphan); n != 1 {
		t.Fatalf("%d orphan frames past the new run, want 1", n)
	}
	_, db4 := rebootDB(t, db3)
	if db4.Generation() != 1 {
		t.Fatalf("generation %d after one committed pass", db4.Generation())
	}
	check(db4)
}

// TestFailedPassRunIsNeverIndexed: a pass that fails after writing part
// of its run into the destination half leaves that run there. The next
// pass lays its own run over it, tagged with its own startSeq, and the
// failed run's frames past the new run are never indexed, at once or
// after a crash. One batch of 2-byte keys with empty values fills 88 %
// of the half at 5 bytes a record; the same records packed into 64-op
// compacted frames, 6 lines each, take 6 bytes a record and overflow
// it.
func TestFailedPassRunIsNeverIndexed(t *testing.T) {
	st := compactStore(t, 64<<10)
	db := compactDB(t, st)
	var ops []Op
	for i := 0; ; i++ {
		ops = append(ops, Op{Kind: OpPut, Key: []byte{byte(i >> 8), byte(i)}})
		payload, _, err := encodePayload(ops)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(frameLines(len(payload))*mem.LineSize) >= db.halfBytes*88/100 {
			break
		}
	}
	if err := db.Batch(ops); err != nil {
		t.Fatal(err)
	}
	dst := 1 - db.active
	if err := db.Compact(); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("pass over an 88 %% full half: %v, want an overflow", err)
	}
	failed := frameAt(t, st, db.halfStart(dst)).tag

	// Delete a tenth of the keys (a delete-only batch is admitted past
	// the stop trigger) so the live set fits, and compact again.
	var dels []Op
	for _, op := range ops[:len(ops)/10] {
		dels = append(dels, Op{Kind: OpDelete, Key: op.Key})
	}
	if err := db.Batch(dels); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.active != dst || db.tagLocked() == failed {
		t.Fatalf("second pass: active %d, tag %+v (the failed pass's was %+v)", db.active, db.tagLocked(), failed)
	}
	if framesTagged(t, st, db.head, db.halfStart(dst)+mem.Addr(db.halfBytes), failed) == 0 {
		t.Fatal("no frame of the failed run is left past the new one; the test shows nothing")
	}
	want := len(ops) - len(dels)
	if n := len(db.idx); n != want {
		t.Fatalf("namespace holds %d keys, want %d", n, want)
	}
	if _, db2 := rebootDB(t, db); len(db2.idx) != want {
		t.Fatalf("reopened namespace holds %d keys, want %d", len(db2.idx), want)
	}
}

// TestScanRefusesFrameOfAnotherLayout plants a sealed frame at the
// chain's end with the next seq, once tagged with an older generation
// (a retired log), once with the open generation and another startSeq
// (an orphan run of a pass that never committed), and once with the
// open layout's own tag. Reopen must index only the last.
func TestScanRefusesFrameOfAnotherLayout(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tag     func(open frameTag) frameTag
		indexed bool
	}{
		{"older generation", func(o frameTag) frameTag { return frameTag{gen: o.gen - 1, startSeq: o.startSeq} }, false},
		{"orphan run", func(o frameTag) frameTag { return frameTag{gen: o.gen, startSeq: o.startSeq - 1} }, false},
		{"open layout", func(o frameTag) frameTag { return o }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := compactStore(t, 1<<20)
			db := compactDB(t, st)
			for _, k := range []string{"a", "b", "c"} {
				if err := db.Put([]byte(k), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := db.Put([]byte("d"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			payload, _, err := encodePayload([]Op{{Kind: OpPut, Key: []byte("planted"), Val: []byte("x")}})
			if err != nil {
				t.Fatal(err)
			}
			seq := db.seq
			h := frameHeader{seq: seq + 1, count: 1, tag: tc.tag(db.tagLocked())}
			if err := db.writeFrame("test", db.head, h, payload); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(st, Options{})
			if err != nil {
				t.Fatal(err)
			}
			planted := 0
			if tc.indexed {
				planted = 1
			}
			_, ok, err := db2.Get([]byte("planted"))
			if err != nil || ok != tc.indexed || db2.seq != seq+uint64(planted) || len(db2.idx) != 4+planted {
				t.Fatalf("planted frame tagged %+v: indexed %v (seq %d, %d keys, %v), want %v",
					h.tag, ok, db2.seq, len(db2.idx), err, tc.indexed)
			}
		})
	}
}

// TestLadderAndStallStatsStayQuietWhenHealthy pins the satellite
// byte-identity contract: a namespace that never stalled marshals its
// stall stats exactly as the pre-ladder schema did, and the ladder and
// compaction fields are absent entirely.
func TestLadderAndStallStatsStayQuietWhenHealthy(t *testing.T) {
	st := compactStore(t, 1<<20)
	db := compactDB(t, st)
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Ladder != LadderHealthy || s.Compaction != nil {
		t.Fatalf("healthy namespace reports ladder=%q compaction=%+v", s.Ladder, s.Compaction)
	}
	b, err := json.Marshal(s.Stall)
	if err != nil {
		t.Fatal(err)
	}
	wc := s.Stall
	want := fmt.Sprintf(`{"capacity":%d,"slowdown_at":%d,"stop_at":%d}`, wc.Capacity, wc.SlowdownAt, wc.StopAt)
	if string(b) != want {
		t.Fatalf("faultless stall JSON changed shape:\n got %s\nwant %s", b, want)
	}
	// And the full Stats object omits ladder/compaction keys.
	full, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(full, []byte("ladder")) || bytes.Contains(full, []byte("compaction")) {
		t.Fatalf("faultless stats leak ladder fields: %s", full)
	}
}

// TestBackpressureCountsWritersQueuedBehindPass: a writer arriving
// while a pass runs waits on the backpressure rung and is admitted
// after the switch, with the wait counted and the ladder reporting the
// rung while the pass is active.
func TestBackpressureCountsWritersQueuedBehindPass(t *testing.T) {
	st := compactStore(t, 1<<20)
	db := compactDB(t, st)
	for i := 0; i < 4; i++ {
		if err := db.Put([]byte(fmt.Sprintf("b%d", i)), bytes.Repeat([]byte{9}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	enter := make(chan struct{})
	done := make(chan error, 1)
	db.testHookMidCopy = func() {
		db.mu.Lock()
		ladder := db.ladderLocked()
		db.mu.Unlock()
		if ladder != LadderBackpressure {
			t.Errorf("mid-pass ladder = %q, want backpressure", ladder)
		}
		close(enter)
		// Give the writer a moment to reach the queue; the pass then
		// finishes and releases it.
		time.Sleep(10 * time.Millisecond)
	}
	go func() {
		<-enter
		done <- db.Put([]byte("queued"), []byte("after-pass"))
	}()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("queued writer refused: %v", err)
	}
	if v, ok, _ := db.Get([]byte("queued")); !ok || string(v) != "after-pass" {
		t.Fatalf("queued write lost: (%q,%v)", v, ok)
	}
}

// TestOneLineFrame: a batch whose whole payload fits in its header line
// is a one-line frame, with no line after the header. It survives a
// crash at every write boundary of a batch, a pass and a second batch
// — reopen always lands on a reachable prefix state with every value
// intact — and, uncrashed, a reopen after the pass.
func TestOneLineFrame(t *testing.T) {
	put := []Op{{Kind: OpPut, Key: []byte("k"), Val: []byte("one")}}
	del := []Op{{Kind: OpDelete, Key: []byte("acked")}}
	for _, ops := range [][]Op{put, del} {
		if p, _, err := encodePayload(ops); err != nil || frameLines(len(p)) != 1 || payloadLines(len(p)) != 0 {
			t.Fatalf("%s %s: a %d-byte payload in %d lines (%v), want one line", ops[0].Key, ops[0].Val, len(p), frameLines(len(p)), err)
		}
	}
	states := []map[string]string{
		{"acked": "A"},
		{"acked": "A", "k": "one"}, // after the put, and after the pass
		{"k": "one"},
	}
	check := func(t *testing.T, db *DB, from int) int {
		t.Helper()
		for j := from; j < len(states); j++ {
			if len(db.idx) != len(states[j]) {
				continue
			}
			match := true
			for k, want := range states[j] {
				v, ok, err := db.Get([]byte(k))
				if err != nil {
					t.Fatalf("get %s: %v", k, err)
				}
				match = match && ok && string(v) == want
			}
			if match {
				return j
			}
		}
		t.Fatalf("reopened namespace (%d keys) matches no prefix state from %d", len(db.idx), from)
		return -1
	}
	for n := 0; ; n++ {
		st := compactStore(t, 1<<20)
		db := compactDB(t, st)
		if err := db.Put([]byte("acked"), []byte("A")); err != nil {
			t.Fatal(err)
		}
		st.ArmCrash(n)
		done := 0 // prefix state reached by acknowledged steps
		var err error
		if err = db.Batch(put); err == nil {
			done = 1
			if err = db.Compact(); err == nil {
				if err = db.Batch(del); err == nil {
					done = 2
				}
			}
		}
		if err != nil && !errors.Is(err, store.ErrCrashed) {
			t.Fatalf("crash %d: %v", n, err)
		}
		st2, db2 := rebootDB(t, db)
		check(t, db2, done)
		if err == nil {
			// The pass's run is one one-line frame of both keys, seq 3.
			if used := db2.Stats().LogBytes; db2.Generation() != 1 || db2.seq != 4 || used != 2*mem.LineSize {
				t.Fatalf("uncrashed: generation %d seq %d, %d log bytes; want 1, 4 and two lines", db2.Generation(), db2.seq, used)
			}
			if check(t, compactDB(t, st2), 2) != 2 {
				t.Fatal("a second reopen moved the namespace")
			}
			t.Logf("swept %d crash boundaries", n)
			return
		}
	}
}
