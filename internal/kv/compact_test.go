package kv

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
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

// TestManifestRoundTripAndRuling pins the slot bytes and reopen's
// ruling: a torn slot — damaged, or sealed over generation 0 or a tail
// that is no line of the arena — is rewritten from the ruling record
// (zeroed when none rules), two torn slots are refused, and a line
// whose first word is zero is an empty slot, left as it is.
func TestManifestRoundTripAndRuling(t *testing.T) {
	rec := manifestRecord{Seq: 7, Tail: arenaStart + 3*mem.LineSize, TailSeq: 123}
	l := encodeManifest(rec)
	const want = "434b565441494c00070000000000000040010000000000007b0000000000000002686f2900000000000000000000000000000000000000000000000000000000"
	if hex.EncodeToString(l[:]) != want || decodeManifest(l[:]) != rec {
		t.Fatalf("slot %x decodes to %+v; want %s and %+v", l, decodeManifest(l[:]), want, rec)
	}
	torn := encodeManifest(manifestRecord{Seq: 8, Tail: arenaStart})
	torn[12] ^= 0xff
	word0Zero := mem.Line{9: 3}
	for i, tc := range []struct {
		slot0, slot1, slot1After mem.Line
		gen                      uint64 // the ruling generation, unless refused
		refused                  bool
	}{
		{l, torn, l, 7, false},
		{l, encodeManifest(manifestRecord{Seq: 8, Tail: arenaStart + 5}), l, 7, false},
		{l, encodeManifest(manifestRecord{Seq: 8, Tail: 0}), l, 7, false},
		{mem.Line{}, encodeManifest(manifestRecord{Seq: 0, Tail: arenaStart}), mem.Line{}, 0, false},
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

// TestOpenRefusesEarlierBuildImage: an image of the two-half arena
// fails Open with an error naming its format, where this build would
// otherwise open it empty (its manifest slot ruled torn, or its log
// ending at a first header of another magic) and let the next Batch
// overwrite it. Planted: a manifest slot of the two-half layout, and —
// no manifest — a first arena line holding a tagged "CKVF" header.
func TestOpenRefusesEarlierBuildImage(t *testing.T) {
	var slot mem.Line
	binary.LittleEndian.PutUint64(slot[16:24], 9) // startSeq
	slot[24] = 1                                  // the active half
	halvesManifestFormat.Seal(slot[:], 3)
	payload, _, err := encodePayload([]Op{{Kind: OpPut, Key: []byte("k"), Val: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	h := frameHeader{seq: 1, count: 1, n: len(payload), ck: mem.Checksum(payload)}
	copy(h.head[:], payload)
	tagged := h.encode()
	copy(tagged[0:4], "CKVF")
	binary.LittleEndian.PutUint64(tagged[28:36], 2) // tag.gen
	sealHeader(&tagged, h.ck)
	for _, c := range []struct {
		name string
		at   mem.Addr
		line mem.Line
		want string
	}{
		{"two-half manifest", mem.LineSize, slot, `manifest slot 1 is in the two-half "CKVMANIF" format`},
		{"tagged frame header", arenaStart, tagged, `is in the two-half "CKVF" frame format`},
	} {
		st := compactStore(t, 1<<18)
		if st.Write(c.at, c.line) != nil || st.FlushEpoch() != nil {
			t.Fatal("planting the line failed")
		}
		if _, err := Open(st, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Open = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestChurnSurvivesBeyondLogCapacity is the acceptance churn workload:
// overwrite a small key set until the namespace has absorbed more than
// four times its log capacity. Without compaction the stop trigger
// would refuse around one capacity's worth; with it every batch must be
// acknowledged — zero permanent stalls, zero lost acked writes. The
// head runs more than one lap of the ring, so the scan after the
// reboot finds its frames past the arena's end at the arena's start.
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
	if db.head < db.ringBytes {
		t.Fatalf("the head ran %d bytes, less than the %d-byte ring", db.head, db.ringBytes)
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

// TestSnapshotHeldAcrossPassesReadsItsValues: a snapshot taken while
// a pass copies keeps serving its view — values overwritten and a key
// deleted since — across the passes that churn runs while it is held.
// Once the head has run a lap to the ring position the snapshot pins,
// writes are refused with ErrLogFull and a pass with ErrCompactPinned;
// Release lets both through again.
func TestSnapshotHeldAcrossPassesReadsItsValues(t *testing.T) {
	st := compactStore(t, 1<<18)
	db := compactDB(t, st)
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 1024) }
	for i := range 8 {
		if err := db.Put([]byte(fmt.Sprintf("s%d", i)), val(i)); err != nil {
			t.Fatal(err)
		}
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
	check := func(when string) {
		t.Helper()
		for i := range 8 {
			if v, ok, err := snap.Get([]byte(fmt.Sprintf("s%d", i))); err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("%s: snapshot lost s%d (ok %v, %v)", when, i, ok, err)
			}
		}
		if _, ok, _ := snap.Get([]byte("gone")); ok {
			t.Fatalf("%s: snapshot resurrects a deleted key", when)
		}
	}
	passes := db.Stats().Compaction.Passes
	var err error
	for i := 0; err == nil; i++ {
		err = db.Put([]byte(fmt.Sprintf("s%d", i%8)), val(100+i))
		if i%16 == 0 {
			check(fmt.Sprintf("put %d", i))
		}
	}
	if !errors.Is(err, ErrLogFull) {
		t.Fatalf("churn under a snapshot ended with %v, want ErrLogFull", err)
	}
	if n := db.Stats().Compaction.Passes - passes; n < 3 {
		t.Fatalf("%d passes ran while the snapshot was held, want several", n)
	}
	check("the head at the pin")
	if err := db.Compact(); !errors.Is(err, ErrCompactPinned) {
		t.Fatalf("pass with the head at the pin: %v, want ErrCompactPinned", err)
	}
	snap.Release()
	if _, _, err := snap.Get([]byte("s0")); !errors.Is(err, ErrSnapshotReleased) {
		t.Fatalf("released snapshot still readable: %v", err)
	}
	if err := db.Put([]byte("s0"), val(0)); err != nil {
		t.Fatalf("put after Release: %v", err)
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

// rebootDB crashes db and reopens the namespace on a rebooted store.
func rebootDB(t *testing.T, db *DB) (*store.Store, *DB) {
	t.Helper()
	st, _, err := store.Reboot(db.Crash(), store.Options{Params: engine.Params{UpdateLimit: 16, QueueEntries: 64}})
	if err != nil {
		t.Fatal(err)
	}
	return st, compactDB(t, st)
}

// TestCleanerCopiesOnlyTheLiveTail: the repo benchmark's kv_churn shape
// — 64 hot keys of 1 KiB values on a 512 KiB store, seeded uniform
// single-key puts — drives admission passes that clean only the oldest
// frames, so a pass copies the few records there that are still live,
// not the whole live set. Emptying a half of a two-half arena copied
// 0.45 records a put here.
func TestCleanerCopiesOnlyTheLiveTail(t *testing.T) {
	st := compactStore(t, 512<<10)
	db := compactDB(t, st)
	rng := rand.New(rand.NewSource(1))
	val := make([]byte, 1024)
	key := func(i int) []byte { return []byte(fmt.Sprintf("hot%03d-%08x", i, i*2654435761)) }
	for i := range 64 {
		if err := db.Put(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	const puts = 3000
	for range puts {
		rng.Read(val[:8])
		if err := db.Put(key(rng.Intn(64)), val); err != nil {
			t.Fatal(err)
		}
	}
	c := db.Stats().Compaction
	if c == nil || c.Passes < 20 {
		t.Fatalf("%d puts ran passes %+v, want twenty or more", puts, c)
	}
	if per := float64(db.compactCopied) / puts; per > 0.15 {
		t.Fatalf("%d passes copied %d records, %.3f a put; want at most 0.15", c.Passes, db.compactCopied, per)
	}
	t.Logf("%d passes, %d copied records (%.3f a put), %d bytes freed a pass", c.Passes, db.compactCopied,
		float64(db.compactCopied)/puts, c.FreedBytes/c.Passes)
}

// TestCrashAcrossWrapAndTailCommit arms a power failure at every host
// write of two stretches of a churn on a small ring: the steps around
// the first batch that starts a new lap, its frame skipping the gap at
// the arena's end, and the first batch after it whose admission runs a
// pass, copies and tail commit included. Reopen must land on a
// reachable prefix state, and a second reopen must rebuild the first.
func TestCrashAcrossWrapAndTailCommit(t *testing.T) {
	const keys, steps = 32, 400
	rng := rand.New(rand.NewSource(5))
	picks := make([]int, steps)
	for i := range picks {
		picks[i] = rng.Intn(keys)
	}
	op := func(i int) Op {
		k := []byte(fmt.Sprintf("w%d", picks[i]))
		if i%7 == 6 {
			return Op{Kind: OpDelete, Key: k}
		}
		return Op{Kind: OpPut, Key: k, Val: bytes.Repeat([]byte{byte(i)}, 500)}
	}
	states := []map[string]byte{{}}
	for i := range steps {
		s := maps.Clone(states[i])
		if o := op(i); o.Kind == OpDelete {
			delete(s, string(o.Key))
		} else {
			s[string(o.Key)] = byte(i)
		}
		states = append(states, s)
	}
	// The probe finds the stretches.
	db := compactDB(t, compactStore(t, 64<<10))
	wrap, pass := -1, -1
	for i := 0; i < steps && pass < 0; i++ {
		head, copied := db.head, db.compactCopied
		if err := db.Batch([]Op{op(i)}); err != nil {
			t.Fatal(err)
		}
		last := db.frames[len(db.frames)-1].off
		switch {
		case wrap < 0 && last%db.ringBytes == 0 && last != head:
			wrap = i
		case wrap >= 0 && db.compactCopied != copied:
			pass = i
		}
	}
	if wrap < 0 || pass < 0 {
		t.Fatalf("%d steps: wrap at step %d, pass at %d; want both", steps, wrap, pass)
	}
	matches := func(db *DB, j int) bool {
		if len(db.idx) != len(states[j]) {
			return false
		}
		for k, b := range states[j] {
			v, ok, err := db.Get([]byte(k))
			if err != nil || !ok || len(v) != 500 || v[0] != b {
				return false
			}
		}
		return true
	}
	for _, w := range [][2]int{{wrap - 1, wrap + 1}, {pass, pass}} {
		for n := 0; ; n++ {
			st := compactStore(t, 64<<10)
			db := compactDB(t, st)
			for i := range w[0] {
				if err := db.Batch([]Op{op(i)}); err != nil {
					t.Fatal(err)
				}
			}
			st.ArmCrash(n)
			acked, issued := w[0], w[0]
			var err error
			for i := w[0]; i <= w[1] && err == nil; i++ {
				issued = i + 1
				if err = db.Batch([]Op{op(i)}); err == nil {
					acked = i + 1
				}
			}
			if err != nil && !errors.Is(err, store.ErrCrashed) {
				t.Fatalf("steps %v crash %d: %v", w, n, err)
			}
			st2, db2 := rebootDB(t, db)
			j := acked
			for j <= issued && !matches(db2, j) {
				j++
			}
			if j > issued {
				t.Fatalf("steps %v crash %d: the namespace matches no state in [%d,%d]", w, n, acked, issued)
			}
			if db3 := compactDB(t, st2); db3.seq != db2.seq || db3.head != db2.head || !matches(db3, j) {
				t.Fatalf("steps %v crash %d: a second reopen moved the namespace", w, n)
			}
			if err == nil {
				t.Logf("steps %v: swept %d crash boundaries", w, n)
				break
			}
		}
	}
}

// TestDroppedTombstoneNeverResurrects: a pass over the oldest frames
// drops a key's put and the tombstone that deleted it, copying only the
// records there still indexed. At every host write of that pass a
// crash must leave the key dead after reopen, and the others live.
func TestDroppedTombstoneNeverResurrects(t *testing.T) {
	val := bytes.Repeat([]byte{7}, 120)
	ops := []Op{
		{Kind: OpPut, Key: []byte("dead"), Val: val},
		{Kind: OpPut, Key: []byte("a"), Val: val},
		{Kind: OpPut, Key: []byte("b"), Val: val},
		{Kind: OpDelete, Key: []byte("dead")},
		{Kind: OpPut, Key: []byte("c"), Val: val},
	}
	for n := 0; ; n++ {
		st := compactStore(t, 1<<20)
		db := compactDB(t, st)
		for _, o := range ops {
			if err := db.Batch([]Op{o}); err != nil {
				t.Fatal(err)
			}
		}
		st.ArmCrash(n)
		db.mu.Lock()
		err := db.compactLocked(4) // the put and the tombstone of "dead"
		db.mu.Unlock()
		if err != nil && !errors.Is(err, store.ErrCrashed) {
			t.Fatalf("crash %d: %v", n, err)
		}
		if err == nil && (db.tailSeq != 4 || db.compactCopied != 2) {
			t.Fatalf("the pass left tail seq %d and copied %d records; want 4 and a, b", db.tailSeq, db.compactCopied)
		}
		_, db2 := rebootDB(t, db)
		if _, ok, _ := db2.Get([]byte("dead")); ok {
			t.Fatalf("crash %d: the dropped tombstone's key resurrected", n)
		}
		for _, k := range []string{"a", "b", "c"} {
			if v, ok, err := db2.Get([]byte(k)); err != nil || !ok || !bytes.Equal(v, val) {
				t.Fatalf("crash %d: key %s lost (%v, %v)", n, k, ok, err)
			}
		}
		if err == nil {
			t.Logf("swept %d crash boundaries of the pass", n)
			return
		}
	}
}

// TestScanEndsAtFrameOfEarlierLap plants a sealed frame where the
// log's next frame would go: at the head, or — once a pass has moved
// the tail off the arena's first line — at that first line, where the
// head goes when a frame does not fit before the arena's end. Reopen
// must index it exactly when it carries the next seq; any other seq is
// a frame of an earlier lap.
func TestScanEndsAtFrameOfEarlierLap(t *testing.T) {
	for _, tc := range []struct {
		name    string
		first   bool   // planted at the arena's first line
		seq     uint64 // added to the last seq
		indexed bool
	}{
		{"earlier seq at the head", false, 0, false},
		{"next seq at the head", false, 1, true},
		{"skipped seq at the head", false, 2, false},
		{"earlier seq at the first line", true, 0, false},
		{"next seq at the first line", true, 1, true},
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
			at := db.addr(db.head)
			if tc.first {
				at = arenaStart
			}
			seq := db.seq
			if err := db.writeFrame("test", at, frameHeader{seq: seq + tc.seq, count: 1}, payload); err != nil {
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
				t.Fatalf("planted frame: indexed %v (seq %d, %d keys, %v), want %v", ok, db2.seq, len(db2.idx), err, tc.indexed)
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
