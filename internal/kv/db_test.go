package kv_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
	"ccnvm/internal/store"
)

const capacity = 1 << 20

func openStore(t testing.TB) *store.Store {
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

func openDB(t testing.TB, st *store.Store) *kv.DB {
	t.Helper()
	db, err := kv.Open(st, kv.Options{
		WriteController: kv.WriteControllerOptions{SlowdownDelay: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPutGetDelete(t *testing.T) {
	db := openDB(t, openStore(t))
	if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("get k1 = (%q,%v,%v)", v, ok, err)
	}
	if _, ok, _ := db.Get([]byte("absent")); ok {
		t.Fatal("absent key found")
	}
	if err := db.Delete([]byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("k1")); ok {
		t.Fatal("deleted key still visible")
	}
}

func TestValuesSpanningLines(t *testing.T) {
	db := openDB(t, openStore(t))
	for _, n := range []int{0, 1, 63, 64, 65, 500, 4096} {
		key := []byte(fmt.Sprintf("len-%d", n))
		val := bytes.Repeat([]byte{byte(n)}, n)
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
		got, ok, err := db.Get(key)
		if err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("len %d: round-trip failed (ok=%v err=%v got %d bytes)", n, ok, err, len(got))
		}
	}
}

func TestReopenRebuildsKeymap(t *testing.T) {
	st := openStore(t)
	db := openDB(t, st)
	want := map[string]string{}
	for i := 0; i < 20; i++ {
		k, v := fmt.Sprintf("key-%02d", i), fmt.Sprintf("val-%02d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := db.Delete([]byte("key-07")); err != nil {
		t.Fatal(err)
	}
	delete(want, "key-07")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A second DB over the same store must rebuild the identical keymap
	// from the log alone.
	db2 := openDB(t, st)
	if got := db2.Stats().Keys; got != len(want) {
		t.Fatalf("reopened keymap has %d keys, want %d", got, len(want))
	}
	for k, v := range want {
		got, ok, err := db2.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("reopened get %s = (%q,%v,%v)", k, got, ok, err)
		}
	}
	if _, ok, _ := db2.Get([]byte("key-07")); ok {
		t.Fatal("deleted key resurrected by reopen")
	}
}

func TestBatchVisibleAtomically(t *testing.T) {
	db := openDB(t, openStore(t))
	ops := []kv.Op{
		{Kind: kv.OpPut, Key: []byte("a"), Val: []byte("1")},
		{Kind: kv.OpPut, Key: []byte("b"), Val: []byte("2")},
		{Kind: kv.OpDelete, Key: []byte("a")},
	}
	if err := db.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("a")); ok {
		t.Fatal("in-batch delete not applied")
	}
	v, ok, _ := db.Get([]byte("b"))
	if !ok || string(v) != "2" {
		t.Fatal("batch put missing")
	}
}

// TestCrashMidBatchAtomicEverywhere is the namespace-level crash sweep:
// arm a power failure at every facade host-write boundary inside a
// batch and check, after the full recovery path, that acknowledged
// writes survive and the in-flight batch is all-or-nothing.
func TestCrashMidBatchAtomicEverywhere(t *testing.T) {
	// The victim batch: 3 ops, multi-line payload.
	victim := []kv.Op{
		{Kind: kv.OpPut, Key: []byte("v1"), Val: bytes.Repeat([]byte{1}, 100)},
		{Kind: kv.OpPut, Key: []byte("v2"), Val: bytes.Repeat([]byte{2}, 100)},
		{Kind: kv.OpDelete, Key: []byte("acked-1")},
	}
	for n := 0; n < 12; n++ {
		t.Run(fmt.Sprintf("crash-after-%d-writes", n), func(t *testing.T) {
			st := openStore(t)
			db := openDB(t, st)
			// Acked prefix: these must survive no matter what.
			if err := db.Put([]byte("acked-1"), []byte("A1")); err != nil {
				t.Fatal(err)
			}
			if err := db.Put([]byte("acked-2"), []byte("A2")); err != nil {
				t.Fatal(err)
			}
			st.ArmCrash(n)
			err := db.Batch(victim)
			acked := err == nil
			if !acked && !errors.Is(err, store.ErrCrashed) {
				t.Fatalf("batch failed with %v, want ErrCrashed", err)
			}
			img := db.Crash()

			st2, rep, rerr := store.Reboot(img, store.Options{})
			if rerr != nil {
				t.Fatalf("reboot: %v (report %+v)", rerr, rep)
			}
			db2 := openDB(t, st2)
			// Oracle 1: acked writes are never lost.
			v2, ok, gerr := db2.Get([]byte("acked-2"))
			if gerr != nil || !ok || string(v2) != "A2" {
				t.Fatalf("acked-2 lost: (%q,%v,%v)", v2, ok, gerr)
			}
			if acked {
				// The victim batch was acknowledged: all of it.
				assertBatchApplied(t, db2, true)
				return
			}
			// Oracle 2: all-or-nothing. The batch is applied iff its
			// commit frame made it; either way, never partially.
			_, hasV1, _ := db2.Get([]byte("v1"))
			assertBatchApplied(t, db2, hasV1)
		})
	}
}

func assertBatchApplied(t *testing.T, db *kv.DB, applied bool) {
	t.Helper()
	_, hasV1, _ := db.Get([]byte("v1"))
	_, hasV2, _ := db.Get([]byte("v2"))
	_, hasAcked1, _ := db.Get([]byte("acked-1"))
	if applied {
		if !hasV1 || !hasV2 || hasAcked1 {
			t.Fatalf("batch partially applied: v1=%v v2=%v acked-1=%v (want true,true,false)", hasV1, hasV2, hasAcked1)
		}
	} else {
		if hasV1 || hasV2 || !hasAcked1 {
			t.Fatalf("batch partially applied: v1=%v v2=%v acked-1=%v (want false,false,true)", hasV1, hasV2, hasAcked1)
		}
	}
}

func TestConcurrentWritersGroupCommit(t *testing.T) {
	st := openStore(t)
	db := openDB(t, st)
	const writers, perWriter = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-%d", w, i)
				if err := db.Put([]byte(k), []byte(k)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := fmt.Sprintf("w%d-%d", w, i)
			v, ok, err := db.Get([]byte(k))
			if err != nil || !ok || string(v) != k {
				t.Fatalf("get %s = (%q,%v,%v)", k, v, ok, err)
			}
		}
	}
	if s := db.Stats(); s.Ops != writers*perWriter {
		t.Fatalf("ops = %d, want %d", s.Ops, writers*perWriter)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := openDB(t, openStore(t))
	if err := db.Put([]byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("gone"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if err := db.Put([]byte("k"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("later"), []byte("y")); err != nil {
		t.Fatal(err)
	}

	v, ok, err := snap.Get([]byte("k"))
	if err != nil || !ok || string(v) != "old" {
		t.Fatalf("snapshot sees (%q,%v,%v), want old", v, ok, err)
	}
	if _, ok, _ := snap.Get([]byte("gone")); !ok {
		t.Fatal("snapshot lost a key deleted after the snapshot")
	}
	if _, ok, _ := snap.Get([]byte("later")); ok {
		t.Fatal("snapshot sees a key written after the snapshot")
	}
	v, _, _ = db.Get([]byte("k"))
	if string(v) != "new" {
		t.Fatal("live view stale")
	}
}

func TestWriteControllerStopsWhenFull(t *testing.T) {
	st := openStore(t)
	db, err := kv.Open(st, kv.Options{
		WriteController: kv.WriteControllerOptions{
			SlowdownFrac:  0.001,
			StopFrac:      0.01, // ~10 KiB of a 1 MiB log
			SlowdownDelay: time.Nanosecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{7}, 512)
	var full bool
	for i := 0; i < 64 && !full; i++ {
		err := db.Put([]byte(fmt.Sprintf("fill-%d", i)), val)
		if errors.Is(err, kv.ErrLogFull) {
			full = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("log never reported full past the stop trigger")
	}
	s := db.Stats()
	if s.Stall.Stops == 0 || s.Stall.Slowdowns == 0 {
		t.Fatalf("stall stats did not fire: %+v", s.Stall)
	}
	// Reads keep working at the stop trigger.
	if _, ok, err := db.Get([]byte("fill-0")); err != nil || !ok {
		t.Fatalf("read under stop trigger: (%v,%v)", ok, err)
	}
}

func TestClosedDBRefuses(t *testing.T) {
	db := openDB(t, openStore(t))
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k2"), []byte("v")); !errors.Is(err, kv.ErrDBClosed) {
		t.Fatalf("put on closed db: %v", err)
	}
	if _, _, err := db.Get([]byte("k")); !errors.Is(err, kv.ErrDBClosed) {
		t.Fatalf("get on closed db: %v", err)
	}
}

func TestImageRoundTripServesReads(t *testing.T) {
	st := openStore(t)
	db := openDB(t, st)
	for i := 0; i < 10; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	img := db.Crash()
	b, err := store.EncodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := store.DecodeImage(b)
	if err != nil {
		t.Fatal(err)
	}
	st2, _, err := store.Reboot(img2, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2 := openDB(t, st2)
	for i := 0; i < 10; i++ {
		v, ok, err := db2.Get([]byte(fmt.Sprintf("k%d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d after encode/decode/reboot: (%q,%v,%v)", i, v, ok, err)
		}
	}
}

// reopenImage is BenchmarkReopen's crash image, built once per test
// binary: every invocation of the benchmark function reuses it.
var reopenImage struct {
	once sync.Once
	enc  []byte
	err  error
}

// BenchmarkReopen times the restart path the repo benchmark's
// recover_ms measures, on a kv_put-shaped image: a 256 MiB store that
// took 40 000 batches of 4 fresh-key 64 B puts and then lost power. One
// iteration is one LoadImage -> store.Reboot -> kv.Open of that image,
// and each stage's mean is reported as load_ms, reboot_ms and open_ms;
// `make profile-kv KV_BENCH=Reopen` profiles it (read the profile with
// -focus reopenOnce: building the image is in it too).
func BenchmarkReopen(b *testing.B) {
	const batches, batchOps, valBytes = 40000, 4, 64
	reopenImage.once.Do(func() {
		db := openBenchDB(b)
		val := bytes.Repeat([]byte{'v'}, valBytes)
		ops := make([]kv.Op, batchOps)
		for i := 0; i < batches; i++ {
			for j := range ops {
				key := fmt.Sprintf("%016x", mem.Mix64(uint64(i*batchOps+j)))
				ops[j] = kv.Op{Kind: kv.OpPut, Key: []byte(key), Val: val}
			}
			if err := db.Batch(ops); err != nil {
				reopenImage.err = err
				return
			}
		}
		reopenImage.enc, reopenImage.err = store.EncodeImage(db.Crash())
	})
	if reopenImage.err != nil {
		b.Fatal(reopenImage.err)
	}
	path := filepath.Join(b.TempDir(), "crash.img")
	if err := os.WriteFile(path, reopenImage.enc, 0o644); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	var stages [3]time.Duration
	for i := 0; i < b.N; i++ {
		if keys := reopenOnce(b, path, &stages); keys != batches*batchOps {
			b.Fatalf("reopened namespace has %d keys, want %d", keys, batches*batchOps)
		}
	}
	for i, name := range []string{"load_ms", "reboot_ms", "open_ms"} {
		b.ReportMetric(float64(stages[i].Microseconds())/1e3/float64(b.N), name)
	}
}

// reopenOnce is one restart from the image file at path: it adds the
// LoadImage, Reboot and kv.Open times to stages and returns the
// reopened namespace's key count.
func reopenOnce(b *testing.B, path string, stages *[3]time.Duration) int {
	t0 := time.Now()
	img, err := store.LoadImage(path)
	if err != nil {
		b.Fatal(err)
	}
	t1 := time.Now()
	st, _, err := store.Reboot(img, store.Options{Params: engine.Params{UpdateLimit: 16, QueueEntries: 64}})
	if err != nil {
		b.Fatal(err)
	}
	t2 := time.Now()
	db, err := kv.Open(st, kv.Options{})
	if err != nil {
		b.Fatal(err)
	}
	t3 := time.Now()
	stages[0] += t1.Sub(t0)
	stages[1] += t2.Sub(t1)
	stages[2] += t3.Sub(t2)
	return db.Stats().Keys
}
