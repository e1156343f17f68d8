package kv_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"slices"
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

// TestCrashMidFrameLeavesHeaderUnwritten pins what a crash inside a
// frame's write leaves: the highest payload lines, and the header line
// as it was. The frame's payload checksum alone would keep such a frame
// out of the log, so the all-or-nothing sweeps pass whatever the order;
// this is the test that fails when the header is not written last.
func TestCrashMidFrameLeavesHeaderUnwritten(t *testing.T) {
	ops := make([]kv.Op, 4)
	for j := range ops {
		ops[j] = kv.Op{Kind: kv.OpPut, Key: []byte(fmt.Sprintf("key-%06d", j)), Val: bytes.Repeat([]byte{byte(j)}, 64)}
	}
	// run crashes the victim batch after n line writes (never, for
	// n < 0) and returns the data lines the batch wrote, in order.
	run := func(n int) (*store.Store, []mem.Addr) {
		st := openStore(t)
		db := openDB(t, st)
		if err := db.Put([]byte("acked"), []byte("A")); err != nil {
			t.Fatal(err)
		}
		var wrote []mem.Addr
		lay := st.Layout()
		st.SetEventTap(func(ev store.Event) {
			if ev.Kind == store.EvWriteAccept && lay.RegionOf(ev.Addr) == mem.RegionData {
				wrote = append(wrote, ev.Addr)
			}
		})
		if n >= 0 {
			st.ArmCrash(n)
		}
		if err := db.Batch(ops); (err == nil) != (n < 0) {
			t.Fatalf("crash after %d writes: batch returned %v", n, err)
		}
		return st, wrote
	}
	_, frame := run(-1)
	header := slices.Min(frame)
	if len(frame) != 6 || frame[len(frame)-1] != header {
		t.Fatalf("the batch wrote %#x, want 6 lines ending with its header", frame)
	}
	for n := range len(frame) {
		st, wrote := run(n)
		for i := range frame {
			// The i-th line from the frame's top is written iff i < n.
			a := header + mem.Addr(len(frame)-1-i)*mem.LineSize
			if _, ok := st.Peek(a); ok != (i < n) {
				t.Fatalf("crash after %d of %d writes (lines %#x): line %#x written=%v, want %v",
					n, len(frame), wrote, uint64(a), ok, i < n)
			}
		}
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

// TestConcurrentWritersGroupCommit: 8 writers race Put, then the power
// fails with no Flush or Close. Every acknowledged put must read back
// after the full reboot path.
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
	if s := db.Stats(); s.Ops != writers*perWriter {
		t.Fatalf("ops = %d, want %d", s.Ops, writers*perWriter)
	}
	st2, rep, err := store.Reboot(db.Crash(), store.Options{})
	if err != nil {
		t.Fatalf("reboot: %v (report %+v)", err, rep)
	}
	db2 := openDB(t, st2)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := fmt.Sprintf("w%d-%d", w, i)
			v, ok, err := db2.Get([]byte(k))
			if err != nil || !ok || string(v) != k {
				t.Fatalf("acked %s after power cut = (%q,%v,%v)", k, v, ok, err)
			}
		}
	}
}

// TestBatchClosesNoEpoch pins the acknowledgement point: a batch is
// acknowledged once the store has accepted its header line, so 200
// batches of four fresh-key 64-byte puts (the kv_put shape) make no
// drain beyond the design's own triggers (dirty-queue full, eviction,
// update limit). TestConcurrentWritersGroupCommit holds such acks to a
// power cut that no flush preceded.
func TestBatchClosesNoEpoch(t *testing.T) {
	const batches = 200
	st := openStore(t)
	db := openDB(t, st)
	s0 := st.Engine().Stats()
	for i := range batches {
		ops := make([]kv.Op, 4)
		for j := range ops {
			ops[j] = kv.Op{Kind: kv.OpPut, Key: []byte(fmt.Sprintf("k%04d", i*4+j)), Val: bytes.Repeat([]byte{byte(i)}, 64)}
		}
		if err := db.Batch(ops); err != nil {
			t.Fatal(err)
		}
	}
	s1 := st.Engine().Stats()
	explicit := (s1.Drains - s0.Drains) - (s1.DrainQueueFull - s0.DrainQueueFull) -
		(s1.DrainEvict - s0.DrainEvict) - (s1.DrainUpdateLimit - s0.DrainUpdateLimit)
	if explicit != 0 {
		t.Fatalf("%d batches made %d explicit epoch drains, want 0", batches, explicit)
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

// reopenShapes are BenchmarkReopen's crash images, one per repo
// benchmark workload whose restart recover_ms times, each built once
// per test binary: every invocation of the benchmark reuses it. Key i
// is Mix64(i) in hex, as in BenchmarkServerGet.
var reopenShapes = []struct {
	name                        string
	batches, batchOps, valBytes int

	once sync.Once
	enc  []byte
	err  error
}{
	// kv_put: 40 000 batches of 4 fresh-key 64 B puts.
	{name: "kv_put", batches: 40000, batchOps: 4, valBytes: 64},
	// kv_get: the 100 000 preloaded 128 B keys, 16 to a batch, as
	// benchmark/gen.go preloads them.
	{name: "kv_get", batches: 6250, batchOps: 16, valBytes: 128},
}

// BenchmarkReopen times the restart path the repo benchmark's
// recover_ms measures, on a 256 MiB store that took one workload's
// writes and then lost power; each sub-benchmark is one shape of
// reopenShapes. One iteration is one LoadImage -> store.Reboot ->
// kv.Open of that image, started with the heap handed back to the
// operating system, and each stage's mean is reported as load_ms,
// reboot_ms and open_ms; `make profile-kv KV_BENCH=Reopen/kv_get`
// profiles one shape (`KV_BENCH=Reopen` both). Building the image is in
// the profile too, so each restart runs under the pprof label
// restart=reopen, which the goroutines it starts (the recovery walk's
// parts, the scan's stages) inherit: read the restart alone with
// `go tool pprof -tagfocus restart=reopen kv.test cpu-kv.out`.
func BenchmarkReopen(b *testing.B) {
	for i := range reopenShapes {
		sh := &reopenShapes[i]
		b.Run(sh.name, func(b *testing.B) {
			sh.once.Do(func() {
				db := openBenchDB(b)
				val := bytes.Repeat([]byte{'v'}, sh.valBytes)
				ops := make([]kv.Op, sh.batchOps)
				for i := 0; i < sh.batches; i++ {
					for j := range ops {
						key := fmt.Sprintf("%016x", mem.Mix64(uint64(i*sh.batchOps+j)))
						ops[j] = kv.Op{Kind: kv.OpPut, Key: []byte(key), Val: val}
					}
					if err := db.Batch(ops); err != nil {
						sh.err = err
						return
					}
				}
				sh.enc, sh.err = store.EncodeImage(db.Crash())
			})
			if sh.err != nil {
				b.Fatal(sh.err)
			}
			path := filepath.Join(b.TempDir(), "crash.img")
			if err := os.WriteFile(path, sh.enc, 0o644); err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			var stages [3]time.Duration
			for i := 0; i < b.N; i++ {
				// Each restart runs in what stands in for a fresh process,
				// as the repo benchmark's do: the last restart's heap is
				// collected and its pages go back to the operating system,
				// outside the timer, so the load pays for the page faults a
				// restarted daemon pays for.
				b.StopTimer()
				debug.FreeOSMemory()
				b.StartTimer()
				var keys int
				pprof.Do(context.Background(), pprof.Labels("restart", "reopen"), func(context.Context) {
					keys = reopenOnce(b, path, &stages)
				})
				if keys != sh.batches*sh.batchOps {
					b.Fatalf("reopened namespace has %d keys, want %d", keys, sh.batches*sh.batchOps)
				}
			}
			for i, name := range []string{"load_ms", "reboot_ms", "open_ms"} {
				b.ReportMetric(float64(stages[i].Microseconds())/1e3/float64(b.N), name)
			}
		})
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

// TestFrameMergesHMACWrites: a batch of four fresh-key 64-byte puts
// is one 6-line frame, written in one store request from its highest
// line down to the header. On cc-NVM each data line's write reads its
// data-HMAC line (four data lines each) and writes it back: to the
// device, or merged into the request's still-queued entry for that
// line. Top-down, the frame visits each HMAC line it covers in one
// stretch, so the request's one-line buffer reads each from the device
// once and serves the frame's other HMAC reads as RequestHits: by the
// header's line address mod 4 the frame covers 2, 2, 2 or 3 HMAC lines,
// and that is both its HMAC-line device reads and the least HMAC-line
// writes it can make. How many merges find the entry queued follows the
// WPQ's backlog, so the count over eight frames is pinned: 32 HMAC-line
// writes, where one write per data line makes 48. A frame is 2 mod 4
// lines long, so a one-line put between the fourth and fifth batch
// makes the eight meet every alignment.
func TestFrameMergesHMACWrites(t *testing.T) {
	st := openStore(t)
	db := openDB(t, st)
	lay := st.Layout()
	header := mem.Addr(0)
	covered := map[mem.Addr]bool{}
	st.SetEventTap(func(ev store.Event) {
		if ev.Kind == store.EvWriteAccept && lay.RegionOf(ev.Addr) == mem.RegionData {
			header = min(header, ev.Addr)
			ha, _ := lay.HMACLineOf(ev.Addr)
			covered[ha] = true
		}
	})
	floor := [4]uint64{2, 2, 2, 3}
	seen := [4]bool{}
	var hmacWrites uint64
	for i := range 8 {
		if i == 4 {
			if err := db.Put([]byte("shift"), []byte("1")); err != nil {
				t.Fatal(err)
			}
		}
		ops := make([]kv.Op, 4)
		for j := range ops {
			ops[j] = kv.Op{Kind: kv.OpPut, Key: []byte(fmt.Sprintf("key-%06d", i*4+j)), Val: bytes.Repeat([]byte{byte(i)}, 64)}
		}
		w0, c0 := st.Device().Writes(), st.CtrlStats()
		header = ^mem.Addr(0)
		clear(covered)
		if err := db.Batch(ops); err != nil {
			t.Fatal(err)
		}
		w, c := st.Device().Writes(), st.CtrlStats()
		m, hits := c.RequestMerges-c0.RequestMerges, c.RequestHits-c0.RequestHits
		r := uint64(header) / mem.LineSize % 4
		seen[r] = true
		d, h := w.Data-w0.Data, w.HMAC-w0.HMAC
		if d != 6 || h+m != 6 || h < floor[r] {
			t.Fatalf("batch %d (header %#x, line %d mod 4): %d data and %d HMAC-line writes, %d merges; want 6 and at least %d, with 6 HMAC updates",
				i, uint64(header), r, d, h, m, floor[r])
		}
		// Each data write reads its HMAC line once, from the buffer or
		// the device, so 6 - hits of the frame's HMAC reads reached
		// the device: one per covered line.
		if n := uint64(len(covered)); n != floor[r] || 6-hits != n {
			t.Fatalf("batch %d (line %d mod 4): covers %d HMAC lines and read %d of its 6 HMAC reads from the device; want %d and %d",
				i, r, n, 6-hits, floor[r], floor[r])
		}
		hmacWrites += h
	}
	if seen != [4]bool{true, true, true, true} {
		t.Fatalf("the batches met the header alignments %v, want all four", seen)
	}
	if hmacWrites != 32 {
		t.Fatalf("eight frames wrote %d HMAC lines to the device, want 32", hmacWrites)
	}
}

// TestPutBatchIsSixLines pins the frame format's line counts on the
// repo benchmark's batch shapes: a kv_put batch of four 16-byte keys
// with 64-byte values is 6 data lines (44 header bytes and 332 payload
// bytes), and a kv_get preload batch of sixteen 16-byte keys with
// 128-byte values is 38 (44 and 2352).
func TestPutBatchIsSixLines(t *testing.T) {
	for _, c := range []struct{ ops, val, lines int }{{4, 64, 6}, {16, 128, 38}} {
		st := openStore(t)
		db := openDB(t, st)
		lay := st.Layout()
		var lines int
		st.SetEventTap(func(ev store.Event) {
			if ev.Kind == store.EvWriteAccept && lay.RegionOf(ev.Addr) == mem.RegionData {
				lines++
			}
		})
		ops := make([]kv.Op, c.ops)
		for j := range ops {
			ops[j] = kv.Op{Kind: kv.OpPut, Key: []byte(fmt.Sprintf("%016x", mem.Mix64(uint64(j)))), Val: bytes.Repeat([]byte{'v'}, c.val)}
		}
		if err := db.Batch(ops); err != nil {
			t.Fatal(err)
		}
		if lines != c.lines {
			t.Fatalf("a batch of %d puts of %d-byte values wrote %d data lines, want %d", c.ops, c.val, lines, c.lines)
		}
	}
}
