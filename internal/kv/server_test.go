package kv_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/store"
)

// client is a test-side JSON-lines connection.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t testing.TB, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

// roundTrip sends one request and reads its response. It keeps
// encoding/json on the client side on purpose: it is the independent
// check that what the server appends still parses.
func (c *client) roundTrip(req kv.Request) (kv.Response, error) {
	var resp kv.Response
	b, err := json.Marshal(req)
	if err != nil {
		return resp, err
	}
	if _, err := c.conn.Write(append(b, '\n')); err != nil {
		return resp, err
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return resp, err
	}
	err = json.Unmarshal(line, &resp)
	return resp, err
}

func (c *client) do(t testing.TB, req kv.Request) kv.Response {
	t.Helper()
	resp, err := c.roundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func startServer(t testing.TB, db *kv.DB) (*kv.Server, string, chan shutdown) {
	t.Helper()
	srv := kv.NewServer(db)
	down := make(chan shutdown, 1)
	srv.OnShutdown = func(img *engine.CrashImage, clean bool) {
		down <- shutdown{img: img, clean: clean}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String(), down
}

type shutdown struct {
	img   *engine.CrashImage
	clean bool
}

func TestServerBasicOps(t *testing.T) {
	db := openDB(t, openStore(t))
	_, addr, _ := startServer(t, db)
	c := dial(t, addr)

	if resp := c.do(t, kv.Request{Op: "ping"}); !resp.OK {
		t.Fatalf("ping: %+v", resp)
	}
	if resp := c.do(t, kv.Request{Op: "put", Key: "k", Val: "v"}); !resp.OK {
		t.Fatalf("put: %+v", resp)
	}
	resp := c.do(t, kv.Request{Op: "get", Key: "k"})
	if !resp.OK || !resp.Found || resp.Val != "v" {
		t.Fatalf("get: %+v", resp)
	}
	if resp := c.do(t, kv.Request{Op: "del", Key: "k"}); !resp.OK {
		t.Fatalf("del: %+v", resp)
	}
	if resp := c.do(t, kv.Request{Op: "get", Key: "k"}); resp.Found {
		t.Fatalf("get after del: %+v", resp)
	}
	if resp := c.do(t, kv.Request{Op: "nope"}); resp.Err == "" {
		t.Fatal("unknown op accepted")
	}
	resp = c.do(t, kv.Request{Op: "batch", Ops: []kv.RequestOp{
		{Op: "put", Key: "b1", Val: "1"},
		{Op: "put", Key: "b2", Val: "2"},
	}})
	if !resp.OK {
		t.Fatalf("batch: %+v", resp)
	}
	resp = c.do(t, kv.Request{Op: "stats"})
	if !resp.OK || resp.Stats == nil || resp.Stats.Keys != 2 {
		t.Fatalf("stats: %+v", resp)
	}
}

// TestServerOversizedRequestIsAnswered: a request line past the 4 MiB
// cap ends the connection, but with a typed refusal the client can
// read, and the server keeps serving everyone else.
func TestServerOversizedRequestIsAnswered(t *testing.T) {
	db := openDB(t, openStore(t))
	_, addr, _ := startServer(t, db)
	c := dial(t, addr)

	// The server stops reading at the cap and closes, so the tail of
	// this write may fail; the answer is what is under test.
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		c.conn.Write(append(bytes.Repeat([]byte{'x'}, 5<<20), '\n'))
	}()
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("no answer to an oversized request: %v", err)
	}
	var resp kv.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("bad answer %q: %v", line, err)
	}
	if resp.OK || resp.Code != kv.CodeTooLarge || resp.Err == "" {
		t.Fatalf("oversized request not typed: %+v", resp)
	}
	if _, err := c.r.ReadBytes('\n'); err == nil {
		t.Fatal("connection still open after an oversized request")
	}
	<-wrote

	if resp := dial(t, addr).do(t, kv.Request{Op: "ping"}); !resp.OK {
		t.Fatalf("second connection not served: %+v", resp)
	}
}

func TestServerSnapshotOps(t *testing.T) {
	db := openDB(t, openStore(t))
	_, addr, _ := startServer(t, db)
	c := dial(t, addr)

	c.do(t, kv.Request{Op: "put", Key: "k", Val: "old"})
	snap := c.do(t, kv.Request{Op: "snap"})
	if !snap.OK || snap.Snap == 0 {
		t.Fatalf("snap: %+v", snap)
	}
	c.do(t, kv.Request{Op: "put", Key: "k", Val: "new"})

	got := c.do(t, kv.Request{Op: "snapget", Snap: snap.Snap, Key: "k"})
	if !got.OK || got.Val != "old" {
		t.Fatalf("snapget: %+v", got)
	}
	live := c.do(t, kv.Request{Op: "get", Key: "k"})
	if live.Val != "new" {
		t.Fatalf("live get: %+v", live)
	}
	if rel := c.do(t, kv.Request{Op: "snaprel", Snap: snap.Snap}); !rel.OK {
		t.Fatalf("snaprel: %+v", rel)
	}
	if after := c.do(t, kv.Request{Op: "snapget", Snap: snap.Snap, Key: "k"}); after.Err == "" {
		t.Fatal("released snapshot still readable")
	}
}

// TestServerLeakedSnapshotDoesNotWedgeNamespace: a client that takes a
// snapshot and goes away must not keep its arena half pinned. While the
// server held snapshots for ever, the first compaction pass after such
// a disconnect was the last, and the namespace answered "full" from
// the ~800th overwrite of one key on.
func TestServerLeakedSnapshotDoesNotWedgeNamespace(t *testing.T) {
	db := openDB(t, openStore(t))
	_, addr, _ := startServer(t, db)
	c := dial(t, addr)
	val := strings.Repeat("v", 1024)
	if resp := c.do(t, kv.Request{Op: "put", Key: "k", Val: val}); !resp.OK {
		t.Fatalf("put: %+v", resp)
	}

	leaker := dial(t, addr)
	snap := leaker.do(t, kv.Request{Op: "snap"})
	if !snap.OK || snap.Snap == 0 {
		t.Fatalf("snap: %+v", snap)
	}
	// The id means nothing on any other connection.
	want := fmt.Sprintf("no snapshot %d", snap.Snap)
	if resp := c.do(t, kv.Request{Op: "snapget", Snap: snap.Snap, Key: "k"}); resp.OK || resp.Err != want {
		t.Fatalf("snapget with another connection's id: %+v, want error %q", resp, want)
	}
	leaker.conn.Close()

	// The wedge showed at the 818th overwrite; -short (make race) still
	// crosses several compaction passes.
	puts := 20000
	if testing.Short() {
		puts = 3000
	}
	for i := 0; i < puts; i++ {
		if resp := c.do(t, kv.Request{Op: "put", Key: "k", Val: val}); !resp.OK {
			t.Fatalf("overwrite %d refused after a snapshot leaked: %+v", i, resp)
		}
	}
}

// TestServerSnapshotCapPerConnection: each open snapshot is a keymap
// copy, so a connection gets a fixed number of them and a plain error
// past it; releasing one makes room again, and other connections are
// not charged.
func TestServerSnapshotCapPerConnection(t *testing.T) {
	db := openDB(t, openStore(t))
	_, addr, _ := startServer(t, db)
	c := dial(t, addr)
	var ids []uint64
	for {
		resp := c.do(t, kv.Request{Op: "snap"})
		if !resp.OK {
			if resp.Err == "" || resp.Code != "" {
				t.Fatalf("snap past the cap: %+v, want a plain error", resp)
			}
			break
		}
		if ids = append(ids, resp.Snap); len(ids) > 1000 {
			t.Fatal("1000 snapshots open on one connection and no cap in sight")
		}
	}
	if resp := dial(t, addr).do(t, kv.Request{Op: "snap"}); !resp.OK {
		t.Fatalf("another connection charged for this one's snapshots: %+v", resp)
	}
	if resp := c.do(t, kv.Request{Op: "snaprel", Snap: ids[0]}); !resp.OK {
		t.Fatalf("snaprel: %+v", resp)
	}
	if resp := c.do(t, kv.Request{Op: "snap"}); !resp.OK {
		t.Fatalf("snap after a release: %+v", resp)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	db := openDB(t, openStore(t))
	_, addr, _ := startServer(t, db)

	const clients, ops = 16, 8
	var wg sync.WaitGroup
	fail := make(chan string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				fail <- err.Error()
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			enc := json.NewEncoder(conn)
			for j := 0; j < ops; j++ {
				k := fmt.Sprintf("c%d-%d", i, j)
				if err := enc.Encode(kv.Request{Op: "put", Key: k, Val: k}); err != nil {
					fail <- err.Error()
					return
				}
				line, err := r.ReadBytes('\n')
				if err != nil {
					fail <- err.Error()
					return
				}
				var resp kv.Response
				if err := json.Unmarshal(line, &resp); err != nil || !resp.OK {
					fail <- fmt.Sprintf("put %s: %s err=%v", k, line, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
	for i := 0; i < clients; i++ {
		for j := 0; j < ops; j++ {
			k := fmt.Sprintf("c%d-%d", i, j)
			v, ok, err := db.Get([]byte(k))
			if err != nil || !ok || string(v) != k {
				t.Fatalf("get %s = (%q,%v,%v)", k, v, ok, err)
			}
		}
	}
}

// TestServerCrashRestartKeepsAckedWrites is the end-to-end kill-mid-
// stream drill: acked writes before a crash op must be served again
// after reboot from the captured image.
func TestServerCrashRestartKeepsAckedWrites(t *testing.T) {
	db := openDB(t, openStore(t))
	_, addr, down := startServer(t, db)
	c := dial(t, addr)
	for i := 0; i < 10; i++ {
		resp := c.do(t, kv.Request{Op: "put", Key: fmt.Sprintf("k%d", i), Val: fmt.Sprintf("v%d", i)})
		if !resp.OK {
			t.Fatalf("put %d: %+v", i, resp)
		}
	}
	if resp := c.do(t, kv.Request{Op: "crash"}); !resp.OK {
		t.Fatalf("crash: %+v", resp)
	}
	d := <-down
	if d.clean {
		t.Fatal("crash reported as clean shutdown")
	}

	st2, rep, err := store.Reboot(d.img, store.Options{})
	if err != nil {
		t.Fatalf("reboot: %v (%+v)", err, rep)
	}
	db2 := openDB(t, st2)
	_, addr2, _ := startServer(t, db2)
	c2 := dial(t, addr2)
	for i := 0; i < 10; i++ {
		resp := c2.do(t, kv.Request{Op: "get", Key: fmt.Sprintf("k%d", i)})
		if !resp.OK || !resp.Found || resp.Val != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d after crash+reboot: %+v", i, resp)
		}
	}
}

func TestServerQuitIsCleanShutdown(t *testing.T) {
	db := openDB(t, openStore(t))
	_, addr, down := startServer(t, db)
	c := dial(t, addr)
	c.do(t, kv.Request{Op: "put", Key: "k", Val: "v"})
	if resp := c.do(t, kv.Request{Op: "quit"}); !resp.OK {
		t.Fatalf("quit: %+v", resp)
	}
	d := <-down
	if !d.clean {
		t.Fatal("quit reported as crash")
	}
	st2, _, err := store.Reboot(d.img, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2 := openDB(t, st2)
	if v, ok, _ := db2.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("value lost across clean shutdown: (%q,%v)", v, ok)
	}
}

// TestServerReadOnlyDegradationServesReads retires a namespace
// gracefully: with the media degraded to read-only (spare pool
// exhausted), gets and stats keep serving, writes come back as typed
// "readonly" refusals rather than connection errors, and quit still
// checkpoints and reports a clean shutdown.
func TestServerReadOnlyDegradationServesReads(t *testing.T) {
	st, err := store.Open(store.Options{
		Capacity: capacity,
		Params:   engine.Params{UpdateLimit: 16, QueueEntries: 64},
		Faults:   &nvm.FaultModel{SpareLines: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := openDB(t, st)
	_, addr, down := startServer(t, db)
	c := dial(t, addr)

	if resp := c.do(t, kv.Request{Op: "put", Key: "k", Val: "v"}); !resp.OK {
		t.Fatalf("healthy put: %+v", resp)
	}
	// Consume the single spare: the pure-function health machine flips
	// to read-only on the very next admission check.
	if err := st.Device().Remap(st.Device().Snapshot().Store.Addrs()[0], true); err != nil {
		t.Fatal(err)
	}
	if st.Health() != store.HealthReadOnly {
		t.Fatalf("health = %v after pool exhaustion", st.Health())
	}

	if resp := c.do(t, kv.Request{Op: "get", Key: "k"}); !resp.OK || !resp.Found || resp.Val != "v" {
		t.Fatalf("read-only get: %+v", resp)
	}
	if resp := c.do(t, kv.Request{Op: "stats"}); !resp.OK || resp.Stats == nil || resp.Stats.Ladder != kv.LadderReadOnly {
		t.Fatalf("read-only stats: %+v", resp)
	}
	resp := c.do(t, kv.Request{Op: "put", Key: "k2", Val: "x"})
	if resp.OK || resp.Code != kv.CodeReadOnly {
		t.Fatalf("read-only put not typed: %+v", resp)
	}
	resp = c.do(t, kv.Request{Op: "batch", Ops: []kv.RequestOp{{Op: "put", Key: "k3", Val: "y"}}})
	if resp.OK || resp.Code != kv.CodeReadOnly {
		t.Fatalf("read-only batch not typed: %+v", resp)
	}

	if resp := c.do(t, kv.Request{Op: "quit"}); !resp.OK {
		t.Fatalf("read-only quit: %+v", resp)
	}
	if d := <-down; !d.clean {
		t.Fatal("read-only quit reported as crash")
	}
}

// openBenchDB is a namespace over the 256 MiB store the benchmark's
// kv_put and kv_get run on: fresh keys only ever grow the log.
func openBenchDB(b *testing.B) *kv.DB {
	st, err := store.Open(store.Options{
		Capacity: 256 << 20,
		Params:   engine.Params{UpdateLimit: 16, QueueEntries: 64},
	})
	if err != nil {
		b.Fatal(err)
	}
	return openDB(b, st)
}

// BenchmarkServerBatchPut drives the kvd assembly over loopback in the
// repo benchmark's kv_put shape — 2 connections, closed loop, batches
// of 4 fresh-key 64 B puts — so `make profile-kv` can profile the
// serving path with plain go tooling. One iteration is one batch. It is
// a profiling harness; throughput claims come from benchmark/.
func BenchmarkServerBatchPut(b *testing.B) {
	const conns, batchOps, valBytes = 2, 4, 64
	_, addr, _ := startServer(b, openBenchDB(b))
	val := strings.Repeat("v", valBytes)

	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		cl := dial(b, addr)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < b.N; i += conns {
				req := kv.Request{Op: "batch", Ops: make([]kv.RequestOp, batchOps)}
				for j := range req.Ops {
					key := fmt.Sprintf("%016x", mem.Mix64(uint64(i*batchOps+j)))
					req.Ops[j] = kv.RequestOp{Op: "put", Key: key, Val: val}
				}
				if resp, err := cl.roundTrip(req); err != nil || !resp.OK {
					b.Errorf("batch %d: %+v, %v", i, resp, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// BenchmarkServerGet is the same assembly on the read path, in the
// kv_get shape: 2 connections, closed loop, uniform gets over 100k
// preloaded keys of 128 B values (past the metadata cache's reach, so
// ReadBlock verifies with BMT misses). One iteration is one get; point
// `make profile-kv` at it with KV_BENCH=ServerGet.
func BenchmarkServerGet(b *testing.B) {
	const conns, keys, valBytes, preloadBatch = 2, 100000, 128, 16
	db := openBenchDB(b)
	key := func(i int) string { return fmt.Sprintf("%016x", mem.Mix64(uint64(i))) }
	val := strings.Repeat("v", valBytes)
	for lo := 0; lo < keys; lo += preloadBatch {
		ops := make([]kv.Op, preloadBatch)
		for j := range ops {
			ops[j] = kv.Op{Kind: kv.OpPut, Key: []byte(key(lo + j)), Val: []byte(val)}
		}
		if err := db.Batch(ops); err != nil {
			b.Fatal(err)
		}
	}
	_, addr, _ := startServer(b, db)

	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		cl := dial(b, addr)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < b.N; i += conns {
				k := key(int(mem.Mix64(uint64(i)+1<<40) % keys))
				if resp, err := cl.roundTrip(kv.Request{Op: "get", Key: k}); err != nil || !resp.Found || resp.Val != val {
					b.Errorf("get %s: %+v, %v", k, resp, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
