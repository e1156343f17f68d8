// Command ccnvm-kvload is the concurrent client harness for
// ccnvm-kvd: it opens -conns TCP connections, drives batched writes
// (and optionally point reads) through the JSON-lines protocol, and
// reports throughput plus p50/p99/p999 request latency.
//
// It is also the durability auditor for the kill-mid-batch drill.
// With -log FILE every batch is journaled client-side — an "A" line
// (attempted) flushed before the request is sent, a "C" line
// (committed) after the server acknowledges it. With -crash,
// connection 0 injects a simulated power failure halfway through its
// stream. After the daemon restarts from its image, a second run with
// -verify FILE replays the journal against the recovered namespace
// and enforces the two crash-consistency oracles from the client's
// side of the wire:
//
//   - acked-durable: every key of every "C" batch is served;
//   - batch-atomic: an attempted, unacknowledged batch is either fully
//     visible (committed but the ack was lost to the crash) or fully
//     invisible — never partial.
//
// Requests that the server refuses with a typed retriable code
// ("readonly", "full" — the degradation ladder's refusal rungs) or that
// fail on a transient connection error are retried with exponential
// backoff plus jitter, bounded by -retries attempts and a per-request
// -deadline; the summary counts the retries. Batches are idempotent
// (fixed keys and values per slot), so a resend after a lost ack cannot
// double-apply.
//
// Exit status: 0 ok, 1 setup/usage error, 2 verification failure.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"ccnvm/internal/kv"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "kvd address")
	conns := flag.Int("conns", 64, "concurrent connections")
	ops := flag.Int("ops", 100, "requests per connection")
	batch := flag.Int("batch", 1, "puts per batch request")
	valBytes := flag.Int("valbytes", 64, "value size in bytes")
	getFrac := flag.Float64("getfrac", 0, "fraction of requests that are point reads")
	seed := flag.Int64("seed", 1, "workload seed")
	logPath := flag.String("log", "", "journal attempted/committed batches to this file")
	verifyPath := flag.String("verify", "", "verify a journal against the namespace instead of loading")
	crash := flag.Bool("crash", false, "connection 0 injects a power failure mid-stream")
	quit := flag.Bool("quit", false, "send a clean-shutdown quit op after the run")
	retries := flag.Int("retries", 4, "max attempts per request on retriable refusals (readonly/full) and transient connection errors")
	deadline := flag.Duration("deadline", 2*time.Second, "per-request deadline spanning all retry attempts")
	jsonOut := flag.Bool("json", false, "emit the summary as JSON")
	flag.Parse()

	raiseNoFile()
	var err error
	if *verifyPath != "" {
		err = verify(*addr, *conns, *verifyPath)
	} else {
		err = load(*addr, *conns, *ops, *batch, *valBytes, *getFrac, *seed, *logPath, *crash, *quit, *jsonOut, *retries, *deadline)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccnvm-kvload:", err)
		os.Exit(1)
	}
}

// raiseNoFile lifts the soft fd limit to the hard one so thousand-
// connection runs don't trip the default 1024.
func raiseNoFile() {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err == nil && lim.Cur < lim.Max {
		lim.Cur = lim.Max
		syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim)
	}
}

// journal serializes the client-side batch log.
type journal struct {
	mu sync.Mutex
	w  *bufio.Writer
	f  *os.File
}

func (j *journal) record(tag string, keys []string) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := fmt.Fprintf(j.w, "%s %s\n", tag, strings.Join(keys, ",")); err != nil {
		return err
	}
	// Attempt lines must hit the file before the request hits the
	// wire, or a crash could make an applied batch look never-sent.
	return j.w.Flush()
}

func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.w.Flush()
	return j.f.Close()
}

// conn wraps one JSON-lines connection.
type conn struct {
	c net.Conn
	r *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReader(c)}, nil
}

// do keeps encoding/json on the client side on purpose: it is the
// independent check that what the server appends still parses.
func (c *conn) do(req kv.Request) (kv.Response, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return kv.Response{}, err
	}
	if _, err := c.c.Write(append(b, '\n')); err != nil {
		return kv.Response{}, err
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return kv.Response{}, err
	}
	var resp kv.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return kv.Response{}, err
	}
	return resp, nil
}

// workerResult is one connection's tally.
type workerResult struct {
	lat     []time.Duration
	acked   int
	errors  int
	retries int
	crashed bool
}

// Summary is the run report.
type Summary struct {
	Conns     int     `json:"conns"`
	Requests  int     `json:"requests"`
	Acked     int     `json:"acked"`
	Errors    int     `json:"errors"`
	Retries   int     `json:"retries,omitzero"`
	Crashed   bool    `json:"crashed,omitempty"`
	Millis    int64   `json:"duration_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
	P999us    float64 `json:"p999_us"`
}

func load(addr string, conns, ops, batch, valBytes int, getFrac float64, seed int64, logPath string, crash, quit, jsonOut bool, retries int, deadline time.Duration) error {
	var jn *journal
	if logPath != "" {
		f, err := os.Create(logPath)
		if err != nil {
			return err
		}
		jn = &journal{w: bufio.NewWriter(f), f: f}
		defer jn.close()
	}

	results := make([]workerResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = worker(addr, i, ops, batch, valBytes, getFrac, seed, jn, crash && i == 0, retries, deadline)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	s := Summary{Conns: conns, Millis: elapsed.Milliseconds()}
	for _, r := range results {
		all = append(all, r.lat...)
		s.Acked += r.acked
		s.Errors += r.errors
		s.Retries += r.retries
		s.Crashed = s.Crashed || r.crashed
	}
	s.Requests = len(all)
	if elapsed > 0 {
		s.OpsPerSec = float64(s.Acked) / elapsed.Seconds()
	}
	slices.Sort(all)
	s.P50us = pctUS(all, 0.50)
	s.P99us = pctUS(all, 0.99)
	s.P999us = pctUS(all, 0.999)

	if quit && !s.Crashed {
		c, err := dial(addr)
		if err != nil {
			return fmt.Errorf("quit dial: %w", err)
		}
		if resp, err := c.do(kv.Request{Op: "quit"}); err != nil || !resp.OK {
			return fmt.Errorf("quit: %+v %v", resp, err)
		}
		c.c.Close()
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	}
	fmt.Printf("%d conns, %d requests, %d acked, %d errors, %d retries in %v\n", s.Conns, s.Requests, s.Acked, s.Errors, s.Retries, elapsed.Round(time.Millisecond))
	fmt.Printf("throughput %.0f ops/sec, latency p50 %.0fus p99 %.0fus p999 %.0fus\n", s.OpsPerSec, s.P50us, s.P99us, s.P999us)
	if s.Crashed {
		fmt.Println("power failure injected: restart the daemon and re-run with -verify")
	}
	return nil
}

func pctUS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i].Microseconds())
}

// retriable reports whether a typed refusal code is worth retrying: the
// ladder's refusal rungs can clear (a compaction pass frees log space;
// an operator can retire a read-only daemon and restart it), so the
// client backs off instead of failing the workload on first refusal.
func retriable(code string) bool {
	return code == kv.CodeReadOnly || code == kv.CodeFull
}

// doRetry issues one request with the retry policy: up to attempts
// tries, exponential backoff with jitter between them, all bounded by
// one per-request deadline. A transient transport error tears the
// connection down and redials; a retriable refusal keeps it. The final
// refusal (or transport error) is handed back once the budget runs out.
// *cp may be swapped for a fresh connection or nil on return.
func doRetry(cp **conn, addr string, req kv.Request, attempts int, deadline time.Duration, rng *rand.Rand) (kv.Response, int, error) {
	if attempts < 1 {
		attempts = 1
	}
	dl := time.Now().Add(deadline)
	backoff := 2 * time.Millisecond
	retried := 0
	for attempt := 1; ; attempt++ {
		var resp kv.Response
		err := fmt.Errorf("connection down")
		if *cp != nil {
			(*cp).c.SetDeadline(dl)
			resp, err = (*cp).do(req)
		}
		if err == nil && (resp.OK || !retriable(resp.Code)) {
			return resp, retried, nil
		}
		if err != nil && *cp != nil {
			(*cp).c.Close()
			*cp = nil
		}
		sleep := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
		if attempt >= attempts || time.Now().Add(sleep).After(dl) {
			return resp, retried, err
		}
		time.Sleep(sleep)
		backoff *= 2
		retried++
		if *cp == nil {
			if nc, derr := dial(addr); derr == nil {
				*cp = nc
			}
		}
	}
}

func worker(addr string, id, ops, batch, valBytes int, getFrac float64, seed int64, jn *journal, crasher bool, retries int, deadline time.Duration) workerResult {
	var res workerResult
	rng := rand.New(rand.NewSource(seed + int64(id)*7919))
	c, err := dial(addr)
	if err != nil {
		res.errors++
		return res
	}
	defer func() {
		if c != nil {
			c.c.Close()
		}
	}()

	var ackedKeys []string
	for j := 0; j < ops; j++ {
		if crasher && j == ops/2 {
			if c != nil {
				if _, err := c.do(kv.Request{Op: "crash"}); err == nil {
					res.crashed = true
				}
			}
			return res
		}
		var req kv.Request
		var keys []string
		if len(ackedKeys) > 0 && rng.Float64() < getFrac {
			req = kv.Request{Op: "get", Key: ackedKeys[rng.Intn(len(ackedKeys))]}
		} else {
			req = kv.Request{Op: "batch"}
			for b := 0; b < batch; b++ {
				k := fmt.Sprintf("c%d-b%d-k%d", id, j, b)
				keys = append(keys, k)
				req.Ops = append(req.Ops, kv.RequestOp{Op: "put", Key: k, Val: randVal(rng, valBytes)})
			}
			if err := jn.record("A", keys); err != nil {
				res.errors++
				return res
			}
		}
		t0 := time.Now()
		resp, retried, err := doRetry(&c, addr, req, retries, deadline, rng)
		res.retries += retried
		if err != nil {
			// Connection gone for good (e.g. an injected crash):
			// everything in flight was unacknowledged by definition.
			res.errors++
			return res
		}
		res.lat = append(res.lat, time.Since(t0))
		if resp.OK {
			res.acked++
			if keys != nil {
				jn.record("C", keys)
				ackedKeys = append(ackedKeys, keys...)
			}
		} else {
			res.errors++
		}
	}
	return res
}

func randVal(rng *rand.Rand, n int) string {
	const hex = "0123456789abcdef"
	b := make([]byte, n)
	for i := range b {
		b[i] = hex[rng.Intn(len(hex))]
	}
	return string(b)
}

// verify replays a batch journal against the recovered namespace.
func verify(addr string, conns int, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type batchRec struct {
		keys  []string
		acked bool
	}
	var batches []batchRec
	index := map[string]int{} // first key -> batch
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		tag, rest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		keys := strings.Split(rest, ",")
		switch tag {
		case "A":
			index[keys[0]] = len(batches)
			batches = append(batches, batchRec{keys: keys})
		case "C":
			if i, ok := index[keys[0]]; ok {
				batches[i].acked = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	if conns < 1 {
		conns = 1
	}
	pool := make([]*conn, conns)
	for i := range pool {
		c, err := dial(addr)
		if err != nil {
			return err
		}
		defer c.c.Close()
		pool[i] = c
	}

	var lostAcked, partial, applied, invisible int
	for i, b := range batches {
		c := pool[i%conns]
		present := 0
		for _, k := range b.keys {
			resp, err := c.do(kv.Request{Op: "get", Key: k})
			if err != nil {
				return fmt.Errorf("get %s: %w", k, err)
			}
			if resp.Found {
				present++
			}
		}
		switch {
		case present == len(b.keys):
			applied++
		case present == 0 && !b.acked:
			invisible++
		case b.acked:
			lostAcked++
			fmt.Fprintf(os.Stderr, "LOST ACKED: batch %v has %d/%d keys\n", b.keys, present, len(b.keys))
		default:
			partial++
			fmt.Fprintf(os.Stderr, "PARTIAL BATCH: %v has %d/%d keys\n", b.keys, present, len(b.keys))
		}
	}
	fmt.Printf("verified %d batches: %d applied, %d invisible (unacked), %d lost-acked, %d partial\n",
		len(batches), applied, invisible, lostAcked, partial)
	if lostAcked > 0 || partial > 0 {
		os.Exit(2)
	}
	return nil
}
