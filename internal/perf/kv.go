package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"syscall"
	"time"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/store"
)

// KVOptions parameterize the KV serving measurement: an in-process
// ccnvm-kvd equivalent (the same kv.Server over a fresh secure store)
// is driven over loopback TCP by Conns concurrent connections.
type KVOptions struct {
	Conns      int    // concurrent client connections (0 = 1024)
	OpsPerConn int    // batch requests per connection (0 = 8)
	Batch      int    // puts per batch request (0 = 4)
	ValBytes   int    // value size in bytes (0 = 64)
	Design     string // 0 = the paper's design
	Capacity   uint64 // data-region bytes (0 = 64 MiB)
}

func (o *KVOptions) fill() {
	if o.Conns <= 0 {
		o.Conns = 1024
	}
	if o.OpsPerConn <= 0 {
		o.OpsPerConn = 8
	}
	if o.Batch <= 0 {
		o.Batch = 4
	}
	if o.ValBytes <= 0 {
		o.ValBytes = 64
	}
	if o.Design == "" {
		o.Design = design.CCNVM
	}
	if o.Capacity == 0 {
		o.Capacity = 64 << 20
	}
}

// KVPerf is the KV serving row of the ledger: end-to-end throughput
// and tail latency of batched writes through the JSON-lines protocol,
// the storage-engine facade and the full secure-NVM write path.
type KVPerf struct {
	Design      string  `json:"design"`
	Conns       int     `json:"conns"`
	OpsPerConn  int     `json:"ops_per_conn"`
	Batch       int     `json:"batch"`
	ValBytes    int     `json:"val_bytes"`
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"` // acked batch requests / second
	P50us       float64 `json:"p50_us"`
	P99us       float64 `json:"p99_us"`
	P999us      float64 `json:"p999_us"`
}

// RaiseNoFile lifts the soft fd limit to the hard one so thousand-
// connection measurements don't trip the default 1024.
func RaiseNoFile() {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err == nil && lim.Cur < lim.Max {
		lim.Cur = lim.Max
		syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim)
	}
}

// MeasureKV serves one KV namespace over loopback and slams it with
// o.Conns concurrent batch writers, timing every request. The store,
// server and clients all live in this process, so the number reflects
// the full stack above the wire — JSON framing, group commit, epoch
// flushes, BMT updates — without kernel scheduling across machines.
func MeasureKV(o KVOptions) (*KVPerf, error) {
	o.fill()
	RaiseNoFile()

	st, err := store.Open(store.Options{
		Design:   o.Design,
		Capacity: o.Capacity,
		Params:   engine.Params{UpdateLimit: 16, QueueEntries: 64},
	})
	if err != nil {
		return nil, err
	}
	db, err := kv.Open(st, kv.Options{})
	if err != nil {
		return nil, err
	}
	srv := kv.NewServer(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	type result struct {
		lat    []time.Duration
		acked  int
		errors int
	}
	results := make([]result, o.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < o.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			c, err := net.Dial("tcp", addr)
			if err != nil {
				r.errors++
				return
			}
			defer c.Close()
			br := bufio.NewReader(c)
			val := make([]byte, o.ValBytes)
			for b := range val {
				val[b] = byte('a' + (i+b)%26)
			}
			for j := 0; j < o.OpsPerConn; j++ {
				req := kv.Request{Op: "batch"}
				for b := 0; b < o.Batch; b++ {
					req.Ops = append(req.Ops, kv.RequestOp{
						Op:  "put",
						Key: fmt.Sprintf("c%d-j%d-b%d", i, j, b),
						Val: string(val),
					})
				}
				buf, err := json.Marshal(req)
				if err != nil {
					r.errors++
					return
				}
				t0 := time.Now()
				if _, err := c.Write(append(buf, '\n')); err != nil {
					r.errors++
					return
				}
				line, err := br.ReadBytes('\n')
				if err != nil {
					r.errors++
					return
				}
				var resp kv.Response
				if err := json.Unmarshal(line, &resp); err != nil || !resp.OK {
					r.errors++
					continue
				}
				r.lat = append(r.lat, time.Since(t0))
				r.acked++
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	srv.Close()
	if err := <-served; err != nil {
		return nil, err
	}

	p := &KVPerf{
		Design: o.Design, Conns: o.Conns, OpsPerConn: o.OpsPerConn,
		Batch: o.Batch, ValBytes: o.ValBytes, WallSeconds: wall,
	}
	var all []time.Duration
	for _, r := range results {
		all = append(all, r.lat...)
		p.Requests += r.acked
		p.Errors += r.errors
	}
	if p.Errors > 0 {
		return nil, fmt.Errorf("perf: kv measurement had %d request errors (%d acked)", p.Errors, p.Requests)
	}
	if wall > 0 {
		p.OpsPerSec = float64(p.Requests) / wall
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p.P50us = percentileUS(all, 0.50)
	p.P99us = percentileUS(all, 0.99)
	p.P999us = percentileUS(all, 0.999)
	return p, nil
}

func percentileUS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i].Microseconds())
}
