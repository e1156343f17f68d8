package main

import (
	"fmt"
	"net"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/nvm"
	"ccnvm/internal/store"
)

// engineParams is the machine every workload runs: the paper's N=16,
// M=64, as ccnvm-kvd defaults to.
var engineParams = engine.Params{UpdateLimit: 16, QueueEntries: 64}

// stack is the ccnvm-kvd assembly hosted in process: store.Open ->
// kv.Open -> kv.NewServer on a loopback listener.
type stack struct {
	st     *store.Store
	db     *kv.DB
	srv    *kv.Server
	addr   string
	served chan error
}

// openStack builds a fresh cc-NVM stack of the given data capacity,
// applies the preload in process and starts serving. cap, when not
// nil, observes the data lines written from here on and keeps the
// lines of each preload batch apart.
func openStack(capacity uint64, preload [][]kv.Op, cap *capture) (*stack, error) {
	st, err := store.Open(store.Options{Design: design.CCNVM, Capacity: capacity, Params: engineParams})
	if err != nil {
		return nil, err
	}
	if cap != nil {
		cap.lay = st.Layout()
		st.SetEventTap(cap.tap)
	}
	db, err := kv.Open(st, kv.Options{})
	if err != nil {
		return nil, err
	}
	for _, b := range preload {
		if err := db.Batch(b); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		if cap != nil {
			cap.batches = append(cap.batches, cap.take())
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stack{st: st, db: db, srv: kv.NewServer(db), addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the listener and waits for the server to return; client
// connections must already be closed.
func (s *stack) stop() error {
	s.srv.Close()
	return <-s.served
}

// counters is every public counter of the layers below the wire, read
// while no request is in flight.
type counters struct {
	kv      kv.Stats
	ctrl    store.ControllerStats
	sec     engine.SecStats
	writes  nvm.WriteBreakdown
	reads   uint64
	now     int64
	refused uint64
}

func (s *stack) counters() counters {
	// CtrlStats takes the store's mutex, which orders the unlocked
	// engine and device reads below after every earlier store call.
	c := counters{ctrl: s.st.CtrlStats()}
	c.kv = s.db.Stats()
	c.sec = s.st.Engine().Stats()
	c.writes = s.st.Device().Writes()
	c.reads = s.st.Device().Reads()
	c.now = s.st.Now()
	c.refused = s.st.RefusedWrites()
	return c
}

// layerCounts turns the counter movement between two quiescent points
// into the per-op count metrics of the engine and device layers. They
// are the same for a hosted stack and for a simulated machine.
func layerCounts(out map[string]float64, sec0, sec1 engine.SecStats, w0, w1 nvm.WriteBreakdown, reads, wpqStalls, epochWrites uint64, ops float64) {
	d := func(a, b uint64) float64 { return float64(b - a) }
	hit := func(h0, h1, m0, m1 uint64) float64 { return ratio(d(h0, h1), d(h0, h1)+d(m0, m1)) }
	drains := d(sec0.Drains, sec1.Drains)
	out["engine.hmac_per_op"] = ratio(d(sec0.HMACOps, sec1.HMACOps), ops)
	out["engine.aes_per_op"] = ratio(d(sec0.AESOps, sec1.AESOps), ops)
	out["engine.drains_per_op"] = ratio(drains, ops)
	out["engine.drain_lines_per_drain"] = ratio(d(sec0.DrainLinesFlushed, sec1.DrainLinesFlushed), drains)
	out["engine.drain_queue_full"] = d(sec0.DrainQueueFull, sec1.DrainQueueFull)
	out["engine.drain_evict"] = d(sec0.DrainEvict, sec1.DrainEvict)
	out["engine.drain_update_limit"] = d(sec0.DrainUpdateLimit, sec1.DrainUpdateLimit)
	out["engine.wb_stalls"] = d(sec0.WritebackBufferStalls, sec1.WritebackBufferStalls)
	out["engine.counter_overflows"] = d(sec0.CounterOverflows, sec1.CounterOverflows)
	out["engine.integrity_violations"] = d(sec0.IntegrityViolations, sec1.IntegrityViolations)
	out["engine.pad_hit_ratio"] = hit(sec0.PadCacheHits, sec1.PadCacheHits, sec0.PadCacheMisses, sec1.PadCacheMisses)
	out["engine.data_hit_ratio"] = hit(sec0.DataMemoHits, sec1.DataMemoHits, sec0.DataMemoMisses, sec1.DataMemoMisses)
	out["engine.node_hit_ratio"] = hit(sec0.NodeMemoHits, sec1.NodeMemoHits, sec0.NodeMemoMisses, sec1.NodeMemoMisses)
	hits := d(sec0.PadCacheHits+sec0.DataMemoHits+sec0.NodeMemoHits+sec0.DefaultLineHits,
		sec1.PadCacheHits+sec1.DataMemoHits+sec1.NodeMemoHits+sec1.DefaultLineHits)
	misses := d(sec0.PadCacheMisses+sec0.DataMemoMisses+sec0.NodeMemoMisses+sec0.DefaultLineMisses,
		sec1.PadCacheMisses+sec1.DataMemoMisses+sec1.NodeMemoMisses+sec1.DefaultLineMisses)
	out["engine.memo_hit_ratio"] = ratio(hits, hits+misses)
	out["nvm.writes_data_per_op"] = ratio(d(w0.Data, w1.Data), ops)
	out["nvm.writes_hmac_per_op"] = ratio(d(w0.HMAC, w1.HMAC), ops)
	out["nvm.writes_counter_per_op"] = ratio(d(w0.Counter, w1.Counter), ops)
	out["nvm.writes_tree_per_op"] = ratio(d(w0.Tree, w1.Tree), ops)
	out["nvm.reads_per_op"] = ratio(float64(reads), ops)
	out["nvm.wpq_full_stalls"] = float64(wpqStalls)
	out["nvm.epoch_writes_per_op"] = ratio(float64(epochWrites), ops)
}

// explicitDrains is the epoch drains between two points that no engine
// trigger caused: the ones FlushEpoch asked for.
func explicitDrains(a, b engine.SecStats) float64 {
	return float64((b.Drains - a.Drains) - (b.DrainQueueFull - a.DrainQueueFull) -
		(b.DrainEvict - a.DrainEvict) - (b.DrainUpdateLimit - a.DrainUpdateLimit))
}
