package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"time"

	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
)

// kvWorkload is one traffic mix against the hosted stack.
type kvWorkload struct {
	name     string
	capacity uint64 // data-region bytes of the fresh store each round gets
	open     bool   // open loop on a fixed schedule; closed loop otherwise
	rate     float64
	span     time.Duration // open loop: the schedule's length per round
	slices   int           // stretches a round's load is driven in, the host's speed read between them
	quiet    bool          // the space-pressure ladder must stay silent
	gen      func(seed int64, round int) *input
}

func kvWorkloads(z sizes) map[string]kvWorkload {
	return map[string]kvWorkload{
		wlPut: {name: wlPut, capacity: 256 << 20, quiet: true, slices: z.slices,
			gen: func(seed int64, round int) *input {
				return genPut(seed, round, z.conns, z.putPerConn, 4, 64)
			}},
		wlGet: {name: wlGet, capacity: 256 << 20, quiet: true, slices: z.slices,
			gen: func(seed int64, round int) *input {
				return genGet(seed, round, z.conns, z.getPerConn, z.getKeys, 128)
			}},
		wlChurn: {name: wlChurn, capacity: 512 << 10, open: true, rate: z.churnRate, span: z.churnRound, slices: z.churnSlices,
			gen: func(seed int64, round int) *input {
				return genChurn(seed, round, z.conns, z.churnRate, z.churnRound, 64, 1024)
			}},
	}
}

// round is one set-up plus one load pass.
type round struct {
	in        *input
	s         *stack
	setup     time.Duration
	setupCorr float64 // seconds: the set-up with the host's slowdown divided out, see calib.go
	load      loadResult
	slices    []slice // the pass in short stretches, each with its own slowdown
	open      bool
	c0, c1    counters
}

// runRound sets a fresh stack up from the round's generated input and
// drives the load over it. streams selects how many of the input's
// connection streams take part; closed forces a closed loop. The
// caller stops the stack.
func runRound(w kvWorkload, cfg config, idx, streams int, closed bool) (*round, error) {
	runtime.GC() // the previous round's stack goes before this one is built, so the peak is one stack
	// Set-up is two intervals to the host-speed correction: generating
	// the input, and building and preloading the stack.
	cfg.speed.since()
	t0 := time.Now()
	r := &round{in: w.gen(cfg.seed, idx)}
	gen, genSlow := time.Since(t0), cfg.speed.since()
	t1 := time.Now()
	s, err := openStack(w.capacity, r.in.preload, nil)
	if err != nil {
		return nil, err
	}
	r.s = s
	conns, err := dial(s.addr, streams)
	if err != nil {
		s.stop()
		return nil, err
	}
	defer closeAll(conns)
	build := time.Since(t1)
	// Set-up garbage is collected now so that the collector does not run
	// on the timed pass's cores.
	runtime.GC()
	r.setup = gen + build
	r.setupCorr = gen.Seconds()/genSlow + build.Seconds()/cfg.speed.since()
	r.c0 = s.counters()
	var span time.Duration
	if r.open = w.open && !closed; r.open {
		span = w.span
	}
	r.load, r.slices = runSliced(conns, r.in.conns[:streams], w.slices, span, cfg.speed)
	r.c1 = s.counters()
	return r, nil
}

// crashAndRecover ends the round: its stack is crashed and recovered.
// The round lets go of the stack and the input first, so that the
// restarts, like real ones, do not share memory with the process that
// crashed.
func (r *round) crashAndRecover(cfg config) (recovery, error) {
	s, in := r.s, r.in
	r.s, r.in = nil, nil
	return crashAndRecover(s, cfg.tmp, cfg.sizes, cfg.speed, in)
}

// ladderMoved reports any activity of the space-pressure ladder or the
// compactor during the round.
func (r *round) ladderMoved() bool {
	a, b := r.c0.kv.Stall, r.c1.kv.Stall
	return a != b || r.passes() != 0
}

func passesOf(s kv.Stats) (passes, freed, reclaimed uint64) {
	if c := s.Compaction; c != nil {
		return c.Passes, c.FreedBytes, c.ReclaimedLines
	}
	return 0, 0, 0
}

func (r *round) passes() uint64 {
	p0, _, _ := passesOf(r.c0.kv)
	p1, _, _ := passesOf(r.c1.kv)
	return p1 - p0
}

// endToEndOf computes the round's end-to-end values (all but recovery
// and memory, which are not per round), and the same values as
// measured, before the host's speed is divided out. Throughput and
// latency are the medians over the round's slices, each corrected by
// its own slowdown; an open loop's throughput is paced by the clock,
// not by the host, and is not corrected.
func (r *round) endToEndOf(notes map[string]any) (corrected, measured map[string]float64) {
	acked := float64(r.load.acked())
	lat := sortedMicros(r.load.lat)
	p50, _ := percentile(lat, 0.5)
	tl, q := tail(lat)
	notes["lat_tail_us"], notes["lat_tail_percentile"] = tl, q
	notes["lat_samples_per_round"] = len(lat)
	lines := float64(r.c1.writes.Total()-r.c0.writes.Total()) + float64(r.c1.reads-r.c0.reads)
	measured = map[string]float64{
		"setup_s":    r.setup.Seconds(),
		"ops_per_s":  ratio(acked, r.load.wall.Seconds()),
		"lat_p50_us": p50,
	}
	corrected = map[string]float64{
		"setup_s":           r.setupCorr,
		"nvm_lines_per_op":  ratio(lines, acked),
		"sim_cycles_per_op": ratio(float64(r.c1.now-r.c0.now), acked),
	}
	var ops, p50s []float64
	for _, s := range r.slices {
		ops = append(ops, s.opsPerS*s.slow)
		p50s = append(p50s, s.p50/s.slow)
	}
	corrected["ops_per_s"], corrected["lat_p50_us"] = median(ops), median(p50s)
	if r.open {
		corrected["ops_per_s"] = measured["ops_per_s"]
	}
	return corrected, measured
}

// layersOf computes the round's counter-based per-layer values.
func (r *round) layersOf() map[string]float64 {
	out := make(map[string]float64)
	acked := float64(r.load.acked())
	k0, k1 := r.c0.kv, r.c1.kv
	layerCounts(out, r.c0.sec, r.c1.sec, r.c0.writes, r.c1.writes, r.c1.reads-r.c0.reads,
		r.c1.ctrl.WPQFullStalls-r.c0.ctrl.WPQFullStalls, r.c1.ctrl.EpochWrites-r.c0.ctrl.EpochWrites, acked)
	_, wear := r.s.st.Device().MaxWear()
	out["nvm.max_wear"] = float64(wear)
	out["server.req_bytes"] = ratio(float64(r.load.reqBytes), float64(r.load.attempted-r.load.failed))
	out["server.resp_bytes"] = ratio(float64(r.load.respBytes), float64(r.load.attempted-r.load.failed))
	out["kv.batches_per_flush"] = ratio(float64(k1.Batches-k0.Batches), explicitDrains(r.c0.sec, r.c1.sec))
	out["kv.log_bytes_per_user_byte"] = ratio(float64(r.c1.writes.Data-r.c0.writes.Data)*mem.LineSize, float64(r.in.userBytes()))
	p0, f0, l0 := passesOf(k0)
	p1, f1, l1 := passesOf(k1)
	out["kv.compact_passes"] = float64(p1 - p0)
	out["kv.compact_freed_bytes_per_pass"] = ratio(float64(f1-f0), float64(p1-p0))
	out["kv.reclaimed_lines"] = float64(l1 - l0)
	out["kv.stall_ms"] = float64(k1.Stall.StallNanos-k0.Stall.StallNanos) / 1e6
	out["kv.slowdowns"] = float64(k1.Stall.Slowdowns - k0.Stall.Slowdowns)
	out["kv.backpressure_waits"] = float64(k1.Stall.BackpressureWaits - k0.Stall.BackpressureWaits)
	out["kv.capacity_stops"] = float64(k1.Stall.CapacityStops - k0.Stall.CapacityStops)
	out["kv.readonly_stops"] = float64(k1.Stall.ReadOnlyStops - k0.Stall.ReadOnlyStops)
	out["store.refused_writes"] = float64(r.c1.refused - r.c0.refused)
	if len(r.load.late) > 0 {
		late := sortedMicros(r.load.late)
		over := sort.SearchFloat64s(late, float64(lateLimit/time.Microsecond)+1e-9)
		out["gen.late_share"] = float64(len(late)-over) / float64(len(late))
		out["gen.late_p99_us"], _ = percentile(late, 0.99)
	}
	out["load.lat_tail_us"], _ = tail(sortedMicros(r.load.lat))
	return out
}

// medians folds per-round metric maps into one, key by key.
func medians(rounds []map[string]float64) map[string]float64 {
	by := make(map[string][]float64)
	for _, r := range rounds {
		for k, v := range r {
			by[k] = append(by[k], v)
		}
	}
	out := make(map[string]float64, len(by))
	for k, vs := range by {
		out[k] = median(vs)
	}
	return out
}

// runKV is the untraced run: warm-up and measured rounds, each on a
// fresh stack, then crash and recovery of the last round's stack.
func runKV(w kvWorkload, cfg config, res *result) error {
	z := cfg.sizes
	var perRound, asMeasured []map[string]float64
	var last *round
	for i := 0; i < z.warm+z.rounds; i++ {
		last = nil // lets the collector have the previous round before the next is built
		r, err := runRound(w, cfg, i, z.conns, false)
		if err != nil {
			return err
		}
		res.Attempted += int64(r.load.attempted)
		res.Failed += int64(r.load.failed)
		if w.quiet && r.ladderMoved() {
			r.s.stop()
			return fmt.Errorf("%s: the space-pressure ladder moved in round %d: %+v, %d passes", w.name, i, r.c1.kv.Stall, r.passes())
		}
		if i >= z.warm {
			corrected, measured := r.endToEndOf(res.Notes)
			perRound, asMeasured = append(perRound, corrected), append(asMeasured, measured)
			res.Notes["input_digest"] = r.in.digest
		}
		if err := r.s.stop(); err != nil {
			return err
		}
		last = r
	}
	for k, v := range medians(perRound) {
		res.Metrics[k] = v
	}
	res.Notes["lat_samples"] = z.rounds * res.Notes["lat_samples_per_round"].(int)
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	rec, err := last.crashAndRecover(cfg)
	if err != nil {
		return err
	}
	res.Metrics["recover_ms"] = median(rec.total)
	measured := medians(asMeasured)
	measured["recover_ms"] = median(rec.measured)
	res.Notes["as_measured"] = measured
	return nil
}

// traceKV is the traced run: a shorter load pass for the counter-based
// layer metrics, a closed-loop pass at two connections where the
// workload's own shape is open, the layer replay, and the recovery
// split.
func traceKV(w kvWorkload, cfg config, res *result) error {
	z := cfg.sizes
	m := res.Metrics

	// The workload's own load shape: counters per layer.
	var perRound []map[string]float64
	var loadOps, loadMean []float64
	var last *round
	for i := 0; i < 1+z.traceRounds; i++ {
		last = nil
		r, err := runRound(w, cfg, i, z.conns, false)
		if err != nil {
			return err
		}
		res.Attempted += int64(r.load.attempted)
		res.Failed += int64(r.load.failed)
		if i >= 1 {
			perRound = append(perRound, r.layersOf())
			loadOps = append(loadOps, ratio(float64(r.load.acked()), r.load.wall.Seconds()))
			loadMean = append(loadMean, meanDur(r.load.lat))
		}
		if err := r.s.stop(); err != nil {
			return err
		}
		last = r
	}
	for k, v := range medians(perRound) {
		m[k] = v
	}

	// Closed-loop capacity at two connections, over one further round's
	// input: an open workload measures it here, a closed one already did.
	idx := 1 + z.traceRounds
	ops2, mean2 := median(loadOps), median(loadMean)
	m["load.utilization"] = 1
	if w.open {
		r, err := runRound(w, cfg, idx, z.conns, true)
		if err != nil {
			return err
		}
		res.Failed += int64(r.load.failed)
		ops2, mean2 = ratio(float64(r.load.acked()), r.load.wall.Seconds()), meanDur(r.load.lat)
		if err := r.s.stop(); err != nil {
			return err
		}
		m["load.utilization"] = ratio(w.rate, ops2)
	}

	one, err := replay(w, w.gen(cfg.seed, idx), cfg, res)
	if err != nil {
		return err
	}
	// One closed-loop client completes a request per request time.
	m["server.conc_gain"] = ratio(ops2, ratio(1e6, one))
	m["load.contention_us"] = mean2 - one

	rec, err := last.crashAndRecover(cfg)
	if err != nil {
		return err
	}
	m["store.image_load_ms"] = median(rec.load)
	m["store.reboot_ms"] = median(rec.reboot)
	m["kv.open_ms"] = median(rec.open)
	return nil
}

// replayChunk is how many ops one rung runs before the next rung takes
// its turn on the same ops.
const replayChunk = 250

// replay runs one client's stream at five entry points, each on a stack
// of its own set up from the same input: over TCP untraced (the
// single-client reference), then the four traced rungs of replay.go. It
// returns the reference's per-request time in microseconds.
func replay(w kvWorkload, in *input, cfg config, res *result) (untracedUS float64, err error) {
	m := res.Metrics
	reqs := in.conns[0]
	reqs = reqs[:min(len(reqs), cfg.sizes.replayOps)]
	n := len(reqs)
	p := &replayer{reqs: reqs, rec: newRecorder(), cap: &capture{},
		untraced: make([]time.Duration, 0, n), server: make([]time.Duration, 0, n),
		kv: make([]time.Duration, n), store: make([]time.Duration, n), engine: make([]time.Duration, n), lines: make([]opLines, n)}
	res.spans = p.rec

	var stacks [5]*stack
	for i := range stacks {
		var cap *capture
		if i == 2 {
			cap = p.cap
		}
		if stacks[i], err = openStack(w.capacity, in.preload, cap); err != nil {
			return 0, err
		}
		defer stacks[i].stop()
	}
	conns, err := dial(stacks[0].addr, 1)
	if err != nil {
		return 0, err
	}
	defer closeAll(conns)
	conns1, err := dial(stacks[1].addr, 1)
	if err != nil {
		return 0, err
	}
	defer closeAll(conns1)
	if m["server.ping_us"], err = ping(stacks[0].addr, cfg.sizes.pings); err != nil {
		return 0, err
	}

	// Where the preload put the values this stream reads.
	needed := make(map[string]bool)
	for i := range reqs {
		if reqs[i].isGet() {
			needed[reqs[i].req.Key] = true
		}
	}
	if len(needed) > 0 {
		p.where, p.live = make(map[string][]mem.Addr), make(map[string]string)
		for b, batch := range in.preload {
			vals := make(map[string]string)
			for _, op := range batch {
				p.live[string(op.Key)] = string(op.Val)
				if needed[string(op.Key)] {
					vals[string(op.Key)] = string(op.Val)
				}
			}
			if len(vals) == 0 {
				continue
			}
			at, err := locate(stacks[2].st, p.cap.batches[b], vals)
			if err != nil {
				return 0, err
			}
			for k, lines := range at {
				p.where[k] = lines
			}
		}
	}

	runtime.GC()
	c0 := stacks[0].counters()
	p.now = stacks[4].st.Now()
	tcp := func(c net.Conn, lo, hi int, rec *recorder, lat *[]time.Duration) error {
		r := closedLoop(c, reqs[lo:hi], rec, lo)
		if r.failed != 0 {
			return fmt.Errorf("replay: %d requests failed over TCP", r.failed)
		}
		*lat = append(*lat, r.lat...)
		return nil
	}
	for lo, odd := 0, false; lo < n; lo, odd = lo+replayChunk, !odd {
		hi := min(lo+replayChunk, n)
		// Whichever rung of a pair runs second finds the path warm, so
		// the pairs swap places from chunk to chunk.
		steps := []func() error{
			func() error { return tcp(conns[0], lo, hi, nil, &p.untraced) },
			func() error { return tcp(conns1[0], lo, hi, p.rec, &p.server) },
			func() error { return p.rungKV(stacks[2], lo, hi) },
			func() error { return p.rungStore(stacks[3].st, lo, hi) },
			func() error { return p.rungEngine(stacks[4].st, lo, hi) },
		}
		if odd {
			steps[0], steps[1] = steps[1], steps[0]
			steps[3], steps[4] = steps[4], steps[3]
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return 0, err
			}
		}
	}
	c1 := stacks[0].counters()
	if v := stacks[4].st.Engine().Stats().IntegrityViolations; v != 0 {
		return 0, fmt.Errorf("replay: %d integrity violations at the engine rung", v)
	}
	p.rec.linkRungs()

	m0 := chunkMedian(p.untraced, reqs, nil)
	m1, m2, m3, m4 := chunkMedian(p.server, reqs, nil), chunkMedian(p.kv, reqs, nil), chunkMedian(p.store, reqs, nil), chunkMedian(p.engine, reqs, nil)
	m["server.self_us"] = math.Max(0, m1-m2)
	m["kv.self_us"] = math.Max(0, m2-m3)
	m["store.self_us"] = math.Max(0, m3-m4)
	m["kv.put_us"] = chunkMedian(p.kv, reqs, func(r *request) bool { return !r.isGet() })
	m["kv.get_us"] = chunkMedian(p.kv, reqs, (*request).isGet)
	m["store.write_us"] = p.rec.medianUS(spanStoreWrite)
	m["store.flush_us"] = p.rec.medianUS(spanStoreFlush)
	m["store.read_us"] = p.rec.medianUS(spanStoreRead)
	m["store.sim_cycles_per_op"] = ratio(float64(c1.now-c0.now), float64(n))
	m["engine.writeback_us"] = p.rec.medianUS(spanEngineWrite)
	m["engine.settle_us"] = p.rec.medianUS(spanEngineFlush)
	m["engine.readblock_us"] = p.rec.medianUS(spanEngineRead)
	pauses := sortedMicros(p.pauses)
	m["kv.compact_pause_p50_us"], _ = percentile(pauses, 0.5)
	m["kv.compact_pause_max_us"], _ = percentile(pauses, 1)
	sum := m["server.self_us"] + m["kv.self_us"] + m["store.self_us"] + m4
	m["trace.sum_err_pct"] = 100 * ratio(math.Abs(sum-m0), m0)
	m["trace.overhead_pct"] = 100 * (1 - ratio(m0, m1))
	m["trace.spans"] = float64(len(p.rec.spans))
	res.Notes["replay_ops"] = n
	res.Notes["rung_us"] = []float64{m0, m1, m2, m3, m4}
	if m["trace.sum_err_pct"] > 10 {
		res.Notes["warning"] = fmt.Sprintf("layer self times sum to %.1f us against %.1f us untraced: off by more than 10%%", sum, m0)
	}
	return m0, nil
}
