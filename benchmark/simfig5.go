package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ccnvm/internal/design"
	"ccnvm/internal/experiments"
	"ccnvm/internal/mem"
	"ccnvm/internal/report"
	"ccnvm/internal/sim"
	"ccnvm/internal/store"
	"ccnvm/internal/trace"
)

// The paper's six headline claims, in the order of
// experiments.Headline's fields (EXPERIMENTS.md, "Headline claims").
var paperHeadline = experiments.Headline{
	SCIPCDrop:       0.414,
	SCWriteFactor:   5.5,
	CCNVMvsOsirisUp: 0.204,
	CCNVMExtraWr:    0.296,
	CCNVMIPCDrop:    0.187,
	CCNVMWriteOver:  0.39,
}

// genTraces generates the round's input: one op stream per SPEC-like
// profile, all from the seed, plus their digest.
func genTraces(seed int64, n int) (map[string][]trace.Op, string, error) {
	traces := make(map[string][]trace.Op)
	h := sha256.New()
	var rec [12]byte
	for _, b := range trace.Benchmarks() {
		p, err := trace.ProfileByName(b)
		if err != nil {
			return nil, "", err
		}
		g, err := trace.NewGenerator(p, seed)
		if err != nil {
			return nil, "", err
		}
		ops := trace.Collect(g, n)
		for _, op := range ops {
			binary.LittleEndian.PutUint64(rec[:8], uint64(op.Addr))
			binary.LittleEndian.PutUint16(rec[8:10], op.Gap)
			rec[10] = byte(op.Kind)
			rec[11] = 0
			if op.Dep {
				rec[11] = 1
			}
			h.Write(rec[:])
		}
		traces[b] = ops
	}
	return traces, hex.EncodeToString(h.Sum(nil)), nil
}

// simRound is one pass over the design x trace matrix.
type simRound struct {
	setup     time.Duration
	setupSlow float64                          // the host's slowdown over the set-up, see calib.go
	cells     map[string]map[string]sim.Result // design -> trace -> result
	times     []time.Duration                  // one per cell, in run order
	slows     []float64                        // the host's slowdown over each cell
	perD      map[string]time.Duration         // host time per design
	allocs    uint64
	wall      time.Duration
	ops       int
	failed    uint64
	digest    string
	machine   *sim.Machine // the last cc-NVM machine, kept for the recovery phase
	probe     mem.Addr
}

// runSimRound generates the traces and simulates every cell, one after
// the other on this goroutine. check turns on the simulator's shadow
// check of every memory-level read (a warm-up round does so; measured
// rounds run what a user runs). rec, when not nil, receives one span
// per cell. The host's speed is read through sp around the set-up and
// after every cell.
func runSimRound(seed int64, n int, check bool, rec *recorder, sp *speedometer) (*simRound, error) {
	sp.since()
	t0 := time.Now()
	traces, digest, err := genTraces(seed, n)
	if err != nil {
		return nil, err
	}
	r := &simRound{setup: time.Since(t0), digest: digest, cells: make(map[string]map[string]sim.Result), perD: make(map[string]time.Duration)}
	r.setupSlow = sp.since()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, d := range sim.Designs() {
		r.cells[d] = make(map[string]sim.Result)
		for _, b := range trace.Benchmarks() {
			c0 := time.Now()
			m, err := sim.New(sim.Config{Design: d, Params: engineParams, CheckReads: check})
			if err != nil {
				return nil, err
			}
			res := m.Run(b, traces[b])
			c1 := time.Now()
			dt := c1.Sub(c0)
			if rec != nil {
				rec.add("sim."+d, len(r.times), -1, c0, c1)
			}
			r.cells[d][b] = res
			r.times = append(r.times, dt)
			r.slows = append(r.slows, sp.since())
			r.perD[d] += dt
			r.wall += dt
			r.ops += len(traces[b])
			r.failed += m.Mismatches() + res.Sec.IntegrityViolations
			if d == design.CCNVM {
				r.machine = m
				r.probe = mem.Align(traces[b][len(traces[b])-1].Addr)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	r.allocs = ms1.Mallocs - ms0.Mallocs
	return r, nil
}

// sameSimulation is the determinism check: every cell's simulated
// cycles and NVM writes must repeat exactly from round to round.
func sameSimulation(a, b *simRound) error {
	for d, row := range a.cells {
		for t, x := range row {
			y := b.cells[d][t]
			if x.Cycles != y.Cycles || x.NVMWrites != y.NVMWrites {
				return fmt.Errorf("sim_fig5: %s on %s is not deterministic: %d cycles / %d writes, then %d / %d",
					d, t, x.Cycles, x.NVMWrites.Total(), y.Cycles, y.NVMWrites.Total())
			}
		}
	}
	return nil
}

// ccnvmTotals sums the cc-NVM cells: the design the KV workloads run.
func (r *simRound) ccnvmTotals() (res sim.Result, ops float64) {
	for _, b := range trace.Benchmarks() {
		c := r.cells[design.CCNVM][b]
		res.Cycles += c.Cycles
		res.NVMWrites.Add(c.NVMWrites)
		res.NVMReads += c.NVMReads
		res.Meta.Hits += c.Meta.Hits
		res.Meta.Misses += c.Meta.Misses
		res.Ctrl.WPQFullStalls += c.Ctrl.WPQFullStalls
		res.Ctrl.EpochWrites += c.Ctrl.EpochWrites
		res.MaxWear = max(res.MaxWear, c.MaxWear)
		s, t := &res.Sec, c.Sec
		s.HMACOps += t.HMACOps
		s.AESOps += t.AESOps
		s.Drains += t.Drains
		s.DrainLinesFlushed += t.DrainLinesFlushed
		s.DrainQueueFull += t.DrainQueueFull
		s.DrainEvict += t.DrainEvict
		s.DrainUpdateLimit += t.DrainUpdateLimit
		s.WritebackBufferStalls += t.WritebackBufferStalls
		s.CounterOverflows += t.CounterOverflows
		s.IntegrityViolations += t.IntegrityViolations
		s.PadCacheHits += t.PadCacheHits
		s.PadCacheMisses += t.PadCacheMisses
		s.DataMemoHits += t.DataMemoHits
		s.DataMemoMisses += t.DataMemoMisses
		s.NodeMemoHits += t.NodeMemoHits
		s.NodeMemoMisses += t.NodeMemoMisses
		s.DefaultLineHits += t.DefaultLineHits
		s.DefaultLineMisses += t.DefaultLineMisses
	}
	return res, float64(r.ops) / float64(len(sim.Designs()))
}

// fig5 reduces the matrix to Figure 5's averages: per design, the
// geometric mean over traces of IPC and NVM writes normalised to the
// baseline design.
func (r *simRound) fig5() (ipc, writes map[string]float64) {
	ipc, writes = make(map[string]float64), make(map[string]float64)
	base := r.cells[design.BaselineName()]
	for _, d := range sim.Designs() {
		var is, ws []float64
		for _, b := range trace.Benchmarks() {
			c := r.cells[d][b]
			is = append(is, ratio(c.IPC, base[b].IPC))
			ws = append(ws, ratio(float64(c.NVMWrites.Total()), float64(base[b].NVMWrites.Total())))
		}
		ipc[d], writes[d] = report.GeoMean(is), report.GeoMean(ws)
	}
	return ipc, writes
}

// paperErrPP is the mean absolute error of the six headline claims
// against the paper, in percentage points (a factor counts as 100
// points per 1x).
func paperErrPP(ipc, writes map[string]float64) float64 {
	h := (&experiments.Fig5{AvgNormIPC: ipc, AvgNormWrite: writes}).Headline()
	p := paperHeadline
	sum := math.Abs(h.SCIPCDrop-p.SCIPCDrop) + math.Abs(h.SCWriteFactor-p.SCWriteFactor) +
		math.Abs(h.CCNVMvsOsirisUp-p.CCNVMvsOsirisUp) + math.Abs(h.CCNVMExtraWr-p.CCNVMExtraWr) +
		math.Abs(h.CCNVMIPCDrop-p.CCNVMIPCDrop) + math.Abs(h.CCNVMWriteOver-p.CCNVMWriteOver)
	return 100 * sum / 6
}

// recoverSim cuts the power on the round's last cc-NVM machine and
// times the path back to a verified read: the image file is written
// once, then loaded, recovered and rebooted several times, each total
// corrected for the host's speed over it when sp is not nil.
func recoverSim(r *simRound, dir string, z sizes, sp *speedometer) (recovery, error) {
	var rec recovery
	runtime.GC() // as in crashAndRecover
	cycles := r.cells[design.CCNVM][trace.Benchmarks()[len(trace.Benchmarks())-1]].Cycles
	want, _ := r.machine.Engine().ReadBlock(cycles, r.probe)
	path := filepath.Join(dir, "crash.img")
	if err := store.SaveImage(path, r.machine.Crash()); err != nil {
		return rec, err
	}
	for i, start := 0, time.Now(); z.recoverAgain(i, start); i++ {
		freshProcess()
		sp.since()
		t0 := time.Now()
		img, err := store.LoadImage(path)
		if err != nil {
			return rec, err
		}
		t1 := time.Now()
		st, rep, err := store.Reboot(img, store.Options{Params: engineParams})
		if err != nil {
			return rec, fmt.Errorf("recovery refused the image: %w", err)
		}
		if !rep.Clean() {
			return rec, fmt.Errorf("recovery report is not clean")
		}
		t2 := time.Now()
		got, err := st.Read(r.probe)
		if err != nil {
			return rec, err
		}
		t3 := time.Now()
		if got != want {
			return rec, fmt.Errorf("verify: line %#x reads differently after recovery", uint64(r.probe))
		}
		rec.load = append(rec.load, ms(t1.Sub(t0)))
		rec.reboot = append(rec.reboot, ms(t2.Sub(t1)))
		rec.measured = append(rec.measured, ms(t3.Sub(t0)))
		rec.total = append(rec.total, ms(t3.Sub(t0))/sp.since())
	}
	return rec, nil
}

// runSim is sim_fig5, untraced or traced. The traced run keeps one
// span per cell and reports the simulator's per-design rows.
func runSim(cfg config, res *result, traced bool) error {
	z := cfg.sizes
	m := res.Metrics
	warm, err := runSimRound(cfg.seed, z.simOps, true, nil, nil)
	if err != nil {
		return err
	}
	res.Failed += int64(warm.failed)
	rounds := z.simRounds
	if traced {
		rounds = 2 // one plain, one with spans
	}
	// Every cell's time is corrected for the host's speed over the cell
	// (calib.go); the traced run has no speedometer and reads raw.
	var opsPerS, setups, cells []float64
	measured := map[string][]float64{}
	var last *simRound
	var spans *recorder
	for i := 0; i < rounds; i++ {
		if traced && i == rounds-1 {
			spans = newRecorder()
			res.spans = spans
		}
		r, err := runSimRound(cfg.seed, z.simOps, false, spans, cfg.speed)
		if err != nil {
			return err
		}
		if err := sameSimulation(warm, r); err != nil {
			return err
		}
		res.Attempted += int64(r.ops)
		res.Failed += int64(r.failed)
		var wall float64 // seconds, corrected cell by cell
		for c, us := range micros(r.times) {
			cells = append(cells, us/r.slows[c])
			wall += us / r.slows[c] / 1e6
			measured["lat_p50_us"] = append(measured["lat_p50_us"], us)
		}
		opsPerS = append(opsPerS, ratio(float64(r.ops), wall))
		setups = append(setups, r.setup.Seconds()/r.setupSlow)
		measured["ops_per_s"] = append(measured["ops_per_s"], ratio(float64(r.ops), r.wall.Seconds()))
		measured["setup_s"] = append(measured["setup_s"], r.setup.Seconds())
		last = r
	}
	res.Notes["input_digest"] = last.digest
	cc, ccOps := last.ccnvmTotals()
	peak := peakRSSMB()
	rec, err := recoverSim(last, cfg.tmp, z, cfg.speed)
	if err != nil {
		return err
	}
	ipc, writes := last.fig5()
	res.Notes["fig5_ipc_norm"] = ipc[design.CCNVM]
	res.Notes["fig5_write_norm"] = writes[design.CCNVM]
	res.Notes["paper_err_pp"] = paperErrPP(ipc, writes)

	if !traced {
		sort.Float64s(cells)
		m["setup_s"] = median(setups)
		m["ops_per_s"] = median(opsPerS)
		m["lat_p50_us"], _ = percentile(cells, 0.5)
		res.Notes["lat_tail_us"], res.Notes["lat_tail_percentile"] = tail(cells)
		res.Notes["lat_samples"] = len(cells)
		m["nvm_lines_per_op"] = ratio(float64(cc.NVMWrites.Total()+cc.NVMReads), ccOps)
		m["sim_cycles_per_op"] = ratio(float64(cc.Cycles), ccOps)
		m["recover_ms"] = median(rec.total)
		m["peak_rss_mb"] = peak
		measured["recover_ms"] = rec.measured
		asMeasured := make(map[string]float64)
		for k, vs := range measured {
			asMeasured[k] = median(vs)
		}
		res.Notes["as_measured"] = asMeasured
		return nil
	}

	n := float64(last.ops) / float64(len(sim.Designs()))
	for _, d := range sim.Designs() {
		m["sim."+d+".ops_per_s"] = ratio(n, last.perD[d].Seconds())
		m["sim."+d+".ipc_norm"] = ipc[d]
		m["sim."+d+".write_norm"] = writes[d]
	}
	m["sim.meta_hit_ratio"] = ratio(float64(cc.Meta.Hits), float64(cc.Meta.Hits+cc.Meta.Misses))
	m["sim.allocs_per_op"] = ratio(float64(last.allocs), float64(last.ops))
	m["sim.paper_err_pp"] = paperErrPP(ipc, writes)
	layerCounts(m, sim.Result{}.Sec, cc.Sec, sim.Result{}.NVMWrites, cc.NVMWrites, cc.NVMReads, cc.Ctrl.WPQFullStalls, cc.Ctrl.EpochWrites, ccOps)
	m["nvm.max_wear"] = float64(cc.MaxWear)
	m["store.image_load_ms"] = median(rec.load)
	m["store.reboot_ms"] = median(rec.reboot)
	m["trace.overhead_pct"] = 100 * ratio(opsPerS[0]-opsPerS[1], opsPerS[0])
	m["trace.spans"] = float64(len(spans.spans))
	return nil
}
