// Package sim wires the full simulated machine: a trace-driven core
// with bounded memory-level parallelism, the L1/L2 data caches, one of
// the five security-engine designs, the memory controller and the NVM
// device. It stands in for the paper's Gem5 setup: an x86-64 core at
// 3 GHz with a 32 KB 2-way L1 (2 cycles), a 256 KB 8-way L2 (20
// cycles), a 128 KB 8-way metadata cache (32 cycles), 64 B lines, LRU
// everywhere, and PCM at 60/150 ns.
package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime/pprof"

	"ccnvm/internal/cache"
	"ccnvm/internal/core"
	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/metacache"
	"ccnvm/internal/nvm"
	"ccnvm/internal/seccrypto"
	"ccnvm/internal/store"
	"ccnvm/internal/trace"
)

// Designs lists the five evaluated designs in the paper's order. Thin
// wrapper over the design registry, kept so existing callers compile.
func Designs() []string { return design.PaperNames() }

// AllDesigns additionally includes the §4.4 extension and the
// related-work Arsenal baseline, neither of which is part of the
// paper's figures. Thin wrapper over the design registry.
func AllDesigns() []string { return design.Names() }

// DesignLabel maps a design name to the paper's label. Thin wrapper
// over the design registry.
func DesignLabel(d string) string { return design.Label(d) }

// Config describes one machine instance. Zero values select the paper's
// configuration.
type Config struct {
	Design   string // a design registered in internal/design (default cc-NVM)
	Capacity uint64 // NVM data capacity (default 16 GiB)

	L1Size, L1Ways int   // default 32 KiB, 2-way
	L2Size, L2Ways int   // default 256 KiB, 8-way
	L1Lat, L2Lat   int64 // default 2, 20 cycles
	MSHRs          int   // outstanding memory reads (default 8)

	Params  engine.Params
	MemCfg  store.ControllerConfig
	MetaCfg metacache.Config
	Keys    *seccrypto.Keys

	// CheckReads verifies every memory-level read against a shadow copy
	// of what the core last stored — an end-to-end check of the whole
	// encrypt/decrypt/authenticate path. Enabled in tests.
	CheckReads bool

	// Faults installs a media fault model on the NVM device. Nil (the
	// default) is the idealized device every published figure was
	// measured on; all fault machinery is gated on it, so results stay
	// bit-identical with faults off.
	Faults *nvm.FaultModel

	// ScrubOps is the scrubbing cadence under a fault model: one scrub
	// pass every ScrubOps trace operations (default 100000). Ignored
	// without a fault model.
	ScrubOps int
}

func (c *Config) fill() error {
	if c.Design == "" {
		c.Design = design.CCNVM
	}
	if c.Capacity == 0 {
		c.Capacity = 16 << 30
	}
	if c.L1Size == 0 {
		c.L1Size = 32 << 10
	}
	if c.L1Ways == 0 {
		c.L1Ways = 2
	}
	if c.L2Size == 0 {
		c.L2Size = 256 << 10
	}
	if c.L2Ways == 0 {
		c.L2Ways = 8
	}
	if c.L1Lat == 0 {
		c.L1Lat = 2
	}
	if c.L2Lat == 0 {
		c.L2Lat = 20
	}
	if c.MSHRs == 0 {
		c.MSHRs = 8
	}
	if c.ScrubOps == 0 {
		c.ScrubOps = 100000
	}
	if c.Keys == nil {
		k := seccrypto.DefaultKeys()
		c.Keys = &k
	}
	if _, ok := design.Lookup(c.Design); !ok {
		return fmt.Errorf("sim: %w", design.UnknownError(c.Design))
	}
	return nil
}

// Result is the outcome of one simulation run.
type Result struct {
	Design   string
	Workload string

	Instructions uint64
	Cycles       int64
	IPC          float64

	NVMWrites nvm.WriteBreakdown
	NVMReads  uint64

	L1, L2, Meta cache.Stats
	Sec          engine.SecStats
	Ctrl         store.ControllerStats

	AvgEpochLen float64
	MaxWear     uint64

	// Media-management fields, populated only when the fault model arms a
	// finite spare pool (Faults.SpareLines > 0); zero otherwise — and
	// omitted from JSON when zero — so every faultless result stays
	// bit-identical.
	Health        string         `json:",omitzero"` // "healthy", "degraded" or "read-only"
	Spares        nvm.SpareStats `json:",omitzero"` // pool accounting at the end of the run
	RefusedStores uint64         `json:",omitzero"` // trace stores refused in read-only degradation
}

// Machine is one simulated system.
type Machine struct {
	cfg  Config
	st   *store.Store
	dev  *nvm.Device
	eng  engine.Engine
	l1   *cache.Cache
	l2   *cache.Cache
	core coreState

	scrubbing     bool   // fault model active: run periodic scrub passes
	sinceScrub    int    // ops since the last scrub pass
	finiteSpares  bool   // fault model arms a finite spare pool
	refusedStores uint64 // stores refused while the media was read-only

	shadow map[mem.Addr]mem.Line // CheckReads oracle
	seq    uint64                // store content sequence

	base *Result // stats baseline captured by MarkWarm
}

type coreState struct {
	now         int64
	outstanding []int64 // completion times of in-flight memory reads
	instrs      uint64
	mismatches  uint64
}

// New builds a machine. Assembly — layout, device, fault model,
// controller, engine — is the storage-engine facade's job; the
// simulator layers the CPU-side caches and the trace-driven core over
// the facade's engine and drives the timed path directly (it owns the
// clock, which the facade's functional API does not expose).
func New(cfg Config) (*Machine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	st, err := store.Open(store.Options{
		Design:   cfg.Design,
		Capacity: cfg.Capacity,
		Params:   cfg.Params,
		Ctrl:     cfg.MemCfg,
		Meta:     cfg.MetaCfg,
		Keys:     cfg.Keys,
		Faults:   cfg.Faults,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	m := &Machine{cfg: cfg, st: st, dev: st.Device(), eng: st.Engine(),
		scrubbing:    cfg.Faults.Enabled(),
		finiteSpares: cfg.Faults != nil && cfg.Faults.SpareLines > 0,
	}
	if cfg.CheckReads {
		m.shadow = make(map[mem.Addr]mem.Line)
	}
	// The L1 evicts into the L2; the L2 evicts into the security engine.
	m.l2 = cache.MustNew(cache.Config{Name: "l2", SizeBytes: cfg.L2Size, Ways: cfg.L2Ways},
		func(a mem.Addr, l mem.Line, dirty bool) {
			if dirty {
				accept := m.eng.WriteBack(m.core.now, a, l)
				if accept > m.core.now {
					m.core.now = accept // the fill waits for the victim buffer
				}
			}
		})
	m.l1 = cache.MustNew(cache.Config{Name: "l1", SizeBytes: cfg.L1Size, Ways: cfg.L1Ways},
		func(a mem.Addr, l mem.Line, dirty bool) {
			if dirty {
				m.l2.Fill(a, l, true)
			}
		})
	return m, nil
}

// Engine exposes the machine's security engine (for crash tests).
func (m *Machine) Engine() engine.Engine { return m.eng }

// Device exposes the NVM device.
func (m *Machine) Device() *nvm.Device { return m.dev }

// memRead issues a memory-level read through the security engine with
// MSHR-bounded parallelism. It returns the line and its completion.
func (m *Machine) memRead(a mem.Addr, dep bool) mem.Line {
	// Wait for an MSHR when the window is full.
	if len(m.core.outstanding) >= m.cfg.MSHRs {
		earliest, ei := m.core.outstanding[0], 0
		for i, t := range m.core.outstanding {
			if t < earliest {
				earliest, ei = t, i
			}
		}
		if earliest > m.core.now {
			m.core.now = earliest
		}
		last := len(m.core.outstanding) - 1
		m.core.outstanding[ei] = m.core.outstanding[last]
		m.core.outstanding = m.core.outstanding[:last]
	}
	pt, done := m.eng.ReadBlock(m.core.now, a)
	if dep {
		// The consumer stalls until the verified value arrives.
		if done > m.core.now {
			m.core.now = done
		}
	} else {
		m.core.outstanding = append(m.core.outstanding, done)
	}
	if m.shadow != nil {
		if want, ok := m.shadow[a]; ok && want != pt {
			m.core.mismatches++
		}
	}
	return pt
}

// loadLine brings a line to the L1, charging hit/miss latencies, and
// returns its content.
func (m *Machine) loadLine(a mem.Addr, dep bool) mem.Line {
	if l, hit := m.l1.Read(a); hit {
		return l
	}
	if l, hit := m.l2.Read(a); hit {
		// L1 hits are hidden by the pipeline; an L2 hit pays the L1 miss
		// detection plus the L2 access.
		m.core.now += m.cfg.L1Lat + m.cfg.L2Lat
		m.l1.Fill(a, l, false)
		return l
	}
	l := m.memRead(a, dep)
	m.l2.Fill(a, l, false)
	m.l1.Fill(a, l, false)
	return l
}

// step executes one trace operation.
func (m *Machine) step(op trace.Op) {
	m.core.now += int64(op.Gap)
	m.core.instrs += uint64(op.Gap) + 1
	if m.scrubbing {
		if m.sinceScrub++; m.sinceScrub >= m.cfg.ScrubOps {
			m.sinceScrub = 0
			m.st.Scrub(m.core.now)
		}
	}
	switch op.Kind {
	case trace.Load:
		m.loadLine(op.Addr, op.Dep)
	case trace.Store:
		if m.finiteSpares && m.st.Health() == store.HealthReadOnly {
			// Admission control of the degraded mode: with the spare pool
			// exhausted the controller accepts no new host stores, so the
			// core's store retires without mutating memory. Loads (and the
			// engine's own maintenance traffic) still proceed.
			m.refusedStores++
			return
		}
		// Write-allocate: fetch the line (non-blocking fill), then
		// mutate it in the L1 via the store buffer. Store values mimic
		// real memory content — word-granular, mostly small clustered
		// integers with occasional pointer-like values — so
		// compression-based designs see realistic compressibility.
		line := m.loadLine(op.Addr, false)
		m.seq++
		v := 0x1000 + m.seq%2048
		if m.seq%13 == 0 {
			v = 0x7f40_0000_0000 + m.seq*64 // pointer-like
		}
		w := int(m.seq) % 8 * 8
		binary.LittleEndian.PutUint64(line[w:w+8], v)
		m.l1.Write(op.Addr, line)
		if m.shadow != nil {
			m.shadow[mem.Align(op.Addr)] = line
		}
	}
}

// Run executes the whole op slice and returns the results. The caches
// are NOT flushed at the end: traffic and IPC cover exactly the trace,
// as in the paper's fixed-instruction-window methodology.
func (m *Machine) Run(workload string, ops []trace.Op) Result {
	for _, op := range ops {
		m.step(op)
	}
	// Drain outstanding reads into the cycle count.
	for _, t := range m.core.outstanding {
		if t > m.core.now {
			m.core.now = t
		}
	}
	m.core.outstanding = m.core.outstanding[:0]
	return m.result(workload)
}

// RunWithCrash executes ops[:crashAt], crashes, and returns the crash
// image together with the partial result.
func (m *Machine) RunWithCrash(workload string, ops []trace.Op, crashAt int) (Result, *engine.CrashImage) {
	if crashAt > len(ops) {
		crashAt = len(ops)
	}
	for _, op := range ops[:crashAt] {
		m.step(op)
	}
	res := m.result(workload)
	return res, m.eng.Crash()
}

// MarkWarm ends the warm-up phase: statistics accumulated so far
// (cycles, instructions, traffic, cache and engine counters) are
// subtracted from every subsequent Result, mirroring the paper's
// "simulate for 500 million instructions after fast-forwarding to
// representative regions". Functional and cache state carry over.
func (m *Machine) MarkWarm() {
	r := m.result("")
	m.base = &r
}

// Snapshot captures the current NVM contents non-destructively — the
// adversary's view of the DIMM, used by replay attacks that need an
// older image.
func (m *Machine) Snapshot() *nvm.Image { return m.dev.Snapshot() }

// Crash powers the machine off mid-run: on-chip state is lost, ADR
// semantics apply, and the persistent state is captured. The machine
// must not be used afterwards.
func (m *Machine) Crash() *engine.CrashImage { return m.eng.Crash() }

// Mismatches reports shadow-check failures (CheckReads only).
func (m *Machine) Mismatches() uint64 { return m.core.mismatches }

// Health reports the memory controller's media health state; always
// HealthHealthy without a finite spare pool.
func (m *Machine) Health() store.HealthState { return m.st.Health() }

func (m *Machine) result(workload string) Result {
	r := Result{
		Design:       m.cfg.Design,
		Workload:     workload,
		Instructions: m.core.instrs,
		Cycles:       m.core.now,
		NVMWrites:    m.dev.Writes(),
		NVMReads:     m.dev.Reads(),
		L1:           m.l1.Stats(),
		L2:           m.l2.Stats(),
		Sec:          m.eng.Stats(),
	}
	if c, ok := m.eng.(*core.CCNVM); ok {
		r.AvgEpochLen = c.AvgEpochLength()
		r.Meta = c.Meta.Stats()
		r.Ctrl = c.Ctrl.Stats()
	}
	switch e := m.eng.(type) {
	case *engine.WoCC:
		r.Meta, r.Ctrl = e.Meta.Stats(), e.Ctrl.Stats()
	case *engine.SC:
		r.Meta, r.Ctrl = e.Meta.Stats(), e.Ctrl.Stats()
	case *engine.Osiris:
		r.Meta, r.Ctrl = e.Meta.Stats(), e.Ctrl.Stats()
	}
	_, r.MaxWear = m.dev.MaxWear()
	if m.finiteSpares {
		r.Health = m.st.Health().String()
		r.Spares = m.dev.SpareStats()
		r.RefusedStores = m.refusedStores
	}
	if m.base != nil {
		r = subtractBaseline(r, *m.base)
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	return r
}

// subtractBaseline removes warm-up statistics from a result. MaxWear
// and AvgEpochLen are running quantities, not counters, and stay as-is.
func subtractBaseline(r, b Result) Result {
	r.Instructions -= b.Instructions
	r.Cycles -= b.Cycles
	r.NVMWrites.Data -= b.NVMWrites.Data
	r.NVMWrites.HMAC -= b.NVMWrites.HMAC
	r.NVMWrites.Counter -= b.NVMWrites.Counter
	r.NVMWrites.Tree -= b.NVMWrites.Tree
	r.NVMReads -= b.NVMReads
	r.L1 = subCache(r.L1, b.L1)
	r.L2 = subCache(r.L2, b.L2)
	r.Meta = subCache(r.Meta, b.Meta)
	r.Sec = subSec(r.Sec, b.Sec)
	r.Ctrl = subCtrl(r.Ctrl, b.Ctrl)
	r.RefusedStores -= b.RefusedStores
	return r
}

func subCache(a, b cache.Stats) cache.Stats {
	a.Hits -= b.Hits
	a.Misses -= b.Misses
	a.Evictions -= b.Evictions
	a.DirtyEvicts -= b.DirtyEvicts
	a.Writes -= b.Writes
	a.Reads -= b.Reads
	return a
}

func subSec(a, b engine.SecStats) engine.SecStats {
	a.Reads -= b.Reads
	a.Writebacks -= b.Writebacks
	a.HMACOps -= b.HMACOps
	a.AESOps -= b.AESOps
	a.IntegrityViolations -= b.IntegrityViolations
	a.CounterOverflows -= b.CounterOverflows
	a.StaleCounterRetries -= b.StaleCounterRetries
	a.Drains -= b.Drains
	a.DrainQueueFull -= b.DrainQueueFull
	a.DrainEvict -= b.DrainEvict
	a.DrainUpdateLimit -= b.DrainUpdateLimit
	a.DrainLinesFlushed -= b.DrainLinesFlushed
	a.WritebackBufferStalls -= b.WritebackBufferStalls
	a.WritebackStallCycles -= b.WritebackStallCycles
	a.DefaultLineHits -= b.DefaultLineHits
	a.DefaultLineMisses -= b.DefaultLineMisses
	return a
}

func subCtrl(a, b store.ControllerStats) store.ControllerStats {
	a.Reads -= b.Reads
	a.Writes -= b.Writes
	a.WPQFullStalls -= b.WPQFullStalls
	a.WPQStallCycles -= b.WPQStallCycles
	a.EpochWrites -= b.EpochWrites
	a.DroppedOnCrash -= b.DroppedOnCrash
	a.RetryRemapped -= b.RetryRemapped
	a.RefusedWrites -= b.RefusedWrites
	a.RefusedEpochs -= b.RefusedEpochs
	return a
}

// RunBenchmark is the one-call entry point: build a machine for design,
// generate the named workload and run n operations after a warm-up of
// warmup operations (statistics cover only the measured window, like
// the paper's fast-forwarding methodology).
func RunBenchmark(design, benchmark string, n int, seed int64, cfg Config) (Result, error) {
	return RunBenchmarkWarm(design, benchmark, n, 0, seed, cfg)
}

// RunBenchmarkWarm is RunBenchmark with an explicit warm-up window.
//
// The run is wrapped in pprof labels (design, workload, phase), so a
// CPU profile captured around a sweep attributes every sample to the
// cell that produced it — `go tool pprof -tagfocus design=ccnvm` or
// `-tagshow phase` slice the profile without re-running anything. See
// DESIGN.md, "Simulator performance".
func RunBenchmarkWarm(design, benchmark string, n, warmup int, seed int64, cfg Config) (Result, error) {
	p, err := trace.ProfileByName(benchmark)
	if err != nil {
		return Result{}, err
	}
	cfg.Design = design
	m, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	g, err := trace.NewGenerator(p, seed)
	if err != nil {
		return Result{}, err
	}
	var res Result
	labels := pprof.Labels("design", design, "workload", benchmark, "phase", "measure")
	if warmup > 0 {
		pprof.Do(context.Background(), pprof.Labels("design", design, "workload", benchmark, "phase", "warmup"),
			func(context.Context) {
				m.Run(benchmark, trace.Collect(g, warmup))
				m.MarkWarm()
			})
	}
	pprof.Do(context.Background(), labels, func(context.Context) {
		res = m.Run(benchmark, trace.Collect(g, n))
	})
	return res, nil
}
