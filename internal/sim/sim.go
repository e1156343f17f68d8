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
	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/store"
	"ccnvm/internal/trace"
)

// Designs lists the five evaluated designs in the paper's order. Thin
// wrapper over the design registry.
func Designs() []string { return design.PaperNames() }

// The paper's core and caches.
const (
	l1Size = 32 << 10
	l2Size = 256 << 10
	l1Ways = 2
	l2Ways = 8
	l1Lat  = 2  // cycles
	l2Lat  = 20 // cycles
)

// Config describes one machine instance. Zero values select the paper's
// configuration.
type Config struct {
	Design   string // a design registered in internal/design (default cc-NVM)
	Capacity uint64 // NVM data capacity (default 16 GiB)

	Params engine.Params

	// CheckReads verifies every memory-level read against a shadow copy
	// of what the core last stored — an end-to-end check of the whole
	// encrypt/decrypt/authenticate path. Enabled in tests.
	CheckReads bool
}

func (c *Config) fill() error {
	if c.Design == "" {
		c.Design = design.CCNVM
	}
	if c.Capacity == 0 {
		c.Capacity = 16 << 30
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

	shadow map[mem.Addr]mem.Line // CheckReads oracle
	seq    uint64                // store content sequence
}

type coreState struct {
	now        int64
	misses     engine.Window // in-flight memory reads
	instrs     uint64
	mismatches uint64
}

// New builds a machine. Assembly — layout, device, controller, engine
// — is the storage-engine facade's job; the simulator layers the
// CPU-side caches and the trace-driven core over the facade's engine
// and drives the timed path directly (it owns the clock, which the
// facade's functional API does not expose).
func New(cfg Config) (*Machine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	st, err := store.Open(store.Options{
		Design:   cfg.Design,
		Capacity: cfg.Capacity,
		Params:   cfg.Params,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	m := &Machine{cfg: cfg, st: st, dev: st.Device(), eng: st.Engine()}
	if cfg.CheckReads {
		m.shadow = make(map[mem.Addr]mem.Line)
	}
	// The L1 evicts into the L2; the L2 evicts into the security engine.
	m.l2 = cache.MustNew(cache.Config{Name: "l2", SizeBytes: l2Size, Ways: l2Ways},
		func(a mem.Addr, l mem.Line, dirty bool) {
			if dirty {
				accept := m.eng.WriteBack(m.core.now, a, l)
				if accept > m.core.now {
					m.core.now = accept // the fill waits for the victim buffer
				}
			}
		})
	m.l1 = cache.MustNew(cache.Config{Name: "l1", SizeBytes: l1Size, Ways: l1Ways},
		func(a mem.Addr, l mem.Line, dirty bool) {
			if dirty {
				m.l2.Fill(a, l, true)
			}
		})
	return m, nil
}

// Engine exposes the machine's security engine (for crash tests).
func (m *Machine) Engine() engine.Engine { return m.eng }

// memRead issues a memory-level read through the security engine with
// MSHR-bounded parallelism. It returns the line and its completion.
func (m *Machine) memRead(a mem.Addr, dep bool) mem.Line {
	m.core.now = m.core.misses.Issue(m.core.now)
	pt, done := m.eng.ReadBlock(m.core.now, a)
	if dep {
		// The consumer stalls until the verified value arrives.
		if done > m.core.now {
			m.core.now = done
		}
	} else {
		m.core.misses.Add(done)
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
		m.core.now += l1Lat + l2Lat
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
	switch op.Kind {
	case trace.Load:
		m.loadLine(op.Addr, op.Dep)
	case trace.Store:
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
	m.core.now = m.core.misses.Drain(m.core.now)
	return m.result(workload)
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
		Meta:         m.eng.MetaStats(),
		Ctrl:         m.st.CtrlStats(),
	}
	// Only cc-NVM's epochs have a length to report.
	if e, ok := m.eng.(interface{ AvgEpochLength() float64 }); ok {
		r.AvgEpochLen = e.AvgEpochLength()
	}
	_, r.MaxWear = m.dev.MaxWear()
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	return r
}

// RunBenchmark is the one-call entry point: build a machine for design,
// generate the named workload and run n operations.
//
// The run is wrapped in pprof labels (design, workload), so a CPU
// profile captured around a sweep attributes every sample to the cell
// that produced it — `go tool pprof -tagfocus design=ccnvm` or
// `-tagshow workload` slice the profile without re-running anything.
// See DESIGN.md, "Simulator performance".
func RunBenchmark(design, benchmark string, n int, seed int64, cfg Config) (Result, error) {
	if n < 0 {
		return Result{}, fmt.Errorf("sim: negative op count %d", n)
	}
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
	pprof.Do(context.Background(), pprof.Labels("design", design, "workload", benchmark), func(context.Context) {
		res = m.Run(benchmark, trace.Collect(g, n))
	})
	return res, nil
}
