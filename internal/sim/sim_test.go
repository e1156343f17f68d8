package sim

import (
	"encoding/json"
	"testing"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/trace"
)

func TestConfigDefaults(t *testing.T) {
	var c Config
	if err := c.fill(); err != nil {
		t.Fatal(err)
	}
	if c.Design != "ccnvm" || c.Capacity != 16<<30 || l1Size != 32<<10 ||
		l2Size != 256<<10 || l1Ways != 2 || l2Ways != 8 ||
		l1Lat != 2 || l2Lat != 20 || engine.MSHRs != 8 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestUnknownDesignRejected(t *testing.T) {
	if _, err := New(Config{Design: "morphable"}); err == nil {
		t.Fatal("unknown design accepted")
	}
}

// TestEndToEndShadowCheck is the whole-stack functional test: every
// value the core stores must read back identically through L1, L2,
// encryption, authentication and NVM — for every registered design,
// whose metadata-cache and controller counters must reach the Result.
func TestEndToEndShadowCheck(t *testing.T) {
	p, err := trace.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	ops := trace.Collect(trace.MustGenerator(p, 42), 40000)
	for _, d := range design.Names() {
		t.Run(d, func(t *testing.T) {
			m, err := New(Config{Design: d, CheckReads: true})
			if err != nil {
				t.Fatal(err)
			}
			r := m.Run("gcc", ops)
			if m.Mismatches() != 0 {
				t.Fatalf("%d shadow mismatches: the crypto path corrupted data", m.Mismatches())
			}
			if r.Sec.IntegrityViolations != 0 {
				t.Fatalf("%d integrity violations on a clean run", r.Sec.IntegrityViolations)
			}
			if r.IPC <= 0 || r.IPC > 1 {
				t.Fatalf("implausible IPC %v", r.IPC)
			}
			if r.Meta.Hits+r.Meta.Misses == 0 || r.Ctrl.Writes == 0 {
				t.Fatalf("stats not reported: meta %+v, controller writes %d", r.Meta, r.Ctrl.Writes)
			}
		})
	}
}

func TestIdenticalWorkloadAcrossDesigns(t *testing.T) {
	// All designs must see the same instruction count and the same LLC
	// write-back count: they simulate the same machine above the engine.
	p, _ := trace.ProfileByName("lbm")
	ops := trace.Collect(trace.MustGenerator(p, 1), 30000)
	var instr, wb uint64
	for i, d := range Designs() {
		m, err := New(Config{Design: d})
		if err != nil {
			t.Fatal(err)
		}
		r := m.Run("lbm", ops)
		if i == 0 {
			instr, wb = r.Instructions, r.Sec.Writebacks
			continue
		}
		if r.Instructions != instr {
			t.Fatalf("%s: instructions %d != %d", d, r.Instructions, instr)
		}
		if r.Sec.Writebacks != wb {
			t.Fatalf("%s: write-backs %d != %d", d, r.Sec.Writebacks, wb)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	p, _ := trace.ProfileByName("milc")
	ops := trace.Collect(trace.MustGenerator(p, 3), 20000)
	run := func() Result {
		m, _ := New(Config{Design: "ccnvm"})
		return m.Run("milc", ops)
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.NVMWrites != b.NVMWrites || a.Sec.Drains != b.Sec.Drains {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestPaperOrderingHolds(t *testing.T) {
	// The paper's qualitative results on a write-heavy workload:
	// IPC: wocc > ccnvm > {osiris ~ sc ~ wods};
	// writes: sc >> ccnvm ~ wods > osiris >= wocc.
	p, _ := trace.ProfileByName("lbm")
	ops := trace.Collect(trace.MustGenerator(p, 1), 60000)
	res := map[string]Result{}
	for _, d := range Designs() {
		m, _ := New(Config{Design: d})
		res[d] = m.Run("lbm", ops)
	}
	ipc := func(d string) float64 { return res[d].IPC }
	wr := func(d string) uint64 { return res[d].NVMWrites.Total() }

	if !(ipc("wocc") > ipc("ccnvm") && ipc("ccnvm") > ipc("osiris")) {
		t.Errorf("IPC ordering broken: wocc=%.3f ccnvm=%.3f osiris=%.3f", ipc("wocc"), ipc("ccnvm"), ipc("osiris"))
	}
	if !(ipc("ccnvm") > ipc("ccnvm-wods")) {
		t.Errorf("deferred spreading did not help: ccnvm=%.3f wods=%.3f", ipc("ccnvm"), ipc("ccnvm-wods"))
	}
	if !(wr("sc") > 4*wr("wocc")) {
		t.Errorf("SC write amplification too small: sc=%d wocc=%d", wr("sc"), wr("wocc"))
	}
	if !(wr("ccnvm") > wr("osiris") && wr("osiris") >= wr("wocc")) {
		t.Errorf("write ordering broken: ccnvm=%d osiris=%d wocc=%d", wr("ccnvm"), wr("osiris"), wr("wocc"))
	}
	if res["ccnvm"].Sec.Drains == 0 {
		t.Error("ccnvm never drained on a write-heavy workload")
	}
	if res["ccnvm"].AvgEpochLen <= 1 {
		t.Errorf("implausible epoch length %v", res["ccnvm"].AvgEpochLen)
	}
}

func TestCrashMidTraceProducesImage(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	ops := trace.Collect(trace.MustGenerator(p, 5), 20000)
	m, _ := New(Config{Design: "ccnvm"})
	res := m.Run("gcc", ops[:15000])
	img := m.Crash()
	if img == nil || img.Design != "ccnvm" {
		t.Fatal("crash image missing or mislabeled")
	}
	if res.Instructions == 0 {
		t.Fatal("partial result empty")
	}
	if img.Image.Store.Len() == 0 {
		t.Fatal("crash image has no persistent state")
	}
}

func TestRunBenchmarkEntryPoint(t *testing.T) {
	r, err := RunBenchmark("ccnvm", "hmmer", 10000, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "hmmer" || r.Design != "ccnvm" || r.Instructions == 0 {
		t.Fatalf("bad result: %+v", r)
	}
	if _, err := RunBenchmark("ccnvm", "nosuch", 10, 1, Config{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := RunBenchmark("ccnvm", "hmmer", -5, 1, Config{}); err == nil {
		t.Fatal("negative op count accepted")
	}
}

func TestSmallCapacityMachine(t *testing.T) {
	// The simulator must work on tiny trees too (fewer levels).
	m, err := New(Config{Design: "ccnvm", Capacity: 64 << 20, CheckReads: true})
	if err != nil {
		t.Fatal(err)
	}
	var ops []trace.Op
	for i := 0; i < 5000; i++ {
		k := trace.Load
		if i%3 == 0 {
			k = trace.Store
		}
		ops = append(ops, trace.Op{Kind: k, Addr: mem.Addr((i % 700) * 64), Gap: 3})
	}
	m.Run("tiny", ops)
	if m.Mismatches() != 0 {
		t.Fatal("shadow mismatches on small capacity")
	}
}

func TestParamsPlumbing(t *testing.T) {
	// N and M must reach the engine: tiny N forces many drains.
	p, _ := trace.ProfileByName("lbm")
	ops := trace.Collect(trace.MustGenerator(p, 1), 20000)
	run := func(n uint64) uint64 {
		m, _ := New(Config{Design: "ccnvm", Params: engine.Params{UpdateLimit: n}})
		return m.Run("lbm", ops).Sec.Drains
	}
	if !(run(4) > run(64)) {
		t.Fatal("smaller N did not increase drain count")
	}
}

func TestExtensionDesignRunsEndToEnd(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	ops := trace.Collect(trace.MustGenerator(p, 2), 20000)
	m, err := New(Config{Design: "ccnvm-ext", CheckReads: true})
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run("gcc", ops)
	if m.Mismatches() != 0 || r.Sec.IntegrityViolations != 0 {
		t.Fatal("extension design corrupted data")
	}
	// Timing must match plain cc-NVM exactly: the registers are on-chip.
	m2, _ := New(Config{Design: "ccnvm"})
	r2 := m2.Run("gcc", ops)
	if r.Cycles != r2.Cycles || r.NVMWrites != r2.NVMWrites {
		t.Fatalf("extension changed timing/traffic: %d vs %d cycles", r.Cycles, r2.Cycles)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	r, err := RunBenchmark("ccnvm", "hmmer", 5000, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.IPC != r.IPC || back.NVMWrites != r.NVMWrites || back.Cycles != r.Cycles {
		t.Fatal("JSON round trip lost fields")
	}
}

func TestArsenalEndToEnd(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	ops := trace.Collect(trace.MustGenerator(p, 4), 30000)
	m, err := New(Config{Design: "arsenal", CheckReads: true})
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run("gcc", ops)
	if m.Mismatches() != 0 || r.Sec.IntegrityViolations != 0 {
		t.Fatalf("arsenal corrupted data: mism=%d viol=%d", m.Mismatches(), r.Sec.IntegrityViolations)
	}
	ratio := m.Engine().(*engine.Arsenal).CompressionRatio()
	if ratio < 0.2 || ratio > 0.95 {
		t.Fatalf("implausible compression ratio %v", ratio)
	}
	// Arsenal's selling point: fewer NVM writes than even the
	// no-consistency baseline, thanks to inline metadata.
	mb, _ := New(Config{Design: "wocc"})
	rb := mb.Run("gcc", ops)
	if !(r.NVMWrites.Total() < rb.NVMWrites.Total()) {
		t.Fatalf("arsenal writes %d not below baseline %d", r.NVMWrites.Total(), rb.NVMWrites.Total())
	}
}
