// Command ccnvm-sim runs one simulation — a single design on a single
// workload — and dumps the full statistics: IPC, NVM traffic by region,
// cache hit ratios, security-engine activity, draining behaviour and
// controller contention. It is the inspection tool behind the
// aggregated figures of ccnvm-bench.
//
// -design also accepts a comma-separated list or "all"; multiple
// designs run concurrently (each worker owns a full machine) and report
// in the order given.
//
// Usage:
//
//	ccnvm-sim -design ccnvm -benchmark gcc -ops 300000
//	ccnvm-sim -design sc -benchmark lbm -n 8 -m 48
//	ccnvm-sim -design all -benchmark gcc -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/nvm"
	"ccnvm/internal/report"
	"ccnvm/internal/sim"
	"ccnvm/internal/store"
	"ccnvm/internal/trace"
)

func main() {
	designFlag := flag.String("design", design.CCNVM,
		"design ("+strings.Join(design.Names(), ", ")+"), a comma-separated list, or \"all\" for the paper's five")
	bench := flag.String("benchmark", "gcc", "workload: one of the eight SPEC stand-ins")
	ops := flag.Int("ops", 300000, "memory operations")
	seed := flag.Int64("seed", 1, "workload seed")
	n := flag.Uint64("n", 16, "update-times limit N")
	m := flag.Int("m", 64, "dirty address queue entries M")
	capacity := flag.Uint64("capacity", 16<<30, "NVM capacity in bytes")
	faultSeed := flag.Int64("fault-seed", 1, "media fault model seed")
	faultTorn := flag.Bool("fault-torn", false, "tear WPQ entries at 8-byte word granularity on power failure")
	faultADR := flag.Int("fault-adr", 0, "ADR energy budget in WPQ entries at power failure (0 = unbounded)")
	faultWeak := flag.Int("fault-weak", 0, "weak-line rate in percent: transient read errors healed by retry and scrubbing")
	faultStuck := flag.Int("fault-stuck", 0, "lines stuck permanently at each power failure")
	spares := flag.Int("spares", 0, "finite spare-line pool: arms remap accounting and graceful degradation to read-only (requires -fault-weak or -fault-stuck to consume spares)")
	scrubOps := flag.Int("scrub-ops", 0, "trace ops between scrub passes under a fault model (0 = default)")
	traceFile := flag.String("trace", "", "replay a recorded trace file instead of a generated workload")
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrent simulations when multiple designs are given")
	asJSON := flag.Bool("json", false, "emit the result as JSON (an array when multiple designs are given)")
	flag.Parse()

	cfg := sim.Config{
		Capacity: *capacity,
		Params:   engine.Params{UpdateLimit: *n, QueueEntries: *m},
		ScrubOps: *scrubOps,
	}
	// Any non-zero fault axis installs the media fault model; with all
	// axes zero the simulator is the idealized device and its output is
	// bit-identical to earlier releases.
	if *spares > 0 && *faultWeak == 0 && *faultStuck == 0 {
		fatal(fmt.Errorf("-spares %d without -fault-weak or -fault-stuck arms a pool nothing can consume", *spares))
	}
	if *faultTorn || *faultADR > 0 || *faultWeak > 0 || *faultStuck > 0 {
		cfg.Faults = &nvm.FaultModel{
			Seed:         *faultSeed,
			TornWrites:   *faultTorn,
			ADRBudget:    *faultADR,
			WeakLineRate: float64(*faultWeak) / 100,
			StuckLines:   *faultStuck,
			SpareLines:   *spares,
		}
	}
	designs, err := parseDesigns(*designFlag)
	if err != nil {
		fatal(err)
	}

	// A recorded trace is parsed once and replayed read-only by every
	// design's private machine.
	var traceOps []trace.Op
	if *traceFile != "" {
		var err error
		traceOps, err = parseTraceFile(*traceFile)
		if err != nil {
			fatal(err)
		}
	}
	runOne := func(d string) (sim.Result, error) {
		if traceOps != nil {
			c := cfg
			c.Design = d
			mach, err := sim.New(c)
			if err != nil {
				return sim.Result{}, err
			}
			return mach.Run(*traceFile, traceOps), nil
		}
		return sim.RunBenchmark(d, *bench, *ops, *seed, cfg)
	}

	results := make([]sim.Result, len(designs))
	errs := make([]error, len(designs))
	conc := *parallel
	if conc < 1 {
		conc = 1
	}
	if conc > len(designs) {
		conc = len(designs)
	}
	var wg sync.WaitGroup
	in := make(chan int)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range in {
				results[i], errs[i] = runOne(designs[i])
			}
		}()
	}
	for i := range designs {
		in <- i
	}
	close(in)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			fatal(err)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		var err error
		if len(results) == 1 {
			err = enc.Encode(results[0]) // back-compat: single object
		} else {
			err = enc.Encode(results)
		}
		if err != nil {
			fatal(err)
		}
	} else {
		for _, r := range results {
			fmt.Print(Render(r, cfg.Faults != nil))
		}
	}
	// A machine that ended the run read-only is a distinguished,
	// scriptable outcome: every result was still produced and verified,
	// but the media exhausted its spare pool along the way. Exit 3
	// separates it from success (0) and hard errors (1).
	for _, r := range results {
		if r.Health == store.HealthReadOnly.String() {
			os.Exit(3)
		}
	}
}

// parseDesigns expands the -design flag: a single name, a
// comma-separated list, or "all" for the paper's five designs. Every
// name is validated against the design registry up front, so a typo
// fails fast with the registered names instead of a late engine error.
func parseDesigns(s string) ([]string, error) {
	if s == "all" {
		return sim.Designs(), nil
	}
	var out []string
	for _, d := range strings.Split(s, ",") {
		if d = strings.TrimSpace(d); d == "" {
			continue
		}
		if _, ok := design.Lookup(d); !ok {
			return nil, design.UnknownError(d)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-design %q names no designs", s)
	}
	return out, nil
}

// parseTraceFile loads a recorded trace from disk.
func parseTraceFile(path string) ([]trace.Op, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Parse(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccnvm-sim:", err)
	os.Exit(1)
}

// Render formats one result as a detailed report. The fault section is
// printed only when a fault model was installed, keeping the default
// output identical to earlier releases.
func Render(r sim.Result, faults bool) string {
	t := report.NewTable(fmt.Sprintf("%s on %s", sim.DesignLabel(r.Design), r.Workload), "value")
	t.AddRow("instructions", fmt.Sprintf("%d", r.Instructions))
	t.AddRow("cycles", fmt.Sprintf("%d", r.Cycles))
	t.AddRow("IPC", fmt.Sprintf("%.4f", r.IPC))
	t.AddRow("NVM reads", fmt.Sprintf("%d", r.NVMReads))
	t.AddRow("NVM writes total", fmt.Sprintf("%d", r.NVMWrites.Total()))
	t.AddRow("  data", fmt.Sprintf("%d", r.NVMWrites.Data))
	t.AddRow("  hmac", fmt.Sprintf("%d", r.NVMWrites.HMAC))
	t.AddRow("  counter", fmt.Sprintf("%d", r.NVMWrites.Counter))
	t.AddRow("  tree", fmt.Sprintf("%d", r.NVMWrites.Tree))
	t.AddRow("L1 hit ratio", fmt.Sprintf("%.4f", r.L1.HitRatio()))
	t.AddRow("L2 hit ratio", fmt.Sprintf("%.4f", r.L2.HitRatio()))
	t.AddRow("meta hit ratio", fmt.Sprintf("%.4f", r.Meta.HitRatio()))
	t.AddRow("LLC write-backs", fmt.Sprintf("%d", r.Sec.Writebacks))
	t.AddRow("memory reads (engine)", fmt.Sprintf("%d", r.Sec.Reads))
	t.AddRow("HMAC ops", fmt.Sprintf("%d", r.Sec.HMACOps))
	t.AddRow("AES ops", fmt.Sprintf("%d", r.Sec.AESOps))
	t.AddRow("integrity violations", fmt.Sprintf("%d", r.Sec.IntegrityViolations))
	t.AddRow("counter overflows", fmt.Sprintf("%d", r.Sec.CounterOverflows))
	t.AddRow("stale-counter retries", fmt.Sprintf("%d", r.Sec.StaleCounterRetries))
	t.AddRow("drains", fmt.Sprintf("%d", r.Sec.Drains))
	t.AddRow("  queue-full", fmt.Sprintf("%d", r.Sec.DrainQueueFull))
	t.AddRow("  meta-evict", fmt.Sprintf("%d", r.Sec.DrainEvict))
	t.AddRow("  update-limit", fmt.Sprintf("%d", r.Sec.DrainUpdateLimit))
	t.AddRow("drain lines flushed", fmt.Sprintf("%d", r.Sec.DrainLinesFlushed))
	t.AddRow("avg epoch length (wb)", fmt.Sprintf("%.1f", r.AvgEpochLen))
	t.AddRow("wb buffer stalls", fmt.Sprintf("%d", r.Sec.WritebackBufferStalls))
	t.AddRow("WPQ full stalls", fmt.Sprintf("%d", r.Ctrl.WPQFullStalls))
	t.AddRow("max line wear", fmt.Sprintf("%d", r.MaxWear))
	if faults {
		t.AddRow("read retries", fmt.Sprintf("%d", r.Ctrl.ReadRetries))
		t.AddRow("read retry cycles", fmt.Sprintf("%d", r.Ctrl.ReadRetryCycles))
		t.AddRow("permanent read errors", fmt.Sprintf("%d", r.Ctrl.PermanentReadErrors))
		t.AddRow("scrubbed lines", fmt.Sprintf("%d", r.Ctrl.ScrubbedLines))
		t.AddRow("scrub remapped", fmt.Sprintf("%d", r.Ctrl.ScrubRemapped))
	}
	// The media-management section appears only when the run armed a
	// finite spare pool, so faultless (and infinite-pool) output is
	// byte-identical to earlier releases.
	if r.Spares.Finite() {
		t.AddRow("health", r.Health)
		t.AddRow("spares used", fmt.Sprintf("%d/%d", r.Spares.Used, r.Spares.Total))
		t.AddRow("remaps this boot", fmt.Sprintf("%d", r.Spares.Remaps))
		t.AddRow("remaps refused", fmt.Sprintf("%d", r.Spares.Refused))
		t.AddRow("retry-exhaustion remaps", fmt.Sprintf("%d", r.Ctrl.RetryRemapped))
		t.AddRow("refused writes", fmt.Sprintf("%d", r.Ctrl.RefusedWrites))
		t.AddRow("refused epochs", fmt.Sprintf("%d", r.Ctrl.RefusedEpochs))
		t.AddRow("refused stores", fmt.Sprintf("%d", r.RefusedStores))
	}
	return t.String()
}
