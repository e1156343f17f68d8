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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/report"
	"ccnvm/internal/sim"
	"ccnvm/internal/trace"
)

// errUsage reports a command line the flag package has already
// complained about on stderr.
var errUsage = errors.New("bad command line")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "ccnvm-sim:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, runs every selected design
// and writes the reports or JSON to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ccnvm-sim", flag.ContinueOnError)
	designFlag := fs.String("design", design.CCNVM,
		"design ("+strings.Join(design.Names(), ", ")+"), a comma-separated list, or \"all\" for the paper's five")
	bench := fs.String("benchmark", "gcc", "workload: one of the eight SPEC stand-ins")
	ops := fs.Int("ops", 300000, "memory operations")
	seed := fs.Int64("seed", 1, "workload seed")
	n := fs.Uint64("n", 16, "update-times limit N")
	m := fs.Int("m", 64, "dirty address queue entries M")
	capacity := fs.Uint64("capacity", 16<<30, "NVM capacity in bytes")
	traceFile := fs.String("trace", "", "replay a recorded trace file instead of a generated workload")
	parallel := fs.Int("parallel", runtime.NumCPU(), "concurrent simulations when multiple designs are given")
	asJSON := fs.Bool("json", false, "emit the result as JSON (an array when multiple designs are given)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	cfg := sim.Config{
		Capacity: *capacity,
		Params:   engine.Params{UpdateLimit: *n, QueueEntries: *m},
	}
	designs, err := parseDesigns(*designFlag)
	if err != nil {
		return err
	}

	// A recorded trace is parsed once and replayed read-only by every
	// design's private machine.
	var traceOps []trace.Op
	if *traceFile != "" {
		if traceOps, err = parseTraceFile(*traceFile); err != nil {
			return err
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
	conc := min(max(*parallel, 1), len(designs))
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
			return err
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if len(results) == 1 {
			return enc.Encode(results[0]) // back-compat: single object
		}
		return enc.Encode(results)
	}
	for _, r := range results {
		if _, err := fmt.Fprint(stdout, Render(r)); err != nil {
			return err
		}
	}
	return nil
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

// Render formats one result as a detailed report.
func Render(r sim.Result) string {
	t := report.NewTable(fmt.Sprintf("%s on %s", design.Label(r.Design), r.Workload), "value")
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
	return t.String()
}
