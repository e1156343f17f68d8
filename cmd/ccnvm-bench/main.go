// Command ccnvm-bench regenerates the paper's evaluation: Figure 5(a)
// system IPC, Figure 5(b) NVM write traffic, Figure 6(a)/(b) trigger
// sensitivity, and the headline summary claims. Results are printed as
// fixed-width tables normalized to the w/o-CC baseline, matching the
// figures' series. Simulations run in parallel by default (one machine
// per worker); results are bit-identical at any parallelism.
//
// Usage:
//
//	ccnvm-bench -fig all            # everything (default)
//	ccnvm-bench -fig 5a -ops 500000 # one figure, bigger traces
//	ccnvm-bench -summary            # headline claims only
//	ccnvm-bench -fig 5 -json        # machine-readable output
//	ccnvm-bench -fig 5 -cpuprofile cpu.out -parallel 1
//	ccnvm-bench -ledger BENCH_6.json          # measure + pin the perf ledger
//	ccnvm-bench -check . -ops 20000           # regression-gate vs newest BENCH_*.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/experiments"
	"ccnvm/internal/perf"
)

// output is the machine-readable (-json) form of a bench run: the
// harness metrics (wall time, simulated-op throughput, memo-table hit
// rates) plus whichever figure datasets were produced.
type output struct {
	WallSeconds float64 `json:"wall_seconds"`
	SimOps      int64   `json:"sim_ops"`        // simulated memory operations, all cells
	OpsPerSec   float64 `json:"ops_per_sec"`    // SimOps / WallSeconds
	Parallelism int     `json:"parallelism"`    // worker count used
	MemoStats   *memo   `json:"memo,omitempty"` // crypto memo-table hit rates (Fig5 cells)

	Fig5     *experiments.Fig5     `json:"fig5,omitempty"`
	Headline *experiments.Headline `json:"headline,omitempty"`
	Fig6a    *experiments.Fig6     `json:"fig6a,omitempty"`
	Fig6b    *experiments.Fig6     `json:"fig6b,omitempty"`
	Lifetime *experiments.Lifetime `json:"lifetime,omitempty"`
}

// memo aggregates the crypto memo-table counters over every Fig5 cell.
type memo struct {
	PadHitRatio     float64 `json:"pad_hit_ratio"`
	DataHitRatio    float64 `json:"data_hmac_hit_ratio"`
	NodeHitRatio    float64 `json:"node_hmac_hit_ratio"`
	DefaultHitRatio float64 `json:"default_line_hit_ratio"`
	Overall         float64 `json:"overall_hit_ratio"`
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5a, 5b, 5, 6a, 6b, 6, all")
	summary := flag.Bool("summary", false, "print only the headline claims")
	lifetime := flag.String("lifetime", "", "also print the NVM endurance table for this workload (e.g. lbm)")
	recoveryTab := flag.Bool("recovery", false, "also print the design x attack recovery matrix")
	csvDir := flag.String("csv", "", "also write fig5.csv / fig6a.csv / fig6b.csv into this directory")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	ops := flag.Int("ops", 300000, "memory operations per trace")
	warmup := flag.Int("warmup", 0, "warm-up operations excluded from statistics")
	seed := flag.Int64("seed", 1, "workload seed")
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrent simulations")
	benchList := flag.String("benchmarks", "", "comma-separated benchmark subset (default: all eight)")
	ledgerPath := flag.String("ledger", "", "measure the performance ledger and pin it to this file (e.g. BENCH_6.json), then exit")
	checkDir := flag.String("check", "", "measure a fresh ledger and regression-gate it against the newest BENCH_*.json in this directory, then exit")
	kvConns := flag.Int("kvconns", 1024, "ledger mode: concurrent connections for the KV serving row (0 = skip the KV measurement)")
	kvOps := flag.Int("kvops", 8, "ledger mode: batch requests per KV connection")
	churnMult := flag.Int("churn", 4, "ledger mode: sustained-churn log-capacity multiple (0 = skip the churn measurement)")
	flag.Parse()

	// Profiles cover every mode, the ledger's KV serving rows included.
	defer startProfiles(*cpuProfile, *memProfile)()

	if *ledgerPath != "" || *checkDir != "" {
		runLedger(*ledgerPath, *checkDir, *ops, *seed, *benchList, *kvConns, *kvOps, *churnMult)
		return
	}

	o := experiments.Options{Ops: *ops, Warmup: *warmup, Seed: *seed, Parallelism: *parallel}
	if *benchList != "" {
		o.Benchmarks = strings.Split(*benchList, ",")
	}

	runFig5 := *summary || *fig == "all" || strings.HasPrefix(*fig, "5")
	runF6a := !*summary && (*fig == "all" || *fig == "6" || *fig == "6a")
	runF6b := !*summary && (*fig == "all" || *fig == "6" || *fig == "6b")

	out := output{Parallelism: *parallel}
	start := time.Now()
	if runFig5 {
		f5, err := experiments.RunFig5(o)
		if err != nil {
			fatal(err)
		}
		h := f5.Headline()
		out.Fig5, out.Headline = f5, &h
		out.MemoStats = memoStats(f5)
		// One implicit w/o-CC baseline run joins the matrix when absent.
		out.SimOps += cellOps(f5, o)
		if !*asJSON {
			if !*summary && (*fig == "all" || *fig == "5" || *fig == "5a") {
				fmt.Println(f5.IPCTable())
			}
			if !*summary && (*fig == "all" || *fig == "5" || *fig == "5b") {
				fmt.Println(f5.WriteTable())
			}
			fmt.Println(h)
		}
		if *csvDir != "" {
			if err := writeFile(filepath.Join(*csvDir, "fig5.csv"), f5.WriteCSV); err != nil {
				fatal(err)
			}
		}
	}
	if runF6a {
		f6, err := experiments.RunFig6a(o, nil)
		if err != nil {
			fatal(err)
		}
		out.Fig6a = f6
		out.SimOps += sweepOps(f6, o)
		if !*asJSON {
			fmt.Println(f6.Tables())
		}
		if *csvDir != "" {
			if err := writeFile(filepath.Join(*csvDir, "fig6a.csv"), f6.WriteCSV); err != nil {
				fatal(err)
			}
		}
	}
	if runF6b {
		f6, err := experiments.RunFig6b(o, nil)
		if err != nil {
			fatal(err)
		}
		out.Fig6b = f6
		out.SimOps += sweepOps(f6, o)
		if !*asJSON {
			fmt.Println(f6.Tables())
		}
		if *csvDir != "" {
			if err := writeFile(filepath.Join(*csvDir, "fig6b.csv"), f6.WriteCSV); err != nil {
				fatal(err)
			}
		}
	}
	if *lifetime != "" {
		lt, err := experiments.RunLifetime(o, *lifetime)
		if err != nil {
			fatal(err)
		}
		out.Lifetime = lt
		out.SimOps += int64(len(lt.Designs)) * int64(*ops)
		if !*asJSON {
			fmt.Println(lt.Table(*lifetime))
		}
	}
	if *recoveryTab {
		rm, err := experiments.RunRecoveryMatrix(nil)
		if err != nil {
			fatal(err)
		}
		if !*asJSON {
			fmt.Println(rm.Table())
		}
	}
	out.WallSeconds = time.Since(start).Seconds()
	if out.WallSeconds > 0 {
		out.OpsPerSec = float64(out.SimOps) / out.WallSeconds
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	}
}

// startProfiles starts the CPU profile, if asked for, and returns the
// function that ends the run's profiling: it stops the CPU profile and
// writes the heap profile. An empty path skips that profile.
func startProfiles(cpuPath, memPath string) (stop func()) {
	var cpu *os.File
	if cpuPath != "" {
		var err error
		if cpu, err = os.Create(cpuPath); err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			fatal(err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fatal(err)
			}
		}
		if memPath != "" {
			runtime.GC()
			if err := writeFile(memPath, pprof.WriteHeapProfile); err != nil {
				fatal(err)
			}
		}
	}
}

// runLedger is the perf-ledger mode behind -ledger and -check: it runs
// the sequential design x benchmark measurement plus the parallel tree
// kernel (see internal/perf), then either pins the result to a file or
// gates it against the newest committed BENCH_*.json.
func runLedger(ledgerPath, checkDir string, ops int, seed int64, benchList string, kvConns, kvOps, churnMult int) {
	opts := perf.MeasureOptions{Ops: ops, Seed: seed}
	if benchList != "" {
		opts.Benchmarks = strings.Split(benchList, ",")
	}
	l, err := perf.Measure(opts)
	if err != nil {
		fatal(err)
	}
	if kvConns > 0 {
		l.KV, err = perf.MeasureKV(perf.KVOptions{Conns: kvConns, OpsPerConn: kvOps})
		if err != nil {
			fatal(err)
		}
	}
	if churnMult > 0 {
		l.Churn, err = perf.MeasureChurn(perf.ChurnOptions{Multiple: churnMult})
		if err != nil {
			fatal(err)
		}
	}
	fmt.Print(ledgerSummary(l))
	if ledgerPath != "" {
		if err := l.Save(ledgerPath); err != nil {
			fatal(err)
		}
		fmt.Printf("pinned ledger -> %s\n", ledgerPath)
	}
	if checkDir != "" {
		newest, err := perf.Newest(checkDir)
		if err != nil {
			fatal(err)
		}
		pinned, err := perf.Load(newest)
		if err != nil {
			fatal(err)
		}
		if err := perf.Compare(pinned, l); err != nil {
			fatal(err)
		}
		fmt.Printf("regression gate passed vs %s (tolerance %d%%)\n",
			newest, int(perf.Tolerance*100))
	}
}

// ledgerSummary renders the measurement for humans; the JSON file is
// the canonical record.
func ledgerSummary(l *perf.Ledger) string {
	var b strings.Builder
	fmt.Fprintf(&b, "perf ledger: %s, %d cpu(s), %d ops x %d benchmark(s), seed %d\n",
		l.GoVersion, l.CPUs, l.Ops, len(l.Benchmarks), l.Seed)
	fmt.Fprintf(&b, "  overall: %.0f sim-ops/sec over %.2fs (%.1f allocs/op, memo hit %.3f)\n",
		l.OpsPerSec, l.WallSeconds, l.AllocsPerOp, l.Memo.Overall)
	for _, d := range sortedDesigns(l) {
		fmt.Fprintf(&b, "  %-12s %9.0f ops/sec\n", d, l.Designs[d].OpsPerSec)
	}
	if k := l.KV; k != nil {
		fmt.Fprintf(&b, "  kv serving: %d conns x %d batches: %.0f ops/sec, p50 %.0fus p99 %.0fus p999 %.0fus\n",
			k.Conns, k.OpsPerConn, k.OpsPerSec, k.P50us, k.P99us, k.P999us)
	}
	if c := l.Churn; c != nil {
		fmt.Fprintf(&b, "  kv churn: %dx capacity (%d batches, %d passes): %.0f ops/sec, stalled %.3fs\n",
			c.Multiple, c.Batches, c.Passes, c.OpsPerSec, c.StallSeconds)
	}
	return b.String()
}

func sortedDesigns(l *perf.Ledger) []string {
	out := make([]string, 0, len(l.Designs))
	for d := range l.Designs {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

// cellOps counts the simulated memory operations behind a Fig5 matrix,
// including the implicit w/o-CC baseline column when it was added.
func cellOps(f *experiments.Fig5, o experiments.Options) int64 {
	designs := len(f.Designs)
	hasBase := false
	for _, d := range f.Designs {
		if d == design.BaselineName() {
			hasBase = true
		}
	}
	if !hasBase {
		designs++
	}
	return int64(designs) * int64(len(f.Benchmarks)) * int64(opsOf(o))
}

// sweepOps counts the simulated operations behind a Fig6 sweep: each
// point runs the plotted designs plus the w/o-CC baseline.
func sweepOps(f *experiments.Fig6, o experiments.Options) int64 {
	if len(f.Designs) == 0 {
		return 0
	}
	points := len(f.Points[f.Designs[0]])
	benches := len(o.Benchmarks)
	if benches == 0 {
		benches = 8
	}
	return int64(points) * int64(len(f.Designs)+1) * int64(benches) * int64(opsOf(o))
}

func opsOf(o experiments.Options) int {
	if o.Ops == 0 {
		return 300000
	}
	return o.Ops
}

// memoStats sums the crypto memo counters over all Fig5 cells.
func memoStats(f *experiments.Fig5) *memo {
	var s engine.SecStats
	for _, row := range f.Cells {
		for _, c := range row {
			s.PadCacheHits += c.Raw.Sec.PadCacheHits
			s.PadCacheMisses += c.Raw.Sec.PadCacheMisses
			s.DataMemoHits += c.Raw.Sec.DataMemoHits
			s.DataMemoMisses += c.Raw.Sec.DataMemoMisses
			s.NodeMemoHits += c.Raw.Sec.NodeMemoHits
			s.NodeMemoMisses += c.Raw.Sec.NodeMemoMisses
			s.DefaultLineHits += c.Raw.Sec.DefaultLineHits
			s.DefaultLineMisses += c.Raw.Sec.DefaultLineMisses
		}
	}
	return &memo{
		PadHitRatio:     ratio(s.PadCacheHits, s.PadCacheMisses),
		DataHitRatio:    ratio(s.DataMemoHits, s.DataMemoMisses),
		NodeHitRatio:    ratio(s.NodeMemoHits, s.NodeMemoMisses),
		DefaultHitRatio: ratio(s.DefaultLineHits, s.DefaultLineMisses),
		Overall:         s.MemoHitRatio(),
	}
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// writeFile creates path and streams one table or profile into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccnvm-bench:", err)
	os.Exit(1)
}
