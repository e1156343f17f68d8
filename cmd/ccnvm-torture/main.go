// Command ccnvm-torture runs the differential crash/attack torture
// matrix: (design x workload x crash point x attack) cells, each
// executed to a crash image, recovered, and checked against the shared
// oracle set (see internal/torture). Failures are minimized by the
// shrinker and printed as one-line repro commands.
//
// Usage:
//
//	ccnvm-torture -seeds 32 -designs all            # full sweep
//	ccnvm-torture -designs ccnvm,sc -attacks spoof  # a slice
//	ccnvm-torture -json                             # machine-readable summary
//	ccnvm-torture -repro 'design=ccnvm,workload=hot,seed=3,ops=160,crash=80,attack=spoof,n=4,m=0'
//	ccnvm-torture -break skip-counter-replay        # prove the oracles bite
//	ccnvm-torture -reboots 4                        # crash recovery itself, re-enter, check convergence
//	ccnvm-torture -reboots 4 -reboot-every 2,3      # choose the strike strides
//	ccnvm-torture -spares 3                         # finite spare pools: heal, degrade, go read-only
//	ccnvm-torture -guided                           # ordering-aware crash points + edge-coverage table
//	ccnvm-torture -kv -reboots 2                    # crash the KV namespace at every write boundary
//	ccnvm-torture -kv -kv-compact 2                 # add the log-compaction crash axis
//	ccnvm-torture -repro 'design=ccnvm,workload=kv,seed=7,batches=5,crash=12,compact=2'
//	ccnvm-torture -campaign docs/status/durability_report.md  # regenerate the durability report
//	ccnvm-torture -oracles                          # print the oracle table (markdown)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ccnvm/internal/design"
	"ccnvm/internal/torture"
)

func main() {
	var (
		designs     = flag.String("designs", "all", `comma-separated designs, "all", or "paper"`)
		workloads   = flag.String("workloads", "", "comma-separated workloads (default: all)")
		attacks     = flag.String("attacks", "", `comma-separated attacks incl. "none" (default: all)`)
		seeds       = flag.Int("seeds", 4, "trace seeds per combination")
		ops         = flag.Int("ops", 240, "trace length per cell")
		crashPts    = flag.Int("crashpoints", 3, "crash points per trace")
		faultSeeds  = flag.Int("faultseeds", 0, "media-fault seeds per design/workload, cycled through the fault profiles (0 = no fault cells)")
		reboots     = flag.Int("reboots", 0, "reboot-loop cells: interrupt recovery this many times per cell (0 = no reboot cells)")
		spares      = flag.Int("spares", 0, "finite-spare cells: sweep spare pools from this size down to one line over the weak/stuck fault profiles (0 = no spare cells)")
		rebootEvery = flag.String("reboot-every", "", "comma-separated strike strides for reboot cells (default 2,3,5)")
		budget      = flag.Int("budget", 0, "max cells, evenly sampled after dropping refused cells (0 = run all)")
		guided      = flag.Bool("guided", false, "ordering-aware crash points: profile each trace's persist-ordering graph and schedule one point per distinct edge cut; reports edge coverage vs evenly spaced points")
		kvMode      = flag.Bool("kv", false, "KV-namespace crash cells instead of trace cells: sweep every host-write boundary per design and assert atomic batch recovery (-reboots adds the reboot-loop axis)")
		kvCompact   = flag.Int("kv-compact", 0, "KV compaction crash axis: also sweep cells that compact after every k-th acked batch (0 = no compact cells)")
		campaign    = flag.String("campaign", "", "run the fixed durability campaign and write the report to this markdown path (JSON artifact written beside it); other matrix flags are ignored")
		parallel    = flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 0, "stop dispatching new cells after this duration and report partial results (0 = none)")
		jsonOut     = flag.Bool("json", false, "emit the summary as JSON")
		repro       = flag.String("repro", "", "replay one cell spec and exit")
		breakMode   = flag.String("break", "", "sabotage recovery (modes: "+strings.Join(torture.BrokenModes(), ", ")+")")
		oracles     = flag.Bool("oracles", false, "list the oracles and exit")
		verbose     = flag.Bool("v", false, "print progress")
	)
	flag.Parse()

	if *oracles {
		fmt.Print(torture.OracleTable())
		return
	}

	if *campaign != "" {
		if err := runCampaign(*campaign, *parallel); err != nil {
			fatal(err)
		}
		return
	}

	runner := torture.DefaultRunner()
	if *breakMode != "" {
		r, err := torture.BrokenRunner(*breakMode)
		if err != nil {
			fatal(err)
		}
		runner = r
		// On stderr, so -json output stays one JSON document.
		fmt.Fprintf(os.Stderr, "recovery sabotaged: %s (the matrix SHOULD fail)\n", *breakMode)
	}

	if *repro != "" {
		cell, err := torture.ParseCell(*repro)
		if err != nil {
			fatal(err)
		}
		if f := runner.RunCell(cell); f != nil {
			fmt.Printf("FAIL %v\n", f)
			os.Exit(1)
		}
		fmt.Printf("PASS cell %s satisfies every oracle\n", cell.String())
		return
	}

	designList := splitList(*designs, torture.DesignNames(), map[string][]string{"all": torture.DesignNames(), "paper": torture.PaperDesigns()})
	// Fail fast on a typo'd design name before any cell is enumerated,
	// listing the registered names instead of silently running nothing.
	for _, d := range designList {
		if _, ok := design.Lookup(d); !ok {
			fatal(design.UnknownError(d))
		}
	}
	strides, err := parseStrides(*rebootEvery)
	if err != nil {
		fatal(err)
	}
	opts := torture.MatrixOpts{
		Designs:     designList,
		Workloads:   splitList(*workloads, nil, nil),
		Attacks:     splitList(*attacks, nil, nil),
		Seeds:       *seeds,
		Ops:         *ops,
		CrashPts:    *crashPts,
		FaultSeeds:  *faultSeeds,
		Reboots:     *reboots,
		RebootEvery: strides,
		Spares:      *spares,
		Budget:      *budget,
		KV:          *kvMode,
		KVCompact:   *kvCompact,
	}
	var cells []torture.Cell
	var coverage []torture.CoverageStat
	if *guided {
		cells, coverage, err = torture.EnumerateGuidedCells(opts)
		if err != nil {
			fatal(err)
		}
	} else {
		cells = torture.EnumerateCells(opts)
	}
	if !*jsonOut {
		mode := ""
		if coverage != nil {
			mode = " (guided crash points)"
		}
		designs := map[string]bool{}
		for _, c := range cells {
			designs[c.Design] = true
		}
		fmt.Printf("torture: running %d cells on %d designs%s...\n", len(cells), len(designs), mode)
	}
	var progress func(done, total int, f *torture.Failure)
	if *verbose && !*jsonOut {
		progress = func(done, total int, f *torture.Failure) {
			if f != nil {
				fmt.Printf("  FAIL %v\n", f)
			}
			if done%500 == 0 || done == total {
				fmt.Printf("  %d/%d cells\n", done, total)
			}
		}
	}

	// SIGINT/SIGTERM and -timeout cancel the matrix context: in-flight
	// cells finish, the rest are skipped, and the partial summary is
	// still emitted (including as JSON) before the non-zero exit.
	ctx := context.Background()
	var cancel context.CancelFunc
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	sum := torture.RunMatrix(ctx, runner, cells, *parallel, progress)
	if coverage != nil {
		// Only a guided trace enumeration has coverage rows: -kv sweeps
		// every write boundary, so -guided leaves it unchanged.
		sum.Mode = "guided"
		sum.Coverage = coverage
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("%s [%s]\n", sum.Describe(), time.Since(start).Round(time.Millisecond))
		for _, f := range sum.Failures {
			fmt.Printf("  oracle %s: %s\n    repro: %s (shrunk in %d runs)\n", f.Oracle, f.Detail, f.Repro, f.ShrinkRuns)
		}
		fmt.Print(torture.DescribeCoverage(coverage))
	}
	if sum.Failed() || sum.Interrupted {
		os.Exit(1)
	}
}

// runCampaign executes the fixed durability campaign and writes the
// markdown report to mdPath plus the JSON artifact beside it (same name,
// .json extension). Both outputs are deterministic: `make campaign-short`
// regenerates them and asserts byte-identity against the committed pair.
func runCampaign(mdPath string, parallel int) error {
	jsonPath := strings.TrimSuffix(mdPath, filepath.Ext(mdPath)) + ".json"
	res, err := torture.RunCampaign(context.Background(), torture.DefaultCampaignOpts(), parallel)
	if err != nil {
		return err
	}
	md := res.RenderMarkdown(filepath.Base(jsonPath))
	js, err := res.RenderJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(mdPath, md, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, js, 0o644); err != nil {
		return err
	}
	fmt.Printf("campaign: %d cells -> %s, %s\n", res.Cells, mdPath, jsonPath)
	if !res.Healthy() {
		return fmt.Errorf("campaign unhealthy: oracle failures observed or the sabotage self-test regressed (see %s)", mdPath)
	}
	return nil
}

// splitList parses a comma-separated flag value; aliases map special
// values ("all", "paper") to full lists. Empty input returns def (nil
// lets MatrixOpts fill its own default).
func splitList(s string, def []string, aliases map[string][]string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return def
	}
	if alias, ok := aliases[s]; ok {
		return alias
	}
	var out []string
	for _, x := range strings.Split(s, ",") {
		if x = strings.TrimSpace(x); x != "" {
			out = append(out, x)
		}
	}
	return out
}

// parseStrides parses the -reboot-every list; empty lets MatrixOpts
// fill its default.
func parseStrides(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, x := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(x))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -reboot-every stride %q (want positive integers)", x)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccnvm-torture:", err)
	os.Exit(1)
}
