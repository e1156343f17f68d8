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
//	ccnvm-bench -fig 5 -json        # the datasets as JSON, nothing host-dependent
//	ccnvm-bench -fig 5 -cpuprofile cpu.out -parallel 1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"ccnvm/internal/experiments"
)

// output is the machine-readable (-json) form of a bench run: whichever
// datasets were produced, nothing about the host or the run's speed, so
// it is byte-identical across commits and -parallel widths.
type output struct {
	Fig5     *experiments.Fig5           `json:"fig5,omitempty"`
	Headline *experiments.Headline       `json:"headline,omitempty"`
	Fig6a    *experiments.Fig6           `json:"fig6a,omitempty"`
	Fig6b    *experiments.Fig6           `json:"fig6b,omitempty"`
	Lifetime *experiments.Lifetime       `json:"lifetime,omitempty"`
	Recovery *experiments.RecoveryMatrix `json:"recovery,omitempty"`
}

// errUsage reports a command line the flag package has already
// complained about on stderr.
var errUsage = errors.New("bad command line")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "ccnvm-bench:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, runs the selected
// experiments and writes tables or JSON to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("ccnvm-bench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 5a, 5b, 5, 6a, 6b, 6, all")
	summary := fs.Bool("summary", false, "print only the headline claims")
	lifetime := fs.String("lifetime", "", "also print the NVM endurance table for this workload (e.g. lbm)")
	recoveryTab := fs.Bool("recovery", false, "also print the design x attack recovery matrix")
	csvDir := fs.String("csv", "", "also write fig5.csv / fig6a.csv / fig6b.csv into this directory")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of tables")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	ops := fs.Int("ops", 300000, "memory operations per trace")
	seed := fs.Int64("seed", 1, "workload seed")
	parallel := fs.Int("parallel", runtime.NumCPU(), "concurrent simulations")
	benchList := fs.String("benchmarks", "", "comma-separated benchmark subset (default: all eight)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if e := stopProfiles(); err == nil {
			err = e
		}
	}()

	o := experiments.Options{Ops: *ops, Seed: *seed, Parallelism: *parallel}
	if *benchList != "" {
		o.Benchmarks = strings.Split(*benchList, ",")
	}
	// show prints one table, unless the run's output is the JSON document.
	show := func(table any) {
		if !*asJSON {
			fmt.Fprintln(stdout, table)
		}
	}
	csv := func(name string, write func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		return writeFile(filepath.Join(*csvDir, name), write)
	}
	want := func(figs ...string) bool { return !*summary && slices.Contains(figs, *fig) }

	var out output
	if *summary || *fig == "all" || strings.HasPrefix(*fig, "5") {
		f5, err := experiments.RunFig5(o)
		if err != nil {
			return err
		}
		h := f5.Headline()
		out.Fig5, out.Headline = f5, &h
		if want("all", "5", "5a") {
			show(f5.IPCTable())
		}
		if want("all", "5", "5b") {
			show(f5.WriteTable())
		}
		show(h)
		if err := csv("fig5.csv", f5.WriteCSV); err != nil {
			return err
		}
	}
	// emitFig6 prints and exports one trigger-sensitivity sweep.
	emitFig6 := func(name string, f6 *experiments.Fig6) error {
		show(f6.Tables())
		return csv(name, f6.WriteCSV)
	}
	if want("all", "6", "6a") {
		if out.Fig6a, err = experiments.RunFig6a(o, nil); err != nil {
			return err
		}
		if err := emitFig6("fig6a.csv", out.Fig6a); err != nil {
			return err
		}
	}
	if want("all", "6", "6b") {
		if out.Fig6b, err = experiments.RunFig6b(o, nil); err != nil {
			return err
		}
		if err := emitFig6("fig6b.csv", out.Fig6b); err != nil {
			return err
		}
	}
	if *lifetime != "" {
		lt, err := experiments.RunLifetime(o, *lifetime)
		if err != nil {
			return err
		}
		out.Lifetime = lt
		show(lt.Table(*lifetime))
	}
	if *recoveryTab {
		rm, err := experiments.RunRecoveryMatrix(nil)
		if err != nil {
			return err
		}
		out.Recovery = rm
		show(rm.Table())
	}
	if !*asJSON {
		return nil
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// startProfiles starts the CPU profile, if asked for, and returns the
// function that ends the run's profiling: it stops the CPU profile and
// writes the heap profile. An empty path skips that profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		runtime.GC()
		return writeFile(memPath, pprof.WriteHeapProfile)
	}, nil
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
