// Command ccnvm-trace generates, inspects and converts workload traces.
// Traces are stored in a compact binary format so an experiment's exact
// instruction stream can be archived and replayed byte-identically by
// ccnvm-sim across machines and versions.
//
// Usage:
//
//	ccnvm-trace -gen gcc -ops 500000 -o gcc.trc     # generate and save
//	ccnvm-trace -info gcc.trc                       # summarize a trace
package main

import (
	"flag"
	"fmt"
	"os"

	"ccnvm/internal/mem"
	"ccnvm/internal/trace"
)

func main() {
	gen := flag.String("gen", "", "benchmark profile to generate")
	ops := flag.Int("ops", 300000, "operations to generate")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("o", "", "output trace file (with -gen)")
	info := flag.String("info", "", "trace file to summarize")
	flag.Parse()

	switch {
	case *gen != "" && *out != "":
		if err := generate(*gen, *ops, *seed, *out); err != nil {
			fatal(err)
		}
	case *info != "":
		if err := summarize(*info); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func generate(bench string, ops int, seed int64, out string) error {
	if ops < 0 {
		return fmt.Errorf("negative op count %d", ops)
	}
	p, err := trace.ProfileByName(bench)
	if err != nil {
		return err
	}
	g, err := trace.NewGenerator(p, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Save(f, trace.Collect(g, ops)); err != nil {
		return err
	}
	fmt.Printf("wrote %d ops of %s (seed %d) to %s\n", ops, bench, seed, out)
	return nil
}

func summarize(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ops, err := trace.Parse(f)
	if err != nil {
		return err
	}
	var stores, deps int
	var instrs uint64
	pages := map[mem.Addr]bool{}
	var maxAddr mem.Addr
	for _, op := range ops {
		instrs += uint64(op.Gap) + 1
		if op.Kind == trace.Store {
			stores++
		}
		if op.Dep {
			deps++
		}
		pages[op.Addr/mem.PageSize] = true
		if op.Addr > maxAddr {
			maxAddr = op.Addr
		}
	}
	fmt.Printf("ops:          %d\n", len(ops))
	fmt.Printf("instructions: %d\n", instrs)
	fmt.Printf("stores:       %d (%.1f%%)\n", stores, 100*float64(stores)/float64(len(ops)))
	fmt.Printf("dep loads:    %d\n", deps)
	fmt.Printf("pages:        %d (footprint %.1f MiB)\n", len(pages), float64(len(pages))*4096/(1<<20))
	fmt.Printf("max address:  %#x\n", uint64(maxAddr))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccnvm-trace:", err)
	os.Exit(1)
}
