// Command ccnvm-recover demonstrates crash recovery and attack
// location (paper §4.4): it runs a workload on a chosen design, crashes
// the machine mid-epoch, optionally injects an integrity attack into
// the NVM image, and then runs the four-step recovery, reporting what
// was detected, what was located, and whether the data survives.
//
// With -reboots N the demo also crashes recovery itself: each Apply
// pass is interrupted at its -reboot-every-th persisted recovery write,
// the machine "reboots", and the next recovery resumes from the
// persisted recovery journal instead of restarting blind, until a final
// uninterrupted pass commits.
//
// Usage:
//
//	ccnvm-recover -design ccnvm -attack none      # clean crash
//	ccnvm-recover -design ccnvm -attack spoof     # located
//	ccnvm-recover -design ccnvm -attack splice    # located at both blocks
//	ccnvm-recover -design ccnvm -attack replay    # detected via Nwb
//	ccnvm-recover -design ccnvm -attack tree      # located by step 1
//	ccnvm-recover -design osiris -attack replay   # detected, NOT located
//	ccnvm-recover -design ccnvm-ext -attack replay # located to the page (§4.4 ext)
//	ccnvm-recover -design ccnvm -reboots 4        # crash recovery itself, 4 times
//	ccnvm-recover -design ccnvm -json             # machine-readable report
//
// Exit status: 0 when the report is clean or lossless, 1 on usage or
// setup errors, 2 when recovery reports an image that is neither clean
// nor lossless — tampering was detected and the machine must not
// resume on this image unexamined.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ccnvm"
)

func main() {
	design := flag.String("design", ccnvm.DesignCCNVM, "design: "+strings.Join(ccnvm.AllDesigns(), ", "))
	kind := flag.String("attack", "none", "attack: none, spoof, splice, replay, tree")
	bench := flag.String("benchmark", "gcc", "workload")
	ops := flag.Int("ops", 30000, "memory operations before the crash")
	seed := flag.Int64("seed", 1, "workload seed")
	reboots := flag.Int("reboots", 0, "crash recovery itself this many times before letting it finish")
	revery := flag.Int("reboot-every", 2, "strike the k-th persisted recovery write of each interrupted pass")
	jsonOut := flag.Bool("json", false, "emit the outcome as JSON")
	flag.Parse()

	out, err := run(*design, *kind, *bench, *ops, *seed, *reboots, *revery, !*jsonOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccnvm-recover:", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "ccnvm-recover:", err)
			os.Exit(1)
		}
	}
	if !out.Report.Clean() && !out.Report.Lossless() {
		os.Exit(2)
	}
}

// rebootPass records one interrupted recovery pass of the -reboots loop.
type rebootPass struct {
	Pass      int  `json:"pass"`
	Plan      int  `json:"plan"`   // line writes the pass planned
	Writes    int  `json:"writes"` // persisted writes issued (incl. the struck one)
	Committed bool `json:"committed"`
	Resumed   bool `json:"resumed"` // the re-entered recovery resumed from the journal
}

// outcome is the machine-readable result of one demo run.
type outcome struct {
	Design  string                `json:"design"`
	Attack  string                `json:"attack"`
	Reboots int                   `json:"reboots,omitempty"`
	Passes  []rebootPass          `json:"passes,omitempty"`
	Report  *ccnvm.RecoveryReport `json:"report"`
	Verdict string                `json:"verdict"`
}

func run(design, kind, bench string, ops int, seed int64, reboots, revery int, chatty bool) (*outcome, error) {
	say := func(format string, args ...interface{}) {
		if chatty {
			fmt.Printf(format, args...)
		}
	}
	p, err := ccnvm.ProfileByName(bench)
	if err != nil {
		return nil, err
	}
	g, err := ccnvm.NewGenerator(p, seed)
	if err != nil {
		return nil, err
	}
	stream := ccnvm.CollectOps(g, ops)

	m, err := ccnvm.NewMachine(ccnvm.Config{Design: design})
	if err != nil {
		return nil, err
	}

	say("running %d ops of %s on %s, then crashing mid-epoch...\n",
		ops, bench, ccnvm.DesignLabel(design))

	// The replay attack of Figure 4 needs a precise window: a snapshot of
	// a block's persistent state followed by further write-backs to the
	// same block inside one epoch (no drain between them). Script that
	// window explicitly; the other attacks just run the trace and crash.
	var early *ccnvm.NVMImage
	var victim ccnvm.Addr
	var img *ccnvm.CrashImage
	if kind == "replay" {
		m.Run(bench, stream)
		// One write-back to a dedicated victim page far outside the
		// workload footprint, then snapshot, then two more write-backs —
		// few enough that no draining trigger separates them from the
		// crash.
		victim = ccnvm.Addr(512 << 20)
		m.Run(bench, writeBackTail(victim, 1))
		early = m.Snapshot()
		m.Run(bench, writeBackTail(victim, 2))
		img = m.Crash()
	} else {
		_, img = m.RunWithCrash(bench, stream, ops)
		victim = firstDataAddr(img)
	}
	say("crash image: %d NVM lines, Nwb=%d\n", img.Image.Store.Len(), img.TCB.Nwb)

	switch kind {
	case "none":
	case "spoof":
		if err := ccnvm.SpoofData(img, victim); err != nil {
			return nil, err
		}
		say("injected: spoofed data block %#x\n", uint64(victim))
	case "splice":
		b := lastDataAddr(img)
		if err := ccnvm.SpliceData(img, victim, b); err != nil {
			return nil, err
		}
		say("injected: spliced blocks %#x <-> %#x\n", uint64(victim), uint64(b))
	case "replay":
		if err := ccnvm.ReplayBlock(img, early, victim); err != nil {
			return nil, err
		}
		say("injected: replayed block %#x (and its HMAC) to an older version\n", uint64(victim))
	case "tree":
		if err := ccnvm.SpoofTreeNode(img, 1, firstTreeIdx(img)); err != nil {
			return nil, err
		}
		say("injected: corrupted a level-1 Merkle tree node\n")
	default:
		return nil, fmt.Errorf("unknown attack %q", kind)
	}

	rep := ccnvm.Recover(img)
	out := &outcome{Design: design, Attack: kind, Reboots: reboots, Report: rep}

	// The reboot loop: crash recovery itself, reboot, resume, repeat.
	if reboots > 0 {
		say("\nreboot loop: striking every %d-th persisted recovery write, up to %d reboots\n", revery, reboots)
		done := false
		for pass := 1; pass <= reboots && !done; pass++ {
			itr := &ccnvm.RecoveryInterrupt{After: revery, Seq: uint64(pass)}
			_, ok := ccnvm.ApplyRecoveryInterrupted(img, rep, itr)
			pr := rebootPass{Pass: pass, Plan: itr.Plan, Writes: itr.Writes, Committed: ok}
			if ok {
				say("  pass %d: committed after %d writes (plan %d lines) — converged early\n",
					pass, itr.Writes, itr.Plan)
				done = true
			} else {
				rep = ccnvm.Recover(img)
				pr.Resumed = rep.Resumed
				say("  pass %d: power failed at write %d of a %d-line plan; journal active=%v, recovery resumed=%v\n",
					pass, itr.Writes, itr.Plan, ccnvm.RecoveryJournalActive(img), rep.Resumed)
			}
			out.Passes = append(out.Passes, pr)
		}
		if !done {
			itr := &ccnvm.RecoveryInterrupt{Seq: uint64(reboots + 1)}
			_, ok := ccnvm.ApplyRecoveryInterrupted(img, rep, itr)
			out.Passes = append(out.Passes, rebootPass{Pass: reboots + 1, Plan: itr.Plan, Writes: itr.Writes, Committed: ok})
			say("  final pass: committed=%v (plan %d lines); journal active=%v\n",
				ok, itr.Plan, ccnvm.RecoveryJournalActive(img))
		}
		out.Report = rep
	}

	say("\nrecovery report:\n")
	say("  consistent NVM tree:     %s\n", orNone(rep.ConsistentRoot))
	say("  counters recovered:      %d blocks across %d lines (Nretry=%d, Nwb=%d)\n",
		rep.RecoveredBlocks, rep.RecoveredLines, rep.Nretry, rep.Nwb)
	say("  located tree mismatches: %d\n", len(rep.TreeMismatches))
	for _, mm := range rep.TreeMismatches {
		say("    - %s\n", mm)
	}
	say("  located tampered blocks: %d\n", len(rep.Tampered))
	for _, tb := range rep.Tampered {
		say("    - %s\n", tb)
	}
	say("  potential replay:        %v\n", rep.PotentialReplay)
	if len(rep.ReplayedPages) > 0 {
		say("  replayed pages (ext):    %d\n", len(rep.ReplayedPages))
		for _, pg := range rep.ReplayedPages {
			say("    - page at %#x\n", uint64(pg))
		}
	}
	switch {
	case rep.Clean():
		out.Verdict = "clean"
		say("\nverdict: CLEAN - tree rebuilt, system resumes with all data intact\n")
	case rep.Located():
		out.Verdict = "located"
		say("\nverdict: ATTACK LOCATED - only the listed blocks are discarded; the rest of NVM survives\n")
	default:
		out.Verdict = "detected"
		say("\nverdict: ATTACK DETECTED but not locatable - all NVM data must be dropped\n")
	}
	return out, nil
}

// writeBackTail builds an op sequence that stores into victim n times,
// forcing each store out to NVM by evicting it through L1/L2 set
// conflicts (32 KiB stride aliases both caches' sets).
func writeBackTail(victim ccnvm.Addr, n int) []ccnvm.Op {
	var ops []ccnvm.Op
	for i := 0; i < n; i++ {
		ops = append(ops, ccnvm.Op{Kind: ccnvm.Store, Addr: victim, Gap: 2})
		for k := 1; k <= 10; k++ {
			ops = append(ops, ccnvm.Op{Kind: ccnvm.Load, Addr: victim + ccnvm.Addr(k*32<<10), Gap: 2})
		}
	}
	return ops
}

// dataAddrs lists the image's written data lines in ascending order.
func dataAddrs(img *ccnvm.CrashImage) []ccnvm.Addr {
	return img.Image.Store.Range(0, ccnvm.Addr(img.Image.Layout.DataBytes))
}

func firstDataAddr(img *ccnvm.CrashImage) ccnvm.Addr {
	if as := dataAddrs(img); len(as) > 0 {
		return as[0]
	}
	return 0
}

func lastDataAddr(img *ccnvm.CrashImage) ccnvm.Addr {
	if as := dataAddrs(img); len(as) > 0 {
		return as[len(as)-1]
	}
	return 0
}

func firstTreeIdx(img *ccnvm.CrashImage) uint64 {
	lay := img.Image.Layout
	for _, a := range img.Image.Store.Range(lay.TreeBase, ccnvm.Addr(lay.TotalBytes())) {
		if level, idx := lay.NodeAt(a); level == 1 {
			return idx
		}
	}
	return 0
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return "ROOT" + s
}
