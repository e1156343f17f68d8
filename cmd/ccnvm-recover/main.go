// Command ccnvm-recover runs one cell of the §4.4 recovery matrix
// (experiments.RunRecoveryMatrix, `ccnvm-bench -recovery`) and shows
// its working: it crashes the chosen design mid-epoch under the chosen
// attack, runs the four-step recovery, and prints the recovery report
// and the cell's verdict.
//
// With -reboots N the run also crashes recovery itself: each Apply
// pass is interrupted at its -reboot-every-th persisted recovery write,
// the machine "reboots", and the next recovery resumes from the
// persisted recovery journal instead of restarting blind, until a final
// uninterrupted pass commits.
//
// Usage:
//
//	ccnvm-recover -design ccnvm -attack none            # clean crash
//	ccnvm-recover -design ccnvm -attack spoof           # located
//	ccnvm-recover -design ccnvm -attack splice          # located at both blocks
//	ccnvm-recover -design ccnvm -attack counter-replay  # located by step 1
//	ccnvm-recover -design ccnvm -attack data-replay     # detected via Nwb
//	ccnvm-recover -design osiris -attack data-replay    # detected, NOT located
//	ccnvm-recover -design ccnvm-ext -attack data-replay # located to the page (§4.4 ext)
//	ccnvm-recover -design wocc -attack spoof            # unrecoverable: its clean crash already fails
//	ccnvm-recover -design ccnvm -reboots 4              # crash recovery itself, 4 times
//	ccnvm-recover -design ccnvm -json                   # machine-readable report
//
// Exit status: 0 when the report is clean or lossless, 1 on usage or
// setup errors, 2 when recovery reports an image that is neither clean
// nor lossless — tampering was detected and the machine must not
// resume on this image unexamined.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"ccnvm/internal/design"
	"ccnvm/internal/experiments"
	"ccnvm/internal/recovery"
)

var (
	// errUsage marks a bad command line.
	errUsage = errors.New("bad command line")
	// errUnsafe reports a recovered image that is neither clean nor
	// lossless.
	errUnsafe = errors.New("image is neither clean nor lossless")
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errUnsafe):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "ccnvm-recover:", err)
		os.Exit(1)
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

// outcome is the machine-readable result of one run.
type outcome struct {
	Design  string              `json:"design"`
	Attack  string              `json:"attack"`
	Reboots int                 `json:"reboots,omitempty"`
	Passes  []rebootPass        `json:"passes,omitempty"`
	Report  *recovery.Report    `json:"report"`
	Verdict experiments.Verdict `json:"verdict"`
}

// meaning spells out what each verdict leaves of the NVM.
var meaning = map[experiments.Verdict]string{
	experiments.VerdictClean:     "tree rebuilt, system resumes with all data intact",
	experiments.VerdictMissed:    "the attack went unreported",
	experiments.VerdictDetected:  "attack detected but not locatable - all NVM data must be dropped",
	experiments.VerdictLocated:   "only the listed blocks are discarded; the rest of NVM survives",
	experiments.VerdictUnrecover: "even a clean crash fails recovery: stale counters cannot be told from tampering, so all NVM data must be dropped",
}

// run is the whole command: it parses args, runs the matrix cell and
// writes the report or JSON to stdout. It returns errUnsafe when the
// recovered image is neither clean nor lossless.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ccnvm-recover", flag.ContinueOnError)
	designName := fs.String("design", design.CCNVM, "design: "+strings.Join(design.Names(), ", "))
	att := fs.String("attack", "none", "attack: "+strings.Join(experiments.Attacks(), ", "))
	reboots := fs.Int("reboots", 0, "crash recovery itself this many times before letting it finish")
	revery := fs.Int("reboot-every", 2, "strike the k-th persisted recovery write of each interrupted pass")
	jsonOut := fs.Bool("json", false, "emit the outcome as JSON")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	switch {
	case !slices.Contains(design.Names(), *designName):
		return fmt.Errorf("%w: -design %q: want one of %s", errUsage, *designName, strings.Join(design.Names(), ", "))
	case !slices.Contains(experiments.Attacks(), *att):
		return fmt.Errorf("%w: -attack %q: want one of %s", errUsage, *att, strings.Join(experiments.Attacks(), ", "))
	case *reboots < 0:
		return fmt.Errorf("%w: -reboots %d: must not be negative", errUsage, *reboots)
	case *revery < 1:
		return fmt.Errorf("%w: -reboot-every %d: must be at least 1", errUsage, *revery)
	}
	say := func(format string, args ...any) {
		if !*jsonOut {
			fmt.Fprintf(stdout, format, args...)
		}
	}

	img, err := experiments.Scenario(*designName, *att)
	if err != nil {
		return err
	}
	say("%s under attack %q: crash image of %d NVM lines, Nwb=%d\n",
		design.Label(*designName), *att, img.Image.Store.Len(), img.TCB.Nwb)
	rep := recovery.Recover(img)
	out := &outcome{Design: *designName, Attack: *att, Reboots: *reboots}

	// The reboot loop: crash recovery itself, reboot, resume, repeat.
	if *reboots > 0 {
		say("\nreboot loop: striking every %d-th persisted recovery write, up to %d reboots\n", *revery, *reboots)
		done := false
		for pass := 1; pass <= *reboots && !done; pass++ {
			itr := &recovery.Interrupt{After: *revery, Seq: uint64(pass)}
			_, ok := recovery.ApplyInterrupted(img, rep, itr)
			pr := rebootPass{Pass: pass, Plan: itr.Plan, Writes: itr.Writes, Committed: ok}
			if ok {
				say("  pass %d: committed after %d writes (plan %d lines) — converged early\n",
					pass, itr.Writes, itr.Plan)
				done = true
			} else {
				rep = recovery.Recover(img)
				pr.Resumed = rep.Resumed
				say("  pass %d: power failed at write %d of a %d-line plan; journal active=%v, recovery resumed=%v\n",
					pass, itr.Writes, itr.Plan, recovery.JournalActive(img), rep.Resumed)
			}
			out.Passes = append(out.Passes, pr)
		}
		if !done {
			itr := &recovery.Interrupt{Seq: uint64(*reboots + 1)}
			_, ok := recovery.ApplyInterrupted(img, rep, itr)
			out.Passes = append(out.Passes, rebootPass{Pass: *reboots + 1, Plan: itr.Plan, Writes: itr.Writes, Committed: ok})
			say("  final pass: committed=%v (plan %d lines); journal active=%v\n",
				ok, itr.Plan, recovery.JournalActive(img))
		}
	}
	out.Report = rep
	out.Verdict = experiments.Judge(*att, rep)
	if *att != "none" {
		clean, err := experiments.CleanCrash(*designName)
		if err != nil {
			return err
		}
		out.Verdict = experiments.Attribute(clean, out.Verdict)
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
	say("\nverdict: %s - %s\n", out.Verdict, meaning[out.Verdict])

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	}
	if !rep.Clean() && !rep.Lossless() {
		return errUnsafe
	}
	return nil
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return "ROOT" + s
}
