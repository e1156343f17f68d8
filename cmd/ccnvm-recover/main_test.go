package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"ccnvm/internal/design"
	"ccnvm/internal/experiments"
	"ccnvm/internal/recovery"
)

// result is the part of the -json outcome the tests read.
type result struct {
	Design  string       `json:"design"`
	Attack  string       `json:"attack"`
	Passes  []rebootPass `json:"passes"`
	Verdict string       `json:"verdict"`
}

// runJSON runs the command with -json and decodes its outcome; err is
// run's error (nil or errUnsafe).
func runJSON(t *testing.T, args ...string) (result, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(append(args, "-json"), &out)
	if err != nil && !errors.Is(err, errUnsafe) {
		t.Fatalf("run %v: %v", args, err)
	}
	var r result
	if jerr := json.Unmarshal(out.Bytes(), &r); jerr != nil {
		t.Fatalf("run %v: decode: %v\n%s", args, jerr, out.Bytes())
	}
	return r, err
}

// TestVerdictsMatchRecoveryMatrix: every cell the command runs is the
// recovery matrix's cell — same verdict, w/o CC's unrecoverable row
// included — and the command exits 2 exactly when the cell's recovery
// report is neither clean nor lossless.
func TestVerdictsMatchRecoveryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is slow")
	}
	m, err := experiments.RunRecoveryMatrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range m.Designs {
		for _, a := range experiments.Attacks() {
			r, err := runJSON(t, "-design", d, "-attack", a)
			if want := m.Verdicts[d][a].String(); r.Verdict != want {
				t.Errorf("%s/%s: verdict %q, matrix says %q", d, a, r.Verdict, want)
			}
			img, serr := experiments.Scenario(d, a)
			if serr != nil {
				t.Fatal(serr)
			}
			rep := recovery.Recover(img)
			if unsafe := !rep.Clean() && !rep.Lossless(); errors.Is(err, errUnsafe) != unsafe {
				t.Errorf("%s/%s: run error %v, want exit 2 = %v", d, a, err, unsafe)
			}
		}
	}
}

// TestUsageErrors: the flags of the command's own workload and its old
// attack names are gone, and recovery-loop counts that would run no
// pass or strike no write are refused.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-benchmark", "gcc"}, {"-ops", "1000"}, {"-seed", "2"},
		{"-attack", "replay"}, {"-attack", "tree"}, {"-design", "nosuch"},
		{"-reboots", "-1"}, {"-reboot-every", "0"}, {"-reboot-every", "-3"},
	} {
		if err := run(args, new(bytes.Buffer)); !errors.Is(err, errUsage) {
			t.Errorf("run %v = %v, want a usage error", args, err)
		}
	}
}

// TestRebootLoopEndsLocated: crashing recovery itself twice records
// each pass and still ends with the spoofed block located.
func TestRebootLoopEndsLocated(t *testing.T) {
	r, err := runJSON(t, "-design", design.CCNVM, "-attack", "spoof", "-reboots", "2")
	if !errors.Is(err, errUnsafe) {
		t.Errorf("run error %v, want exit 2 for a spoofed image", err)
	}
	if len(r.Passes) == 0 || !r.Passes[len(r.Passes)-1].Committed {
		t.Fatalf("passes %+v: want recorded passes ending in a commit", r.Passes)
	}
	for _, p := range r.Passes[:len(r.Passes)-1] {
		if p.Committed || !p.Resumed {
			t.Errorf("interrupted pass %+v: want uncommitted and resumed", p)
		}
	}
	if r.Verdict != experiments.VerdictLocated.String() {
		t.Errorf("verdict %q, want %q", r.Verdict, experiments.VerdictLocated)
	}
}
