package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"ccnvm/internal/experiments"
)

func runJSON(t *testing.T, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.Bytes()
}

// TestJSONIsDatasetsOnly holds -json to what it is for: the figure
// datasets and nothing about the host, so two runs diff clean at any
// -parallel width, and -recovery's matrix is in the document.
func TestJSONIsDatasetsOnly(t *testing.T) {
	args := []string{"-fig", "5", "-ops", "3000", "-benchmarks", "gcc", "-recovery", "-json"}
	one := runJSON(t, append(args, "-parallel", "1")...)
	two := runJSON(t, append(args, "-parallel", "2")...)
	if !bytes.Equal(one, two) {
		t.Fatalf("-json differs between -parallel 1 and 2:\n%s\n---\n%s", one, two)
	}

	var doc struct {
		Fig5     json.RawMessage
		Headline json.RawMessage
		Recovery struct {
			Designs, Attacks []string
			Verdicts         map[string]map[string]string
		}
	}
	dec := json.NewDecoder(bytes.NewReader(one))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("decode: %v\n%s", err, one)
	}
	if len(doc.Fig5) == 0 || len(doc.Headline) == 0 {
		t.Fatal("fig5 or headline missing")
	}
	if got, want := doc.Recovery.Attacks, experiments.Attacks(); len(got) != len(want) {
		t.Fatalf("recovery attacks = %v, want %v", got, want)
	}
	if len(doc.Recovery.Designs) == 0 {
		t.Fatal("recovery matrix has no designs")
	}
	for _, d := range doc.Recovery.Designs {
		for _, a := range doc.Recovery.Attacks {
			if v := doc.Recovery.Verdicts[d][a]; v == "" || v == "?" {
				t.Errorf("recovery verdict %s/%s = %q", d, a, v)
			}
		}
	}
}

// TestRemovedFlagsRejected: the ledger mode is gone, not hidden.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-ledger", "x"}, {"-check", "."}, {"-kvconns", "1"}, {"-kvops", "1"}, {"-churn", "1"},
		{"-warmup", "1"},
	} {
		if err := run(args, new(bytes.Buffer)); !errors.Is(err, errUsage) {
			t.Errorf("run %v = %v, want a usage error", args, err)
		}
	}
}

// TestNegativeOpsRefused: a negative op count is an error, not a panic
// in the trace generator.
func TestNegativeOpsRefused(t *testing.T) {
	err := run([]string{"-fig", "5a", "-ops", "-5", "-benchmarks", "gcc"}, new(bytes.Buffer))
	if err == nil || errors.Is(err, errUsage) {
		t.Fatalf("run -ops -5 = %v, want a run error", err)
	}
}

// TestFig6JSONWithZeroBaseline: at 20000 ops w/o CC writes nothing to
// NVM on some benchmarks, so every Figure 6 write ratio is over a zero
// baseline. -json must still encode both sweeps, leaving the undefined
// ratio out rather than failing on NaN.
func TestFig6JSONWithZeroBaseline(t *testing.T) {
	out := runJSON(t, "-fig", "6", "-ops", "20000", "-json")
	var doc struct{ Fig6a, Fig6b *experiments.Fig6 }
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("decode: %v\n%s", err, out)
	}
	undefined := 0
	for _, f := range []*experiments.Fig6{doc.Fig6a, doc.Fig6b} {
		if f == nil || len(f.Designs) == 0 {
			t.Fatalf("a sweep is missing: %s", out)
		}
		for _, d := range f.Designs {
			if len(f.Points[d]) != 5 {
				t.Fatalf("%s: %s has %d points, want 5", f.Title, d, len(f.Points[d]))
			}
			for _, p := range f.Points[d] {
				if p.NormIPC <= 0 {
					t.Errorf("%s: %s at %d has normalized IPC %v", f.Title, d, p.Param, p.NormIPC)
				}
				if p.NormWrite == 0 {
					undefined++
				}
			}
		}
	}
	if undefined == 0 {
		t.Fatal("no write ratio is undefined: the run has no zero baseline and shows nothing")
	}
}
