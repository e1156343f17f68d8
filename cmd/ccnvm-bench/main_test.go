package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
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
// NVM on some benchmarks, so their write ratios are over a zero
// baseline. -json must still encode both sweeps, each average leaving
// the undefined ratio out and counting it rather than failing on NaN
// or reading 0.
func TestFig6JSONWithZeroBaseline(t *testing.T) {
	out := runJSON(t, "-fig", "6", "-ops", "20000", "-json")
	var doc struct{ Fig6a, Fig6b *experiments.Fig6 }
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("decode: %v\n%s", err, out)
	}
	for _, f := range []*experiments.Fig6{doc.Fig6a, doc.Fig6b} {
		if f == nil || len(f.Designs) == 0 {
			t.Fatalf("a sweep is missing: %s", out)
		}
		if f.WriteLeftOut == 0 {
			t.Fatalf("%s: no write ratio is undefined: the run has no zero baseline and shows nothing", f.Title)
		}
		for _, d := range f.Designs {
			if len(f.Points[d]) != 5 {
				t.Fatalf("%s: %s has %d points, want 5", f.Title, d, len(f.Points[d]))
			}
			for _, p := range f.Points[d] {
				if p.NormIPC <= 0 || p.NormWrite <= 0 {
					t.Errorf("%s: %s at %d averages to IPC %v, writes %v; want both defined", f.Title, d, p.Param, p.NormIPC, p.NormWrite)
				}
			}
		}
	}
}

// TestFig5LeavesOutUndefinedRatios: at 20000 ops hmmer leaves w/o CC
// with no NVM writes, so its write ratios are undefined. Each Figure 5
// write average is over the other seven benchmarks and says it left one
// out, and the headline prints no number taken from an undefined
// average: with hmmer alone, every write claim reads n/a.
func TestFig5LeavesOutUndefinedRatios(t *testing.T) {
	var doc struct {
		Fig5     *experiments.Fig5
		Headline *experiments.Headline
	}
	out := runJSON(t, "-fig", "5", "-ops", "20000", "-json")
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("decode: %v\n%s", err, out)
	}
	f, h := doc.Fig5, doc.Headline
	if f.WriteLeftOut != 1 || f.IPCLeftOut != 0 || h.LeftOut != 1 || len(h.Undefined) != 0 {
		t.Fatalf("left out %d write and %d IPC ratios, headline %d and undefined %v; want 1, 0, 1 and none",
			f.WriteLeftOut, f.IPCLeftOut, h.LeftOut, h.Undefined)
	}
	for _, d := range f.Designs {
		if f.AvgNormWrite[d] < 1 {
			t.Errorf("%s: write average %v, want at least w/o CC's 1", d, f.AvgNormWrite[d])
		}
	}
	if h.SCWriteFactor < 1 || h.CCNVMWriteOver < 0 {
		t.Errorf("SC write factor %v, cc-NVM write overhead %v: taken from an undefined average", h.SCWriteFactor, h.CCNVMWriteOver)
	}

	text := string(runJSON(t, "-fig", "5b", "-ops", "20000", "-benchmarks", "hmmer"))
	measured := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		for _, label := range []string{"average (1 n/a left out)", "SC write amplification", "cc-NVM extra writes vs Osiris Plus",
			"cc-NVM write overhead vs w/o CC", "n/a ratios left out of an average"} {
			if rest, ok := strings.CutPrefix(line, label); ok {
				measured[label] = strings.Fields(rest)[0]
			}
		}
	}
	for label, want := range map[string]string{
		"average (1 n/a left out)": "n/a", "SC write amplification": "n/a", "cc-NVM extra writes vs Osiris Plus": "n/a",
		"cc-NVM write overhead vs w/o CC": "n/a", "n/a ratios left out of an average": "1",
	} {
		if measured[label] != want {
			t.Errorf("the hmmer-only run prints %q for %q, want %q:\n%s", measured[label], label, want, text)
		}
	}
	if strings.Contains(text, "0.000") || strings.Contains(text, "0.00x") || strings.Contains(text, "-100.0%") {
		t.Errorf("the hmmer-only table prints a number from an undefined average:\n%s", text)
	}
}
