package experiments

import (
	"strings"
	"testing"
)

// small keeps test sweeps fast while exercising the full pipeline;
// lbm is the most write-intensive stand-in, so even a short trace
// produces the LLC write-backs the figures measure.
func small() Options {
	return Options{Ops: 30000, Benchmarks: []string{"lbm"}}
}

func TestFig5Pipeline(t *testing.T) {
	f, err := RunFig5(small())
	if err != nil {
		t.Fatal(err)
	}
	// The baseline normalizes to exactly 1.0 everywhere.
	for _, b := range f.Benchmarks {
		c := f.Cells["wocc"][b]
		if c.NormIPC != 1 || c.NormWrite != 1 {
			t.Fatalf("wocc not normalized to 1: %+v", c)
		}
	}
	// Paper orderings on the averages.
	if !(f.AvgNormIPC["ccnvm"] > f.AvgNormIPC["osiris"]) {
		t.Errorf("cc-NVM IPC %v not above Osiris %v", f.AvgNormIPC["ccnvm"], f.AvgNormIPC["osiris"])
	}
	if !(f.AvgNormWrite["sc"] > 4) {
		t.Errorf("SC write factor %v implausibly low", f.AvgNormWrite["sc"])
	}
	if !(f.AvgNormWrite["ccnvm"] > f.AvgNormWrite["osiris"]) {
		t.Errorf("cc-NVM writes %v not above Osiris %v", f.AvgNormWrite["ccnvm"], f.AvgNormWrite["osiris"])
	}
	// Tables render every benchmark row plus the average.
	ipcTab := f.IPCTable()
	for _, b := range f.Benchmarks {
		if !strings.Contains(ipcTab, b) {
			t.Errorf("IPC table missing %s", b)
		}
	}
	if !strings.Contains(ipcTab, "average") || !strings.Contains(f.WriteTable(), "average") {
		t.Error("tables missing average row")
	}
}

func TestHeadlineDerivation(t *testing.T) {
	f := &Fig5{
		AvgNormIPC:   map[string]float64{"sc": 0.6, "osiris": 0.675, "ccnvm": 0.813},
		AvgNormWrite: map[string]float64{"sc": 5.5, "osiris": 1.073, "ccnvm": 1.39},
	}
	h := f.Headline()
	if !approx(h.SCIPCDrop, 0.4) || !approx(h.SCWriteFactor, 5.5) {
		t.Fatalf("SC headline wrong: %+v", h)
	}
	if !approx(h.CCNVMvsOsirisUp, 0.2044) {
		t.Fatalf("cc-NVM vs Osiris = %v, want ~0.204", h.CCNVMvsOsirisUp)
	}
	if !approx(h.CCNVMExtraWr, 0.2954) {
		t.Fatalf("cc-NVM extra writes = %v, want ~0.295", h.CCNVMExtraWr)
	}
	if !approx(h.CCNVMIPCDrop, 0.187) || !approx(h.CCNVMWriteOver, 0.39) {
		t.Fatalf("cc-NVM vs baseline wrong: %+v", h)
	}
	s := h.String()
	if !strings.Contains(s, "20.4%") || !strings.Contains(s, "41.4%") {
		t.Fatalf("headline table missing paper references:\n%s", s)
	}
}

func TestFig6aSweep(t *testing.T) {
	o := small()
	f, err := RunFig6a(o, []uint64{4, 32})
	if err != nil {
		t.Fatal(err)
	}
	pts := f.Points["ccnvm"]
	if len(pts) != 2 || pts[0].Param != 4 || pts[1].Param != 32 {
		t.Fatalf("sweep points wrong: %+v", pts)
	}
	// Larger N means longer epochs: write traffic must fall.
	if !(pts[0].NormWrite > pts[1].NormWrite) {
		t.Errorf("writes did not fall with N: %v -> %v", pts[0].NormWrite, pts[1].NormWrite)
	}
	if !strings.Contains(f.Tables(), "cc-NVM") {
		t.Error("tables missing design label")
	}
}

func TestFig6bSweep(t *testing.T) {
	o := small()
	f, err := RunFig6b(o, []int{32, 64})
	if err != nil {
		t.Fatal(err)
	}
	pts := f.Points["ccnvm"]
	if len(pts) != 2 {
		t.Fatalf("sweep points wrong: %+v", pts)
	}
	// Larger M means fewer queue-full drains: traffic must not rise.
	if pts[0].NormWrite < pts[1].NormWrite {
		t.Errorf("writes rose with M: %v -> %v", pts[0].NormWrite, pts[1].NormWrite)
	}
	// Osiris is insensitive to M.
	op := f.Points["osiris"]
	if approxDelta(op[0].NormWrite, op[1].NormWrite) > 0.01 {
		t.Errorf("osiris writes vary with M: %v vs %v", op[0].NormWrite, op[1].NormWrite)
	}
}

func TestUnknownBenchmarkPropagates(t *testing.T) {
	o := small()
	o.Benchmarks = []string{"nosuch"}
	if _, err := RunFig5(o); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func approx(got, want float64) bool { return approxDelta(got, want) < 0.01 }

func approxDelta(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d
}

func TestArsenalTradeoffOrdering(t *testing.T) {
	// The related-work triangle: Arsenal minimizes writes (inline
	// metadata beats even the baseline's separate HMAC line), cc-NVM
	// maximizes consistent-design IPC, Osiris sits between on writes.
	o := Options{Ops: 40000, Benchmarks: []string{"lbm"},
		Designs: []string{"wocc", "osiris", "ccnvm", "arsenal"}}
	f, err := RunFig5(o)
	if err != nil {
		t.Fatal(err)
	}
	if !(f.AvgNormWrite["arsenal"] < 1.0) {
		t.Errorf("arsenal writes %v not below baseline", f.AvgNormWrite["arsenal"])
	}
	if !(f.AvgNormIPC["ccnvm"] > f.AvgNormIPC["arsenal"]) {
		t.Errorf("ccnvm IPC %v not above arsenal %v", f.AvgNormIPC["ccnvm"], f.AvgNormIPC["arsenal"])
	}
	if !(f.AvgNormWrite["ccnvm"] > f.AvgNormWrite["arsenal"]) {
		t.Errorf("write ordering violated: ccnvm %v vs arsenal %v", f.AvgNormWrite["ccnvm"], f.AvgNormWrite["arsenal"])
	}
}
