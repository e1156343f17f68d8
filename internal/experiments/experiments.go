// Package experiments drives the paper's evaluation: it runs the
// design × workload × parameter sweeps behind Figure 5 (system IPC and
// NVM write traffic across SPEC stand-ins), Figure 6 (sensitivity to
// the update-times limit N and the dirty-address-queue size M) and the
// §2.3/§5 headline numbers, normalizing everything to the w/o-CC
// baseline exactly as the paper does. ccnvm-bench, ccnvm-recover and
// the repo benchmark all call into this package, so every figure has a
// single source of truth.
package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/report"
	"ccnvm/internal/sim"
	"ccnvm/internal/trace"
)

// Options control an evaluation run.
type Options struct {
	Ops  int   // memory operations per trace (default 300000)
	Seed int64 // workload seed (default 1)

	Benchmarks []string // default: the paper's eight SPEC stand-ins
	Designs    []string // default: the paper's five designs

	// UpdateLimit (N) and QueueEntries (M) default to the paper's 16/64.
	UpdateLimit  uint64
	QueueEntries int

	// Parallelism bounds concurrent simulations. Default:
	// runtime.NumCPU(). Every worker owns a complete simulated machine
	// (core, caches, engine, NVM, crypto) — sim machines and their
	// crypto Engines are not concurrency-safe, and nothing is shared
	// between cells — so results are bit-identical at any parallelism;
	// only wall-clock time changes. Output ordering is deterministic
	// either way because results land in keyed maps. Set to 1 to force
	// serial execution (e.g. when profiling a single run).
	Parallelism int
}

func (o *Options) fill() {
	if o.Ops == 0 {
		o.Ops = 300000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = trace.Benchmarks()
	}
	if len(o.Designs) == 0 {
		o.Designs = sim.Designs()
	}
	if o.UpdateLimit == 0 {
		o.UpdateLimit = 16
	}
	if o.QueueEntries == 0 {
		o.QueueEntries = 64
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.NumCPU()
	}
}

// Cell is one design's metrics on one workload, normalized to the
// w/o-CC baseline of the same workload.
type Cell struct {
	IPC       float64 // absolute
	NormIPC   float64 // vs w/o CC
	Writes    uint64  // absolute NVM line writes
	NormWrite float64 // vs w/o CC
	Raw       sim.Result
}

// Fig5 holds the data behind Figure 5(a) and 5(b).
type Fig5 struct {
	Benchmarks []string
	Designs    []string
	Cells      map[string]map[string]Cell // design -> benchmark -> cell

	// Averages over benchmarks of the normalized metrics (geometric
	// mean, the convention for normalized ratios). An undefined ratio
	// (a zero w/o-CC baseline) is left out; an average with no defined
	// ratio is 0.
	AvgNormIPC   map[string]float64
	AvgNormWrite map[string]float64
	// IPCLeftOut and WriteLeftOut count the ratios the averages left
	// out, the most over the designs.
	IPCLeftOut   int `json:",omitempty"`
	WriteLeftOut int `json:",omitempty"`
}

// RunFig5 runs the full design × benchmark matrix.
func RunFig5(o Options) (*Fig5, error) {
	o.fill()
	f := &Fig5{
		Benchmarks:   o.Benchmarks,
		Designs:      o.Designs,
		Cells:        map[string]map[string]Cell{},
		AvgNormIPC:   map[string]float64{},
		AvgNormWrite: map[string]float64{},
	}
	baseline := design.BaselineName()
	designs := o.Designs
	hasBase := false
	for _, d := range designs {
		if d == baseline {
			hasBase = true
		}
	}
	if !hasBase {
		designs = append([]string{baseline}, designs...)
	}
	matrix, err := runMatrix(o, designs, o.Benchmarks)
	if err != nil {
		return nil, err
	}
	base := matrix[baseline]
	for _, d := range o.Designs {
		f.Cells[d] = map[string]Cell{}
		var ipcs, writes []float64
		for _, b := range o.Benchmarks {
			r := matrix[d][b]
			c := Cell{
				IPC:    r.IPC,
				Writes: r.NVMWrites.Total(),
				Raw:    r,
			}
			c.NormIPC = ratio(r.IPC, base[b].IPC)
			c.NormWrite = ratio(float64(r.NVMWrites.Total()), float64(base[b].NVMWrites.Total()))
			f.Cells[d][b] = c
			ipcs = append(ipcs, c.NormIPC)
			writes = append(writes, c.NormWrite)
		}
		var ipcOut, writeOut int
		f.AvgNormIPC[d], ipcOut = report.GeoMeanDefined(ipcs)
		f.AvgNormWrite[d], writeOut = report.GeoMeanDefined(writes)
		f.IPCLeftOut = max(f.IPCLeftOut, ipcOut)
		f.WriteLeftOut = max(f.WriteLeftOut, writeOut)
	}
	return f, nil
}

// ratio is num normalized to a baseline of den, or 0 — undefined —
// over a zero baseline: a short trace can leave w/o CC with no NVM
// writes at all. GeoMeanDefined leaves a 0 out, and AddRatios prints
// it as n/a.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func runOne(design, bench string, o Options) (sim.Result, error) {
	cfg := sim.Config{
		Params: engine.Params{
			UpdateLimit:  o.UpdateLimit,
			QueueEntries: o.QueueEntries,
		},
	}
	return sim.RunBenchmark(design, bench, o.Ops, o.Seed, cfg)
}

// runMatrix evaluates f-style (design, benchmark) cells with bounded
// parallelism; every machine is independent, so concurrency changes
// nothing but wall-clock time.
func runMatrix(o Options, designs, benches []string) (map[string]map[string]sim.Result, error) {
	type job struct{ d, b string }
	type outcome struct {
		j   job
		r   sim.Result
		err error
	}
	jobs := make([]job, 0, len(designs)*len(benches))
	for _, d := range designs {
		for _, b := range benches {
			jobs = append(jobs, job{d, b})
		}
	}
	results := make(map[string]map[string]sim.Result, len(designs))
	for _, d := range designs {
		results[d] = make(map[string]sim.Result, len(benches))
	}
	in := make(chan job)
	out := make(chan outcome)
	workers := max(1, min(o.Parallelism, len(jobs)))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range in {
				r, err := runOne(j.d, j.b, o)
				out <- outcome{j, r, err}
			}
		}()
	}
	go func() {
		for _, j := range jobs {
			in <- j
		}
		close(in)
		wg.Wait()
		close(out)
	}()
	var firstErr error
	for oc := range out {
		if oc.err != nil && firstErr == nil {
			firstErr = oc.err
		}
		results[oc.j.d][oc.j.b] = oc.r
	}
	return results, firstErr
}

// IPCTable renders Figure 5(a): IPC normalized to w/o CC.
func (f *Fig5) IPCTable() string {
	return f.table("Fig 5(a) IPC (norm. to w/o CC)", func(c Cell) float64 { return c.NormIPC }, f.AvgNormIPC, f.IPCLeftOut)
}

// WriteTable renders Figure 5(b): NVM write traffic normalized to
// w/o CC.
func (f *Fig5) WriteTable() string {
	return f.table("Fig 5(b) # of writes (norm. to w/o CC)", func(c Cell) float64 { return c.NormWrite }, f.AvgNormWrite, f.WriteLeftOut)
}

// table renders one Figure 5 panel: a row per benchmark of the norm
// of each design's cell, then the averages, whose label counts the
// undefined ratios they left out.
func (f *Fig5) table(title string, norm func(Cell) float64, avg map[string]float64, leftOut int) string {
	t := report.NewTable(title, labels(f.Designs)...)
	for _, b := range f.Benchmarks {
		var vals []float64
		for _, d := range f.Designs {
			vals = append(vals, norm(f.Cells[d][b]))
		}
		t.AddRatios(b, vals...)
	}
	var avgs []float64
	for _, d := range f.Designs {
		avgs = append(avgs, avg[d])
	}
	label := "average"
	if leftOut > 0 {
		label = fmt.Sprintf("average (%d n/a left out)", leftOut)
	}
	t.AddRatios(label, avgs...)
	return t.String()
}

// Headline computes the paper's summary claims from a Fig5 run.
type Headline struct {
	SCIPCDrop       float64 // §2.3: SC vs w/o CC performance loss (paper: 41.4%)
	SCWriteFactor   float64 // §2.3: SC write amplification (paper: 5.5x)
	CCNVMvsOsirisUp float64 // §5: cc-NVM IPC gain over Osiris Plus (paper: 20.4%)
	CCNVMExtraWr    float64 // §5: cc-NVM write traffic over Osiris Plus (paper: 29.6%)
	CCNVMIPCDrop    float64 // §5.1: cc-NVM IPC loss vs w/o CC (paper: 18.7%)
	CCNVMWriteOver  float64 // §5.2: cc-NVM write traffic over w/o CC (paper: 39%)

	// LeftOut is the most undefined ratios an average behind the claims
	// left out. Undefined names the claims, by field, that rest on an
	// average with no defined ratio (or a design the run left out):
	// they read 0 and print as n/a.
	LeftOut   int      `json:",omitempty"`
	Undefined []string `json:",omitempty"`
}

// Headline derives the summary deltas.
func (f *Fig5) Headline() Headline {
	h := Headline{LeftOut: max(f.IPCLeftOut, f.WriteLeftOut)}
	// claim returns v when every average it rests on is defined, and
	// otherwise records name as undefined and returns 0.
	claim := func(name string, v float64, avgs ...float64) float64 {
		for _, a := range avgs {
			if a <= 0 {
				h.Undefined = append(h.Undefined, name)
				return 0
			}
		}
		return v
	}
	sc, scw := f.AvgNormIPC[design.SC], f.AvgNormWrite[design.SC]
	cc, os := f.AvgNormIPC[design.CCNVM], f.AvgNormIPC[design.Osiris]
	ccw, osw := f.AvgNormWrite[design.CCNVM], f.AvgNormWrite[design.Osiris]
	h.SCIPCDrop = claim("SCIPCDrop", 1-sc, sc)
	h.SCWriteFactor = claim("SCWriteFactor", scw, scw)
	h.CCNVMvsOsirisUp = claim("CCNVMvsOsirisUp", cc/os-1, cc, os)
	h.CCNVMExtraWr = claim("CCNVMExtraWr", ccw/osw-1, ccw, osw)
	h.CCNVMIPCDrop = claim("CCNVMIPCDrop", 1-cc, cc)
	h.CCNVMWriteOver = claim("CCNVMWriteOver", ccw-1, ccw)
	return h
}

// String renders the headline comparison against the paper's numbers.
func (h Headline) String() string {
	t := report.NewTable("Headline claims", "measured", "paper")
	factor := func(v float64) string { return fmt.Sprintf("%.2fx", v) }
	for _, c := range []struct {
		field, label string
		v            float64
		show         func(float64) string
		paper        string
	}{
		{"SCIPCDrop", "SC IPC loss vs w/o CC", h.SCIPCDrop, pct, "41.4%"},
		{"SCWriteFactor", "SC write amplification", h.SCWriteFactor, factor, "5.50x"},
		{"CCNVMvsOsirisUp", "cc-NVM IPC gain vs Osiris Plus", h.CCNVMvsOsirisUp, pct, "20.4%"},
		{"CCNVMExtraWr", "cc-NVM extra writes vs Osiris Plus", h.CCNVMExtraWr, pct, "29.6%"},
		{"CCNVMIPCDrop", "cc-NVM IPC loss vs w/o CC", h.CCNVMIPCDrop, pct, "18.7%"},
		{"CCNVMWriteOver", "cc-NVM write overhead vs w/o CC", h.CCNVMWriteOver, pct, "39.0%"},
	} {
		m := c.show(c.v)
		if slices.Contains(h.Undefined, c.field) {
			m = "n/a"
		}
		t.AddRow(c.label, m, c.paper)
	}
	if h.LeftOut > 0 {
		t.AddRow("n/a ratios left out of an average", fmt.Sprint(h.LeftOut), "0")
	}
	return t.String()
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

func labels(designs []string) []string {
	out := make([]string, len(designs))
	for i, d := range designs {
		out[i] = design.Label(d)
	}
	return out
}

// Lifetime summarizes the endurance impact the paper's §5.2 ties to
// write traffic: per design, total NVM line writes, the hottest line's
// write count, and the implied relative lifetime (inverse of max wear,
// normalized to w/o CC). PCM endurance is bounded by the hottest cell,
// so the hottest-line ratio is the first-order lifetime ratio.
type Lifetime struct {
	Designs   []string
	Writes    map[string]uint64
	MaxWear   map[string]uint64
	RelativeL map[string]float64 // lifetime vs w/o CC (higher is better)
}

// RunLifetime measures endurance impact on one workload across designs.
func RunLifetime(o Options, benchmark string) (*Lifetime, error) {
	o.fill()
	l := &Lifetime{
		Designs:   o.Designs,
		Writes:    map[string]uint64{},
		MaxWear:   map[string]uint64{},
		RelativeL: map[string]float64{},
	}
	matrix, err := runMatrix(o, o.Designs, []string{benchmark})
	if err != nil {
		return nil, err
	}
	var baseWear uint64
	for _, d := range o.Designs {
		r := matrix[d][benchmark]
		l.Writes[d] = r.NVMWrites.Total()
		l.MaxWear[d] = r.MaxWear
		if d == design.BaselineName() {
			baseWear = r.MaxWear
		}
	}
	for _, d := range o.Designs {
		if l.MaxWear[d] > 0 && baseWear > 0 {
			l.RelativeL[d] = float64(baseWear) / float64(l.MaxWear[d])
		}
	}
	return l, nil
}

// Table renders the lifetime comparison.
func (l *Lifetime) Table(benchmark string) string {
	t := report.NewTable("NVM lifetime on "+benchmark, "writes", "max line wear", "rel. lifetime")
	for _, d := range l.Designs {
		t.AddRow(design.Label(d),
			fmt.Sprintf("%d", l.Writes[d]),
			fmt.Sprintf("%d", l.MaxWear[d]),
			fmt.Sprintf("%.3gx", l.RelativeL[d]))
	}
	return t.String()
}

// SweepPoint is one (parameter value, design) measurement of Figure 6.
// A normalized metric averages the defined ratios (see Fig5); it is 0
// where none is defined, and JSON omits it there.
type SweepPoint struct {
	Param     uint64
	NormIPC   float64 `json:",omitzero"`
	NormWrite float64 `json:",omitzero"`
}

// Fig6 holds one sensitivity sweep (a: update limit N; b: queue
// entries M).
type Fig6 struct {
	Title   string
	Designs []string
	Points  map[string][]SweepPoint // design -> series
	// IPCLeftOut and WriteLeftOut count the undefined ratios the
	// points' averages left out, the most over points and designs.
	IPCLeftOut   int `json:",omitempty"`
	WriteLeftOut int `json:",omitempty"`
}

// RunFig6a sweeps the update-times limit N with M fixed (paper: M=64,
// N in {4,8,16,32,64}), on the designs the figure plots.
func RunFig6a(o Options, ns []uint64) (*Fig6, error) {
	o.fill()
	if len(ns) == 0 {
		ns = []uint64{4, 8, 16, 32, 64}
	}
	designs := []string{design.Osiris, design.CCNVMWoDS, design.CCNVM}
	f := &Fig6{Title: "Fig 6(a) update-times limit N", Designs: designs, Points: map[string][]SweepPoint{}}
	for _, n := range ns {
		oo := o
		oo.UpdateLimit = n
		if err := sweepPoint(f, oo, n, designs); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// RunFig6b sweeps the dirty-address-queue entries M with N fixed
// (paper: N=16, M in {32,40,48,56,64}).
func RunFig6b(o Options, ms []int) (*Fig6, error) {
	o.fill()
	if len(ms) == 0 {
		ms = []int{32, 40, 48, 56, 64}
	}
	designs := []string{design.Osiris, design.CCNVMWoDS, design.CCNVM}
	f := &Fig6{Title: "Fig 6(b) dirty address queue entries M", Designs: designs, Points: map[string][]SweepPoint{}}
	for _, m := range ms {
		oo := o
		oo.QueueEntries = m
		if err := sweepPoint(f, oo, uint64(m), designs); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// sweepPoint measures one parameter value across designs, normalizing
// against a w/o-CC run of the same workloads. The whole
// (baseline + designs) × benchmarks block goes through runMatrix so
// one sweep point saturates the worker pool.
func sweepPoint(f *Fig6, o Options, param uint64, designs []string) error {
	baseline := design.BaselineName()
	matrix, err := runMatrix(o, append([]string{baseline}, designs...), o.Benchmarks)
	if err != nil {
		return err
	}
	base := matrix[baseline]
	for _, d := range designs {
		var ipcs, wrs []float64
		for _, b := range o.Benchmarks {
			r := matrix[d][b]
			ipcs = append(ipcs, ratio(r.IPC, base[b].IPC))
			wrs = append(wrs, ratio(float64(r.NVMWrites.Total()), float64(base[b].NVMWrites.Total())))
		}
		p := SweepPoint{Param: param}
		var ipcOut, writeOut int
		p.NormIPC, ipcOut = report.GeoMeanDefined(ipcs)
		p.NormWrite, writeOut = report.GeoMeanDefined(wrs)
		f.IPCLeftOut = max(f.IPCLeftOut, ipcOut)
		f.WriteLeftOut = max(f.WriteLeftOut, writeOut)
		f.Points[d] = append(f.Points[d], p)
	}
	return nil
}

// Tables renders the sweep as IPC and write tables; a title counts the
// undefined ratios its averages left out.
func (f *Fig6) Tables() string {
	title := func(what string, leftOut int) string {
		if leftOut > 0 {
			return fmt.Sprintf("%s - %s (norm., %d n/a left out)", f.Title, what, leftOut)
		}
		return f.Title + " - " + what + " (norm.)"
	}
	ipc := report.NewTable(title("IPC", f.IPCLeftOut), labels(f.Designs)...)
	wr := report.NewTable(title("# of writes", f.WriteLeftOut), labels(f.Designs)...)
	if len(f.Designs) == 0 || len(f.Points[f.Designs[0]]) == 0 {
		return ipc.String()
	}
	for i := range f.Points[f.Designs[0]] {
		var is, ws []float64
		for _, d := range f.Designs {
			is = append(is, f.Points[d][i].NormIPC)
			ws = append(ws, f.Points[d][i].NormWrite)
		}
		param := fmt.Sprintf("%d", f.Points[f.Designs[0]][i].Param)
		ipc.AddRatios(param, is...)
		wr.AddRatios(param, ws...)
	}
	return ipc.String() + "\n" + wr.String()
}
