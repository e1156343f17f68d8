// Command benchmark is the repository's benchmark: four workloads over
// the secure-NVM stack, end-to-end metrics with regression bounds, and
// a traced pass that attributes time to layers from outside.
//
//	go run -C benchmark . -seed 1                 # every workload, every end-to-end metric
//	go run -C benchmark . -seed 1 -trace 1        # plus the traced pass and the per-layer metrics
//	go run -C benchmark . -workload kv_get -trace 1 -out get.json
//	go run -C benchmark . -smoke                  # tiny counts, all workloads, both passes
//	go run -C benchmark . -agree A.json B.json    # do two result sets agree within the bounds?
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. README.md in this
// directory is the glossary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the length the op
// counts are sized for on the commit that defined the benchmark.
const defaultSeconds = 15

// sizes are the op counts of one run. They are fixed by -seconds
// alone, never tuned at run time, so that counts repeat from run to
// run and a faster program finishes sooner instead of doing more.
type sizes struct {
	conns       int // client connections: this host's nproc, fixed
	warm        int // discarded rounds
	rounds      int // measured rounds; a metric is the median of its round values
	slices      int // stretches a closed loop's round is driven in, the host's speed read between them
	traceRounds int // measured rounds of the traced run's load pass

	putPerConn int // kv_put: batch requests per connection per round
	getPerConn int // kv_get: get requests per connection per round
	getKeys    int // kv_get: preloaded keys

	churnRate   float64       // kv_churn: offered requests per second, all connections
	churnRound  time.Duration // kv_churn: schedule length per round
	churnSlices int           // kv_churn: stretches of the schedule per round

	simOps    int // sim_fig5: memory operations per trace
	simRounds int

	replayOps  int // layer replay: ops per rung
	pings      int
	recoveries int           // restarts from the crash image at the least; the median counts
	recoverFor time.Duration // quick restarts are repeated until they have taken this long, up to 5x recoveries
}

// The rates the counts are sized by were measured on the commit that
// defined the benchmark (2 cores): requests per second and connection
// that the closed loops sustain, and simulated ops per second over the
// design x trace matrix.
const (
	putRate = 8000
	getRate = 27000
	simRate = 1.15e6
)

func sizesFor(seconds float64) sizes {
	round := seconds / 6 // one warm-up and five measured rounds share the time
	return sizes{
		conns: 2, warm: 1, rounds: 5, slices: 25, traceRounds: 2,
		putPerConn: int(putRate * round),
		getPerConn: int(getRate * round),
		getKeys:    100000,
		churnRate:  3000,
		churnRound: time.Duration(round * float64(time.Second)), churnSlices: 10,
		simOps:     int(simRate * seconds / 4 / 40), // four rounds of forty cells
		simRounds:  3,
		replayOps:  int(600 * seconds),
		pings:      2000,
		recoveries: 3,
		recoverFor: time.Second,
	}
}

// smokeSizes keeps every phase of every workload, at counts that let
// all four finish both passes in a few seconds.
func smokeSizes() sizes {
	return sizes{
		conns: 2, warm: 1, rounds: 2, slices: 3, traceRounds: 1,
		putPerConn: 300, getPerConn: 600, getKeys: 2000,
		churnRate: 3000, churnRound: 600 * time.Millisecond, churnSlices: 3,
		simOps: 6000, simRounds: 2,
		replayOps: 900, pings: 100, recoveries: 2,
	}
}

type config struct {
	seed    int64
	seconds float64
	sizes   sizes
	tmp     string       // scratch directory for the crash image
	speed   *speedometer // the host-speed reference, see calib.go
}

// fingerprint identifies the host and build a result came from.
type fingerprint struct {
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Conns      int    `json:"client_conns"`
}

func hostFingerprint(conns int) fingerprint {
	fp := fingerprint{Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown", Conns: conns}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Error     string             `json:"error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     map[string]any     `json:"notes"`
	Host      fingerprint        `json:"host"`

	spans *recorder
}

// resultFile is what -out writes and -agree reads.
type resultFile struct {
	Runs []*result `json:"runs"`
}

// runWorkload runs one workload once, untraced or traced. The result
// is returned even when the run failed; Correct says which.
func runWorkload(name string, trace int, cfg config) *result {
	res := &result{Workload: name, Seed: cfg.seed, Trace: trace, Seconds: cfg.seconds,
		Metrics: make(map[string]float64), Notes: make(map[string]any), Host: hostFingerprint(cfg.sizes.conns)}
	if trace == 1 {
		cfg.speed = nil // layer times are raw: they are compared with each other, not across hosts
	}
	var err error
	switch w, isKV := kvWorkloads(cfg.sizes)[name]; {
	case name == wlSim:
		err = runSim(cfg, res, trace == 1)
	case !isKV:
		err = fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	case trace == 1:
		err = traceKV(w, cfg, res)
	default:
		err = runKV(w, cfg, res)
	}
	if err == nil && res.Failed > 0 {
		err = fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	if err != nil {
		res.Error = err.Error()
	}
	res.Correct = err == nil
	if trace == 1 {
		res.Metrics["load.fail_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	} else {
		res.Notes["peak_rss_all_mb"] = peakRSSMB()
	}
	return res
}

// peakRSSMB is the process's high-water resident set so far, from
// VmHWM. The end-to-end metric is read when the last round has ended:
// the image the crash phase encodes grows by appending, and how high it
// piles up depends on when the collector runs, by 80 MB from run to
// run. The whole run's peak is the note peak_rss_all_mb.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// resultLine is the contract's last line of standard output.
func (r *result) resultLine() string {
	set := endToEnd
	if r.Trace == 1 {
		set = perLayer
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, project(set, r.Metrics)})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// table prints the metrics the workload produces, by name, with units.
func (r *result) table() string {
	var sb strings.Builder
	pass := "end to end, tracing off"
	set := endToEnd
	if r.Trace == 1 {
		pass, set = "per layer, traced pass", perLayer
	}
	fmt.Fprintf(&sb, "%s  seed %d  (%s)  attempted %d  failed %d  correct %v\n", r.Workload, r.Seed, pass, r.Attempted, r.Failed, r.Correct)
	for _, m := range set {
		if !m.on(r.Workload) {
			continue
		}
		fmt.Fprintf(&sb, "  %-34s %14.4f %-10s", m.Name, r.Metrics[m.Name], m.Unit)
		if m.Bound > 0 {
			fmt.Fprintf(&sb, " %s is better, bound %g%%", m.Better, m.Bound*100)
		}
		sb.WriteByte('\n')
	}
	for _, k := range []string{"lat_samples", "lat_tail_us", "lat_tail_percentile", "as_measured", "peak_rss_all_mb", "vcpus_kept_awake", "replay_ops", "rung_us", "input_digest", "warning"} {
		if v, ok := r.Notes[k]; ok {
			fmt.Fprintf(&sb, "  note %s = %v\n", k, v)
		}
	}
	if r.Error != "" {
		fmt.Fprintf(&sb, "  FAILED: %s\n", r.Error)
	}
	return sb.String()
}

func writeResults(path string, runs []*result) error {
	b, err := json.MarshalIndent(resultFile{Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// spanPath is where a run's spans go, next to its result file.
func spanPath(out, workload string) string {
	return strings.TrimSuffix(out, filepath.Ext(out)) + ".spans-" + workload + ".jsonl"
}

func main() {
	workload := flag.String("workload", "", "run this one workload in this process (default: every workload, one process each)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "length the op counts are sized for")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	out := flag.String("out", "", "write the results (and, traced, the spans beside them) to this JSON file")
	runs := flag.Int("runs", 1, "repeat the whole set this many times (without -workload)")
	smoke := flag.Bool("smoke", false, "tiny op counts: every workload, both passes, in this process")
	agree := flag.Bool("agree", false, "compare the two result files given as arguments")
	spinner := flag.Bool("spin", false, "internal: keep one CPU awake at idle priority until the parent is gone (awake.go)")
	flag.Parse()
	if *spinner {
		os.Exit(spin())
	}
	if err := run(*workload, *seed, *seconds, *trace, *out, *runs, *smoke, *agree, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, out string, runs int, smoke, agree bool, args []string) error {
	if agree {
		if len(args) != 2 {
			return errors.New("-agree takes two result files")
		}
		return agreeFiles(os.Stdout, args[0], args[1])
	}
	if seconds <= 0 || trace < 0 || trace > 1 || runs < 1 {
		return errors.New("need -seconds > 0, -trace 0 or 1, -runs >= 1")
	}
	// The crash image is the one file a run writes on its own; it lives
	// under the working directory and goes when the run ends.
	tmp, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg := config{seed: seed, seconds: seconds, sizes: sizesFor(seconds), tmp: tmp, speed: newSpeedometer()}

	var results []*result
	switch {
	case smoke:
		cfg.sizes = smokeSizes()
		awake, stop := keepAwake()
		defer stop()
		for _, w := range workloadNames {
			for t := 0; t <= 1; t++ {
				res := runWorkload(w, t, cfg)
				res.Notes["vcpus_kept_awake"] = awake
				fmt.Print(res.table())
				results = append(results, res)
			}
		}
	case workload != "":
		awake, stop := keepAwake()
		defer stop()
		res := runWorkload(workload, trace, cfg)
		res.Notes["vcpus_kept_awake"] = awake
		results = append(results, res)
		fmt.Print(res.table())
		defer fmt.Println(res.resultLine())
	default:
		if results, err = runAll(cfg, trace, runs, out); err != nil {
			return err
		}
	}
	if out != "" {
		if err := writeResults(out, results); err != nil {
			return err
		}
		for _, r := range results {
			if r.spans != nil {
				if err := r.spans.writeFile(spanPath(out, r.Workload)); err != nil {
					return err
				}
			}
		}
	}
	for _, r := range results {
		if !r.Correct {
			return fmt.Errorf("%s failed: %s", r.Workload, r.Error)
		}
	}
	return nil
}

// runAll runs every workload in a process of its own, so that peak
// memory and the runtime's state belong to one workload, and prints
// each result as it arrives. With out set, each workload's span file is
// kept beside it.
func runAll(cfg config, trace, runs int, out string) ([]*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []*result
	for i := 0; i < runs; i++ {
		for _, w := range workloadNames {
			for t := 0; t <= trace; t++ {
				file := filepath.Join(cfg.tmp, fmt.Sprintf("%s-%d-%d.json", w, i, t))
				cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(cfg.seed, 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(t), "-out", file)
				cmd.Stderr = os.Stderr
				// A child that fails verification still leaves its result.
				runErr := cmd.Run()
				rs, err := readResults(file)
				if err != nil || len(rs) != 1 {
					return nil, fmt.Errorf("%s: no result (%v, %v)", w, runErr, err)
				}
				fmt.Print(rs[0].table())
				results = append(results, rs[0])
				if out != "" && t == 1 {
					if err := os.Rename(spanPath(file, w), spanPath(out, w)); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return results, nil
}
