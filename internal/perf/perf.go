// Package perf owns the repository's performance ledger: the pinned
// BENCH_<pr>.json files that record what the simulator's throughput was
// when each PR merged, and the regression gate that compares a fresh
// measurement against the newest committed ledger. Every speed claim in
// the repo's history is thereby reproducible: the ledger stores the
// numbers, the host fingerprint they were measured on, and the exact
// run parameters.
package perf

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
)

// Schema is the current ledger schema version. Bump it when fields
// change meaning; the regression gate refuses to compare across
// schemas.
const Schema = 1

// Ledger is one pinned performance measurement.
type Ledger struct {
	Schema int `json:"schema"`

	// Host fingerprint. Absolute throughput is only comparable between
	// runs with an equal fingerprint; across hosts the gate falls back
	// to relative per-design throughput (normalized within each run).
	GoVersion string `json:"go_version"`
	CPUs      int    `json:"cpus"`

	// Run parameters.
	Ops         int      `json:"ops"`  // memory operations per (design, benchmark) cell
	Seed        int64    `json:"seed"` // workload seed
	Benchmarks  []string `json:"benchmarks"`
	WallSeconds float64  `json:"wall_seconds"` // sum of each design's best timed pass
	SimOps      int64    `json:"sim_ops"`      // simulated memory operations, all cells
	OpsPerSec   float64  `json:"ops_per_sec"`  // SimOps / WallSeconds

	// AllocsPerOp is the mean heap allocations per simulated operation
	// over the whole matrix (runtime.MemStats.Mallocs delta / SimOps).
	AllocsPerOp float64 `json:"allocs_per_op"`

	// Designs holds per-design throughput over the benchmark suite.
	Designs map[string]DesignPerf `json:"designs"`

	// Memo reports the crypto memo-table hit rates over the matrix.
	Memo MemoRates `json:"memo"`

	// KV records the end-to-end KV serving measurement (see MeasureKV):
	// batched writes over loopback TCP through the storage-engine
	// facade, at a thousand-connection scale. Nil in ledgers pinned
	// before the KV layer existed.
	KV *KVPerf `json:"kv,omitempty"`

	// Churn records the sustained-churn measurement (see MeasureChurn):
	// overwrite throughput with the log wrapping through the compactor
	// and the degradation ladder, plus the stall time charged. Nil in
	// ledgers pinned before the compactor existed.
	Churn *ChurnPerf `json:"churn,omitempty"`
}

// DesignPerf is one design's simulator throughput over the suite.
type DesignPerf struct {
	WallSeconds float64 `json:"wall_seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

// MemoRates are the crypto memo-table hit ratios (see seccrypto).
type MemoRates struct {
	Pad     float64 `json:"pad_hit_ratio"`
	Data    float64 `json:"data_hmac_hit_ratio"`
	Node    float64 `json:"node_hmac_hit_ratio"`
	Overall float64 `json:"overall_hit_ratio"`
}

// fingerprint reports whether two ledgers were measured on comparable
// hosts, making absolute throughput comparable.
func (l *Ledger) fingerprintEqual(o *Ledger) bool {
	return l.GoVersion == o.GoVersion && l.CPUs == o.CPUs
}

// Save writes the ledger as indented JSON.
func (l *Ledger) Save(path string) error {
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads a ledger file.
func Load(path string) (*Ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return &l, nil
}

var ledgerName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// Newest returns the path of the highest-numbered BENCH_<pr>.json in
// dir, or an error when none exists.
func Newest(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestPR := "", -1
	for _, e := range ents {
		m := ledgerName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if pr, _ := strconv.Atoi(m[1]); pr > bestPR {
			bestPR, best = pr, filepath.Join(dir, e.Name())
		}
	}
	if best == "" {
		return "", fmt.Errorf("perf: no BENCH_*.json ledger in %s", dir)
	}
	return best, nil
}

// Tolerance is the regression gate's allowed throughput loss: a fresh
// measurement may be up to this fraction slower than the pinned ledger
// before the gate fails.
const Tolerance = 0.15

// Compare gates fresh against the pinned ledger, returning a non-nil
// error describing every regression beyond Tolerance.
//
// With an equal host fingerprint, absolute ops/sec are compared — the
// overall number and each design's. Across differing hosts absolute
// throughput is meaningless, so the gate compares each design's
// throughput relative to the run's geometric mean instead: a design
// whose relative standing fell by more than Tolerance regressed no
// matter how fast the host is.
func Compare(pinned, fresh *Ledger) error {
	if pinned.Schema != Schema {
		return fmt.Errorf("perf: pinned ledger has schema %d, this tool speaks %d — re-measure the ledger", pinned.Schema, Schema)
	}
	var regressions []string
	check := func(name string, old, new float64) {
		if old > 0 && new < old*(1-Tolerance) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f ops/sec (-%.1f%%)", name, old, new, 100*(1-new/old)))
		}
	}
	if pinned.fingerprintEqual(fresh) {
		check("overall", pinned.OpsPerSec, fresh.OpsPerSec)
		for d, p := range pinned.Designs {
			f, ok := fresh.Designs[d]
			if !ok {
				continue
			}
			check(d, p.OpsPerSec, f.OpsPerSec)
		}
		// The KV row rides the loopback network stack and a thousand
		// goroutines, so it is noisier than the deterministic simulator
		// cells: gate it at double tolerance, and only when the run
		// shapes match.
		if p, f := pinned.KV, fresh.KV; p != nil && f != nil &&
			p.Conns == f.Conns && p.OpsPerConn == f.OpsPerConn && p.Batch == f.Batch {
			if p.OpsPerSec > 0 && f.OpsPerSec < p.OpsPerSec*(1-2*Tolerance) {
				regressions = append(regressions,
					fmt.Sprintf("kv: %.0f -> %.0f ops/sec (-%.1f%%)", p.OpsPerSec, f.OpsPerSec, 100*(1-f.OpsPerSec/p.OpsPerSec)))
			}
		}
		// The churn row is deterministic work but folds in compaction
		// scheduling and sleep-based throttling, so it gets the same
		// doubled tolerance, again only when the run shapes match.
		if p, f := pinned.Churn, fresh.Churn; p != nil && f != nil &&
			p.Design == f.Design && p.Capacity == f.Capacity &&
			p.ValBytes == f.ValBytes && p.Keys == f.Keys && p.Multiple == f.Multiple {
			if p.OpsPerSec > 0 && f.OpsPerSec < p.OpsPerSec*(1-2*Tolerance) {
				regressions = append(regressions,
					fmt.Sprintf("churn: %.0f -> %.0f ops/sec (-%.1f%%)", p.OpsPerSec, f.OpsPerSec, 100*(1-f.OpsPerSec/p.OpsPerSec)))
			}
		}
	} else {
		// Cross-host: compare per-design throughput normalized by the
		// run's geometric mean.
		pn, fn := normalize(pinned), normalize(fresh)
		for d, p := range pn {
			if f, ok := fn[d]; ok {
				check(d+" (relative)", p, f)
			}
		}
	}
	if len(regressions) == 0 {
		return nil
	}
	sort.Strings(regressions)
	return fmt.Errorf("perf: throughput regressed >%d%% vs pinned ledger:\n  %s",
		int(Tolerance*100), joinLines(regressions))
}

// normalize returns each design's ops/sec divided by the geometric mean
// of all designs in the ledger.
func normalize(l *Ledger) map[string]float64 {
	if len(l.Designs) == 0 {
		return nil
	}
	prod, n := 1.0, 0
	for _, d := range l.Designs {
		if d.OpsPerSec > 0 {
			prod *= d.OpsPerSec
			n++
		}
	}
	if n == 0 {
		return nil
	}
	mean := math.Pow(prod, 1/float64(n))
	out := make(map[string]float64, len(l.Designs))
	for name, d := range l.Designs {
		out[name] = d.OpsPerSec / mean
	}
	return out
}

func joinLines(s []string) string {
	out := ""
	for i, l := range s {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}

// HostFingerprint fills the ledger's host fields from the runtime.
func (l *Ledger) HostFingerprint() {
	l.GoVersion = runtime.Version()
	l.CPUs = runtime.NumCPU()
}
