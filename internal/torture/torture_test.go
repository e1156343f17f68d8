package torture

import (
	"context"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var tortureLong = flag.Bool("torture.long", false, "run the extended torture matrix")

// ShortMatrixOpts is the deterministic tier-1 slice of the matrix: every
// design, workload and attack kind appears, budgeted to stay well inside
// the tier-1 time box (and race-clean under -race).
func ShortMatrixOpts() MatrixOpts {
	return MatrixOpts{
		Seeds:    2,
		Ops:      160,
		CrashPts: 2,
	}
}

func TestShortMatrix(t *testing.T) {
	cells := EnumerateCells(ShortMatrixOpts())
	sum := RunMatrix(context.Background(), DefaultRunner(), cells, 0, nil)
	for _, f := range sum.Failures {
		t.Errorf("%s\n  repro: %s", f.Error(), f.Repro)
	}
	t.Logf("%s", sum.Describe())
}

// TestFaultMatrix is the media-fault slice: every design crosses two
// workloads and eight fault seeds cycled through the fault profiles,
// with no attack — pure crash damage. Zero oracle failures means no
// design ever silently accepted a torn, dropped or stuck line.
func TestFaultMatrix(t *testing.T) {
	opts := MatrixOpts{
		Workloads:  []string{"hot", "mixed"},
		Attacks:    []string{"none"},
		Seeds:      2,
		Ops:        200,
		CrashPts:   1,
		FaultSeeds: 8,
	}
	var cells []Cell
	for _, c := range EnumerateCells(opts) {
		if c.Faulty() {
			cells = append(cells, c)
		}
	}
	if want := len(DesignNames()) * 2 * 8; len(cells) != want {
		t.Fatalf("fault matrix has %d cells, want %d", len(cells), want)
	}
	sum := RunMatrix(context.Background(), DefaultRunner(), cells, 0, nil)
	for _, f := range sum.Failures {
		t.Errorf("%s\n  repro: %s", f.Error(), f.Repro)
	}
	t.Logf("%s", sum.Describe())
}

// TestRunMatrixInterrupted exercises the cancellation path: a cancelled
// context must skip the remaining cells and mark the summary partial.
func TestRunMatrixInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := EnumerateCells(MatrixOpts{
		Designs: []string{"ccnvm"}, Workloads: []string{"hot"},
		Attacks: []string{"none"}, Seeds: 2, Ops: 120, CrashPts: 2,
	})
	sum := RunMatrix(ctx, DefaultRunner(), cells, 2, nil)
	if !sum.Interrupted {
		t.Fatal("summary not marked interrupted under a cancelled context")
	}
	if sum.Skipped != len(cells) {
		t.Fatalf("cancelled before dispatch, yet only %d of %d cells skipped", sum.Skipped, len(cells))
	}
}

// TestShortMatrixCoversVocabulary guards the budget sampling: the short
// matrix must still exercise every design, workload and attack kind.
func TestShortMatrixCoversVocabulary(t *testing.T) {
	cells := EnumerateCells(ShortMatrixOpts())
	seen := map[string]bool{}
	for _, c := range cells {
		seen["d:"+c.Design] = true
		seen["w:"+c.Workload] = true
		seen["a:"+c.Attack] = true
	}
	for _, d := range DesignNames() {
		if !seen["d:"+d] {
			t.Errorf("short matrix never tortures design %s", d)
		}
	}
	for _, w := range WorkloadNames() {
		if !seen["w:"+w] {
			t.Errorf("short matrix never runs workload %s", w)
		}
	}
	for _, a := range AttackNames() {
		if !seen["a:"+a] {
			t.Errorf("short matrix never injects attack %s", a)
		}
	}
}

// TestReproRoundTrip holds String and ParseCell to inverting each other
// for trace and KV cells alike, pins both spec shapes byte for byte, and
// checks ParseCell rejects what Validate rejects — the KV design rule
// and KV-only axes included.
func TestReproRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		cell Cell
		spec string
	}{
		{Cell{Design: "ccnvm", Workload: "hammer", Seed: 7, Ops: 300, CrashAt: 123, Attack: "data-replay", N: 4, M: 32},
			"design=ccnvm,workload=hammer,seed=7,ops=300,crash=123,attack=data-replay,n=4,m=32"},
		{Cell{Design: "wocc", Workload: "hot", Seed: 2, Ops: 100, CrashAt: 50, Attack: "none", FaultSeed: 3, WeakPct: 10, Stuck: 2, Spares: 4},
			"design=wocc,workload=hot,seed=2,ops=100,crash=50,attack=none,n=0,m=0,fseed=3,weak=10,stuck=2,spares=4"},
		{Cell{Design: "ccnvm", Workload: KVWorkload, Seed: 7, Batches: 6, CrashAt: 12, CompactEvery: 2},
			"design=ccnvm,workload=kv,seed=7,batches=6,crash=12,compact=2"},
		{Cell{Design: "sc", Workload: KVWorkload, Seed: 1, Batches: 3, CrashAt: -1, Reboots: 2, RebootEvery: 2},
			"design=sc,workload=kv,seed=1,batches=3,crash=-1,revery=2,reboots=2"},
	} {
		if s := tc.cell.String(); s != tc.spec {
			t.Fatalf("spec %q, want %q", s, tc.spec)
		}
		back, err := ParseCell(tc.spec)
		if err != nil {
			t.Fatalf("ParseCell(%q): %v", tc.spec, err)
		}
		if back != tc.cell.normalized() {
			t.Fatalf("round trip changed the cell: %s -> %s", tc.spec, back.String())
		}
	}
	for _, tc := range []struct{ spec, want string }{
		{"design=nosuch", "unknown design"},
		{"design=ccnvm,ops=10,crash=11", "outside trace"},
		{"design=ccnvm,ops=10,crash=5,spares=2", "without a weak or stuck axis"},
		{"design=ccnvm,ops=10,crash=5,batches=3", "workload=kv only"},
		{"design=no-such,workload=kv,batches=1", "unknown design"},
		{"design=wocc,workload=kv,batches=1", "not crash-consistent"},
		{"design=ccnvm,workload=kv,batches=0", "at least 1 batch"},
		{"design=ccnvm,workload=kv,batches=1,reboots=2", "revery >= 1"},
		{"design=ccnvm,workload=kv,batches=3,compact=-1", "compact=-1 out of range"},
		{"design=ccnvm,workload=kv,batches=3,crash=-2", "out of range"},
		{"design=ccnvm,workload=kv,batches=3,attack=spoof", "no ops, attack"},
		// newCCNVM sizes its queue from m, and running out of memory is
		// fatal: no panic conversion can catch it.
		{"design=ccnvm,workload=hot,seed=1,ops=50,crash=20,attack=none,n=4,m=100000000000", "m=100000000000 out of range"},
	} {
		if _, err := ParseCell(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseCell(%q) = %v, want an error containing %q", tc.spec, err, tc.want)
		}
	}
}

// TestOracleDocs holds the one oracle table to its shape: every row has
// a name, a doc, a scope the table can print and a Check; names are
// unique across the rows and the harness failures; ten rows judge KV
// cells; and every name the package's failf calls can put on a Failure
// is a row or a listed harness failure.
func TestOracleDocs(t *testing.T) {
	trace := Cell{Design: "ccnvm", Workload: "hot", Attack: "none", FaultSeed: 1, WeakPct: 10, Stuck: 1, Spares: 2}
	kvCell := Cell{Design: "ccnvm", Workload: KVWorkload, Batches: 1}
	compact := kvCell
	compact.CompactEvery = 1
	names := map[string]bool{}
	kvRows := 0
	for i, o := range slices.Concat(Oracles(), harnessFailures) {
		row := i < len(Oracles())
		covered := slices.ContainsFunc([]Cell{trace, kvCell, compact}, o.Scope.covers)
		if o.Name == "" || o.Doc == "" || !covered || (o.Check != nil) != row {
			t.Fatalf("%q lacks a name, doc or scope, or its Check does not match its list", o.Name)
		}
		if names[o.Name] {
			t.Fatalf("duplicate oracle name %s", o.Name)
		}
		names[o.Name] = true
		if kv := o.Scope.covers(kvCell) || o.Scope.covers(compact); row && kv {
			kvRows++
			if !strings.HasPrefix(o.Name, "kv-") || o.Scope.covers(trace) {
				t.Fatalf("KV row %q is misnamed or also judges trace cells", o.Name)
			}
		}
	}
	if len(Oracles()) != 25 || kvRows != 11 {
		t.Fatalf("%d rows, %d of them for KV cells; want 25 and 11", len(Oracles()), kvRows)
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	calls := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "failf" {
				return true
			}
			calls++
			lit, ok := call.Args[1].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Fatalf("%s: failf names its failure with a non-literal", fset.Position(call.Pos()))
			}
			if s, _ := strconv.Unquote(lit.Value); !names[s] {
				t.Fatalf("%s: failure %q is neither an oracle row nor a harness failure", fset.Position(call.Pos()), s)
			}
			return true
		})
	}
	if calls == 0 {
		t.Fatal("found no failf calls to check")
	}
}

// TestDesignOracleTable renders the oracle table and fails if DESIGN.md's
// copy has drifted. The table lives between the oracles:begin/end
// markers; regenerate it with `go run ./cmd/ccnvm-torture -oracles`.
func TestDesignOracleTable(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("reading DESIGN.md: %v", err)
	}
	const begin, end = "<!-- oracles:begin -->", "<!-- oracles:end -->"
	text := string(raw)
	i, j := strings.Index(text, begin), strings.Index(text, end)
	if i < 0 || j < i {
		t.Fatalf("DESIGN.md lacks the %s / %s markers", begin, end)
	}
	if got, want := strings.TrimSpace(text[i+len(begin):j]), strings.TrimSpace(OracleTable()); got != want {
		t.Errorf("DESIGN.md oracle table is out of date.\n--- DESIGN.md has ---\n%s\n--- OracleTable renders ---\n%s", got, want)
	}
}

func TestGenOpsPrefixStable(t *testing.T) {
	for _, w := range WorkloadNames() {
		long, err := GenOps(w, 11, 200)
		if err != nil {
			t.Fatal(err)
		}
		short, err := GenOps(w, 11, 60)
		if err != nil {
			t.Fatal(err)
		}
		for i := range short {
			if short[i] != long[i] {
				t.Fatalf("workload %s not prefix-stable at op %d (the shrinker depends on this)", w, i)
			}
		}
	}
}

// TestBrokenRecoveryCaught proves the oracles have teeth: each sabotaged
// recovery mode must be caught on a small matrix, the failure must
// shrink, and the printed repro must replay to the same verdict.
func TestBrokenRecoveryCaught(t *testing.T) {
	modes := map[string]MatrixOpts{
		// Skipping the counter-replay step leaves stale counters behind a
		// clean-looking report; clean crashes alone expose it.
		"skip-counter-replay": {
			Designs: []string{"osiris", "ccnvm"}, Workloads: []string{"hot", "hammer"},
			Attacks: []string{"none"}, Seeds: 2, Ops: 160, CrashPts: 2,
		},
		// Dropping tamper evidence is exposed by spoof/splice cells.
		"ignore-tampered": {
			Designs: []string{"sc", "ccnvm"}, Workloads: []string{"hot"},
			Attacks: []string{"spoof", "splice"}, Seeds: 2, Ops: 160, CrashPts: 2,
		},
		// Skipping the tree-vs-root check loses the location of counter
		// replays on tree-persisting designs. The rewind must exceed the
		// stop-loss bound (hammer workload, N=4) — a smaller rewind is
		// silently healed by counter recovery and asserts nothing.
		"skip-root-check": {
			Designs: []string{"ccnvm", "sc"}, Workloads: []string{"hammer"},
			Attacks: []string{"counter-replay"}, Seeds: 2, Ops: 160, CrashPts: 2,
			Ns: []uint64{4},
		},
		// Erasing the media-loss classification claims lossless images over
		// torn and dropped drains; fault cells must trip the torn-write /
		// adr-budget oracles.
		"accept-torn": {
			Designs: []string{"ccnvm", "osiris"}, Workloads: []string{"hot"},
			Attacks: []string{"none"}, Seeds: 2, Ops: 160, CrashPts: 1,
			FaultSeeds: 4,
		},
		// Arsenal's recovery rebuilds a replayed counter line's packed
		// slots from the inline counters but not its raw-fallback ones:
		// with the tamper verdict dropped, the golden check must still
		// find the stale counter line after Apply.
		"ignore-tampered:arsenal": {
			Designs: []string{"arsenal"}, Workloads: []string{"hot"},
			Attacks: []string{"counter-replay"}, Seeds: 2, Ops: 160, CrashPts: 2,
		},
	}
	for name, opts := range modes {
		name, opts := name, opts
		mode, _, _ := strings.Cut(name, ":")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, err := BrokenRunner(mode)
			if err != nil {
				t.Fatal(err)
			}
			sum := RunMatrix(context.Background(), r, EnumerateCells(opts), 0, nil)
			if !sum.Failed() {
				t.Fatalf("broken mode %q slipped past every oracle over %d cells", mode, sum.Cells)
			}
			f := sum.Failures[0]
			if !strings.HasPrefix(f.Repro, "go run ./cmd/ccnvm-torture -repro '") {
				t.Fatalf("failure carries no usable repro line: %q", f.Repro)
			}
			// The repro line must replay: parse the embedded spec and
			// re-run the minimized cell against the same broken runner.
			spec := strings.TrimSuffix(strings.TrimPrefix(f.Repro, "go run ./cmd/ccnvm-torture -repro '"), "'")
			cell, err := ParseCell(spec)
			if err != nil {
				t.Fatalf("repro spec does not parse: %v", err)
			}
			again := r.RunCell(cell)
			if again == nil {
				t.Fatalf("minimized repro %s no longer fails", f.Repro)
			}
			if again.Oracle != f.Oracle {
				t.Fatalf("repro fails a different oracle: %s vs %s", again.Oracle, f.Oracle)
			}
			// And the same cell must pass on the real recovery path.
			if g := DefaultRunner().RunCell(cell); g != nil {
				t.Fatalf("minimized cell also fails the real recovery: %v", g)
			}
			t.Logf("mode %s caught by oracle %q after %d shrink runs: %s", mode, f.Oracle, f.ShrinkRuns, f.Repro)
		})
	}
}

func TestShrinkReducesCleanFailure(t *testing.T) {
	r, err := BrokenRunner("skip-counter-replay")
	if err != nil {
		t.Fatal(err)
	}
	seedCell := Cell{Design: "osiris", Workload: "hammer", Seed: 1, Ops: 160, CrashAt: 150}
	f := r.RunCell(seedCell)
	if f == nil {
		t.Skip("seed cell did not fail under the broken runner")
	}
	min, runs := Shrink(r, *f, 64)
	if min.Cell.CrashAt > f.Cell.CrashAt {
		t.Fatalf("shrinking grew the crash point: %d -> %d", f.Cell.CrashAt, min.Cell.CrashAt)
	}
	if min.Cell.Ops != min.Cell.CrashAt {
		t.Fatalf("shrinker left a dead trace tail: ops=%d crash=%d", min.Cell.Ops, min.Cell.CrashAt)
	}
	if g := r.RunCell(min.Cell); g == nil || g.Oracle != min.Oracle {
		t.Fatalf("shrunk cell does not reproduce: %v", g)
	}
	t.Logf("shrunk crash %d -> %d in %d runs", f.Cell.CrashAt, min.Cell.CrashAt, runs)
}
