// Package torture is the differential crash/attack torture harness: it
// enumerates (design x workload x crash point x attack) cells, runs each
// cell's workload on a real engine up to the crash point, optionally
// injects an attack into the crash image, invokes recovery, and checks a
// shared set of invariant oracles against a golden serial reference
// machine built on unmemoized crypto (see oracles.go for the oracle
// list). KV cells (kvcrash.go) are the same Cell crashing the KV
// namespace at host-write boundaries. Failures carry a one-line
// `ccnvm-torture -repro` command and are minimized by the shrinker
// (shrink.go) before being reported.
//
// The harness drives engines directly (WriteBack/ReadBlock), not through
// the cached simulator machine, so crash points land between individual
// write-backs and every persisted byte is attributable to a specific
// operation of the trace.
package torture

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/nvm"
	"ccnvm/internal/store"
)

// Capacity is the NVM data capacity used by every torture cell. 1 GiB
// keeps layout construction cheap while preserving a multi-level tree.
const Capacity = 1 << 30

// DesignNames lists every design the harness can torture, in the
// paper's order followed by the extensions (registry order).
func DesignNames() []string { return design.Names() }

// PaperDesigns lists the five designs of the paper's evaluation.
func PaperDesigns() []string { return design.PaperNames() }

// AttackNames lists the attack kinds a cell may inject; "none" is the
// clean-crash control.
func AttackNames() []string {
	return []string{"none", "spoof", "splice", "counter-replay", "data-replay", "tree-spoof"}
}

// Cell is one torture-matrix point. The zero value is not runnable; use
// (Cell).normalized or EnumerateCells to fill defaults.
//
// A cell whose Workload is KVWorkload crashes the KV namespace instead
// of a trace (see kvcrash.go): it drives Batches batches, CrashAt counts
// host writes rather than ops (-1: power fails only after the last
// batch), and the trace, attack and fault axes stay zero.
type Cell struct {
	Design   string `json:"design"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"ops"`               // trace length generated for the cell
	Batches  int    `json:"batches,omitempty"` // KV cells: batches driven into the namespace
	CrashAt  int    `json:"crash"`             // power failure after this many ops (KV: host writes)
	Attack   string `json:"attack"`            // one of AttackNames
	N        uint64 `json:"n"`                 // engine update limit (0 = paper default)
	M        int    `json:"m"`                 // dirty address queue entries (0 = default)

	// CompactEvery runs a KV compaction pass after every k-th
	// acknowledged batch, so the crash sweep lands inside its phases.
	CompactEvery int `json:"compact_every,omitempty"`

	// Media-fault dimensions; all zero reproduces the idealized device
	// bit-for-bit. FaultSeed drives every fault decision deterministically.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	Torn      bool  `json:"torn,omitempty"`       // torn-line persistence at crash
	ADRBudget int   `json:"adr_budget,omitempty"` // ADR flushes only this many WPQ entries whole
	WeakPct   int   `json:"weak_pct,omitempty"`   // percent of written lines with transient read errors
	Stuck     int   `json:"stuck,omitempty"`      // lines stuck-at failed at the crash

	// Spares arms the finite spare pool: stuck-line heals, scrub
	// give-ups and retry-exhaustion remaps all draw from this many spare
	// lines, the remap table rides the crash image, and the controller
	// degrades (Degraded → ReadOnly) as the pool empties. Zero keeps the
	// historical unlimited pool. Only meaningful alongside a weak/stuck
	// axis, which Validate enforces.
	Spares int `json:"spares,omitempty"`

	// Reboot-loop dimensions: after the first recovery reports clean,
	// re-run Apply up to Reboots times, striking the RebootEvery-th
	// persisted recovery write of each pass (torn under the cell's fault
	// model, dropped whole without one) and re-entering recovery, then
	// finish with an uninterrupted pass. Zero Reboots reproduces the
	// single-shot harness bit-for-bit.
	RebootEvery int `json:"reboot_every,omitempty"` // strike the k-th recovery write of each pass
	Reboots     int `json:"reboots,omitempty"`      // interrupted recovery passes before the final one
}

// Faulty reports whether any media-fault dimension is active.
func (c Cell) Faulty() bool {
	return c.Torn || c.ADRBudget > 0 || c.WeakPct > 0 || c.Stuck > 0 || c.Spares > 0
}

// faultModel materializes the cell's fault dimensions, nil when the cell
// runs on the idealized device.
func (c Cell) faultModel() *nvm.FaultModel {
	if !c.Faulty() {
		return nil
	}
	return &nvm.FaultModel{
		Seed:         c.FaultSeed,
		TornWrites:   c.Torn,
		ADRBudget:    c.ADRBudget,
		WeakLineRate: float64(c.WeakPct) / 100,
		StuckLines:   c.Stuck,
		SpareLines:   c.Spares,
	}
}

// normalized fills defaults and clamps the crash point into the trace.
func (c Cell) normalized() Cell {
	if c.Workload == "" {
		c.Workload = "hot"
	}
	if c.Attack == "" {
		c.Attack = "none"
	}
	if c.KV() {
		return c
	}
	if c.Ops <= 0 {
		c.Ops = 200
	}
	if c.CrashAt <= 0 {
		c.CrashAt = c.Ops
	}
	return c
}

// Validate rejects cells outside the harness's vocabulary. A KV cell
// also needs a crash-consistent design, one whose recovery does not cry
// wolf (TamperOnCrash): w/o CC flags every crash as tampering, so there
// is no clean image to rebuild a keymap from.
func (c Cell) Validate() error {
	if !slices.Contains(DesignNames(), c.Design) {
		return fmt.Errorf("torture: unknown design %q", c.Design)
	}
	if c.KV() {
		switch {
		case !slices.Contains(KVDesigns(), c.Design):
			return fmt.Errorf("torture: design %s is not crash-consistent; KV cells do not apply", c.Design)
		case c.Batches < 1:
			return fmt.Errorf("torture: kv cell needs at least 1 batch, got %d", c.Batches)
		case c.CrashAt < -1:
			return fmt.Errorf("torture: kv crash write %d out of range (-1 = after the last batch)", c.CrashAt)
		case c.Ops != 0 || c.Attack != "none" || c.N != 0 || c.M != 0 || c.Faulty():
			return fmt.Errorf("torture: kv cells take no ops, attack, n, m or fault axis")
		}
	} else {
		if !slices.Contains(WorkloadNames(), c.Workload) {
			return fmt.Errorf("torture: unknown workload %q", c.Workload)
		}
		if !slices.Contains(AttackNames(), c.Attack) {
			return fmt.Errorf("torture: unknown attack %q", c.Attack)
		}
		if c.Ops < 1 || c.Ops > 1<<20 {
			return fmt.Errorf("torture: ops %d out of range", c.Ops)
		}
		if c.CrashAt < 1 || c.CrashAt > c.Ops {
			return fmt.Errorf("torture: crash point %d outside trace of %d ops", c.CrashAt, c.Ops)
		}
		if c.Batches != 0 || c.CompactEvery != 0 {
			return fmt.Errorf("torture: batches and compact apply to workload=%s only", KVWorkload)
		}
	}
	for _, f := range specFields {
		if f.hi > 0 && !f.inRange(&c) {
			return fmt.Errorf("torture: %s=%s out of range [%d,%d]", f.key, formatField(f.field(&c)), f.lo, f.hi)
		}
	}
	if c.Spares > 0 && c.WeakPct == 0 && c.Stuck == 0 {
		// A finite pool no heal or scrub ever draws from exercises
		// nothing; require a consumer axis.
		return fmt.Errorf("torture: spares=%d without a weak or stuck axis to consume them", c.Spares)
	}
	if c.Reboots > 0 && c.RebootEvery < 1 {
		return fmt.Errorf("torture: reboots=%d needs a strike stride (revery >= 1)", c.Reboots)
	}
	if c.RebootEvery > 0 && c.Reboots == 0 {
		return fmt.Errorf("torture: revery=%d without reboots", c.RebootEvery)
	}
	if c.RebootEvery == 1 && c.Reboots > 1 {
		// Striking every pass's FIRST recovery write kills the journal
		// bootstrap record itself each time: no pass can persist any
		// progress, so repeated reboots cannot converge by construction.
		// A single such reboot (Reboots=1) is still a valid probe — the
		// final uninterrupted pass completes it.
		return fmt.Errorf("torture: revery=1 with %d reboots cannot converge (every pass loses its first write)", c.Reboots)
	}
	return nil
}

// RefusalReason reports why the harness would refuse or waste this
// cell, "" when it is fully runnable. Two kinds of cell burn budget
// without exercising anything: specs Validate rejects outright, and
// reboot-axis cells on designs whose recovery flags every crash as
// tampered (TamperOnCrash) — their first recovery is never clean, so
// runRebootLoop skips the entire axis the cell was enumerated for.
// Budgeted sweeps exclude such cells before sampling (see applyBudget).
func (c Cell) RefusalReason() string {
	if err := c.Validate(); err != nil {
		return err.Error()
	}
	if c.Reboots > 0 && design.MustLookup(c.Design).Caps.TamperOnCrash {
		return "reboot loop refused: design flags tamper on every crash"
	}
	return ""
}

// specFields is the cell spec grammar, one row per key in String's
// order: the key, the Cell field it binds, when String emits it, and
// for a plain numeric axis the [lo, hi] range Validate holds it to (hi
// 0: the field has no range of its own). A trace cell always carries
// ops, attack, n and m, a KV cell batches instead, and every other axis
// appears only when active, so a cell's spec names exactly the axes it
// exercises. ParseCell accepts every key.
type specField struct {
	key    string
	field  func(*Cell) any
	show   func(Cell) bool
	lo, hi int64
}

var specFields = []specField{
	{"design", func(c *Cell) any { return &c.Design }, always, 0, 0},
	{"workload", func(c *Cell) any { return &c.Workload }, always, 0, 0},
	{"seed", func(c *Cell) any { return &c.Seed }, always, 0, 0},
	{"ops", func(c *Cell) any { return &c.Ops }, isTrace, 0, 0},
	{"batches", func(c *Cell) any { return &c.Batches }, Cell.KV, 0, 1 << 10},
	{"crash", func(c *Cell) any { return &c.CrashAt }, always, 0, 0},
	{"attack", func(c *Cell) any { return &c.Attack }, isTrace, 0, 0},
	{"n", func(c *Cell) any { return &c.N }, isTrace, 0, 1 << 12},
	{"m", func(c *Cell) any { return &c.M }, isTrace, 0, 1 << 12},
	{"compact", func(c *Cell) any { return &c.CompactEvery }, func(c Cell) bool { return c.CompactEvery > 0 }, 0, 1 << 10},
	{"fseed", func(c *Cell) any { return &c.FaultSeed }, Cell.Faulty, 0, 0},
	{"torn", func(c *Cell) any { return &c.Torn }, func(c Cell) bool { return c.Torn }, 0, 0},
	{"adr", func(c *Cell) any { return &c.ADRBudget }, func(c Cell) bool { return c.ADRBudget > 0 }, 0, 1 << 16},
	{"weak", func(c *Cell) any { return &c.WeakPct }, func(c Cell) bool { return c.WeakPct > 0 }, 0, 100},
	{"stuck", func(c *Cell) any { return &c.Stuck }, func(c Cell) bool { return c.Stuck > 0 }, 0, 64},
	{"spares", func(c *Cell) any { return &c.Spares }, func(c Cell) bool { return c.Spares > 0 }, 0, nvm.RemapMaxEntries},
	{"revery", func(c *Cell) any { return &c.RebootEvery }, func(c Cell) bool { return c.Reboots > 0 }, 0, 1 << 16},
	{"reboots", func(c *Cell) any { return &c.Reboots }, func(c Cell) bool { return c.Reboots > 0 }, 0, 64},
}

func always(Cell) bool    { return true }
func isTrace(c Cell) bool { return !c.KV() }

// inRange reports whether c's value of the numeric field f lies in
// [f.lo, f.hi].
func (f specField) inRange(c *Cell) bool {
	v := reflect.ValueOf(f.field(c)).Elem()
	if v.CanUint() {
		return v.Uint() <= uint64(f.hi)
	}
	return v.Int() >= f.lo && v.Int() <= f.hi
}

// String renders the cell as the key=value spec Repro embeds.
func (c Cell) String() string {
	var parts []string
	for _, f := range specFields {
		if f.show(c) {
			parts = append(parts, f.key+"="+formatField(f.field(&c)))
		}
	}
	return strings.Join(parts, ",")
}

// Repro is the one-line command that replays exactly this cell.
func (c Cell) Repro() string {
	return fmt.Sprintf("go run ./cmd/ccnvm-torture -repro '%s'", c.String())
}

// ParseCell inverts (Cell).String: a comma-separated key=value spec.
func ParseCell(spec string) (Cell, error) {
	var c Cell
	for _, kv := range strings.Split(strings.TrimSpace(spec), ",") {
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Cell{}, fmt.Errorf("torture: bad cell field %q (want key=value)", kv)
		}
		i := slices.IndexFunc(specFields, func(f specField) bool { return f.key == k })
		if i < 0 {
			return Cell{}, fmt.Errorf("torture: unknown cell field %q", k)
		}
		if err := parseField(specFields[i].field(&c), v); err != nil {
			return Cell{}, fmt.Errorf("torture: bad value for %s: %w", k, err)
		}
	}
	c = c.normalized()
	if err := c.Validate(); err != nil {
		return Cell{}, err
	}
	return c, nil
}

// formatField and parseField convert one spec value; a bool is "1" when
// set and parses from "1" or "true".
func formatField(p any) string {
	if b, ok := p.(*bool); ok && *b {
		return "1"
	}
	return fmt.Sprint(reflect.ValueOf(p).Elem())
}

func parseField(p any, s string) (err error) {
	switch v := p.(type) {
	case *string:
		*v = s
	case *int:
		*v, err = strconv.Atoi(s)
	case *int64:
		*v, err = strconv.ParseInt(s, 10, 64)
	case *uint64:
		*v, err = strconv.ParseUint(s, 10, 64)
	case *bool:
		*v = s == "1" || s == "true"
	}
	return err
}

// BuildEngine constructs a fresh engine of the named design through the
// storage-engine facade, mirroring the simulator's wiring but without
// the CPU-side caches the harness does not need. A non-nil fault model
// arms the device with deterministic media faults; the facade is
// returned so the harness can drive scrubbing and read controller fault
// statistics without reaching below the engine boundary.
func BuildEngine(name string, p engine.Params, fm *nvm.FaultModel) (engine.Engine, *store.Store, error) {
	st, err := store.Open(store.Options{
		Design:   name,
		Capacity: Capacity,
		Params:   p,
		Faults:   fm,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("torture: %w", err)
	}
	return st.Engine(), st, nil
}
