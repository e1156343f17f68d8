package experiments

import (
	"fmt"
	"slices"
	"strings"

	"ccnvm/internal/attack"
	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/recovery"
	"ccnvm/internal/report"
	"ccnvm/internal/sim"
	"ccnvm/internal/trace"
)

// Verdict summarizes one design's recovery outcome against one attack.
type Verdict int

// Verdict values.
const (
	VerdictClean     Verdict = iota // clean crash recovered cleanly
	VerdictMissed                   // an injected attack went undetected
	VerdictDetected                 // attack detected, all data dropped
	VerdictLocated                  // attack detected and pinned to blocks/pages
	VerdictUnrecover                // staleness indistinguishable from attack
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictClean:
		return "clean"
	case VerdictMissed:
		return "MISSED!"
	case VerdictDetected:
		return "detected"
	case VerdictLocated:
		return "LOCATED"
	case VerdictUnrecover:
		return "unrecoverable"
	default:
		return "?"
	}
}

// MarshalText makes JSON carry a verdict by name, as the table does.
func (v Verdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// Attacks lists the §4.4 scenarios of the recovery matrix, in report
// order.
func Attacks() []string {
	return []string{"none", "spoof", "splice", "counter-replay", "data-replay"}
}

// RecoveryMatrix is the E7 experiment: every design crashed under every
// attack, recovered, and judged. The paper's claims become one table:
// cc-NVM locates everything except the DS-window data replay (which it
// detects via Nwb), Osiris Plus only ever detects, and w/o CC cannot
// even survive a clean crash.
type RecoveryMatrix struct {
	Designs  []string
	Attacks  []string
	Verdicts map[string]map[string]Verdict // design -> attack -> verdict
}

// RunRecoveryMatrix executes the matrix. Designs defaults to the five
// paper designs plus the §4.4 extension; pass design.Names() to add
// Arsenal (whose counter-region replay cell is a no-op, since packed
// blocks keep their counters inline).
func RunRecoveryMatrix(designs []string) (*RecoveryMatrix, error) {
	if len(designs) == 0 {
		designs = append(sim.Designs(), design.CCNVMExt)
	}
	m := &RecoveryMatrix{
		Designs:  designs,
		Attacks:  Attacks(),
		Verdicts: map[string]map[string]Verdict{},
	}
	for _, d := range designs {
		clean, err := CleanCrash(d)
		if err != nil {
			return nil, err
		}
		m.Verdicts[d] = map[string]Verdict{"none": clean}
		for _, a := range m.Attacks[1:] {
			img, err := Scenario(d, a)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", d, a, err)
			}
			m.Verdicts[d][a] = Attribute(clean, Judge(a, recovery.Recover(img)))
		}
	}
	return m, nil
}

// CleanCrash is the verdict of design's "none" cell.
func CleanCrash(design string) (Verdict, error) {
	img, err := Scenario(design, "none")
	if err != nil {
		return 0, fmt.Errorf("experiments: %s/none: %w", design, err)
	}
	return Judge("none", recovery.Recover(img)), nil
}

// Attribute applies the matrix's row rule to v, the verdict of one of a
// design's cells, given clean, the verdict of its "none" cell. A design
// that cannot even survive a clean crash has no way to attribute damage
// to an attacker: every flagged block might be innocent staleness, so
// each of its cells is VerdictUnrecover.
func Attribute(clean, v Verdict) Verdict {
	if clean != VerdictClean {
		return VerdictUnrecover
	}
	return v
}

// Scenario crashes design under attack att (one of Attacks) and returns
// the attacked crash image. Every scenario first hammers one hot line
// far beyond the recovery bound N and then runs a gcc trace, so the
// cells of one design differ only in the attack.
func Scenario(design, att string) (*engine.CrashImage, error) {
	if !slices.Contains(Attacks(), att) {
		return nil, fmt.Errorf("unknown attack %q (want one of %s)", att, strings.Join(Attacks(), ", "))
	}
	machine, err := sim.New(sim.Config{Design: design})
	if err != nil {
		return nil, err
	}
	p, err := trace.ProfileByName("gcc")
	if err != nil {
		return nil, err
	}
	g, err := trace.NewGenerator(p, 9)
	if err != nil {
		return nil, err
	}
	ops := trace.Collect(g, 20000)
	// Hammer one hot line far beyond the recovery bound N before the
	// trace: consistent designs drain it, w/o CC leaves its NVM counter
	// hopelessly stale — the paper's motivating failure.
	hot := mem.Addr(256 << 20)
	hammer := writeBackTail(hot, 40)

	var img *engine.CrashImage
	switch att {
	case "data-replay":
		// The Figure 4 window: snapshot between write-backs of one block
		// inside a single epoch.
		machine.Run("gcc", hammer)
		machine.Run("gcc", ops)
		victim := mem.Addr(512 << 20)
		machine.Run("gcc", writeBackTail(victim, 1))
		snap := machine.Snapshot()
		machine.Run("gcc", writeBackTail(victim, 2))
		img = machine.Crash()
		err = attack.ReplayBlock(img, snap, victim)
	case "counter-replay":
		// The hot line drains repeatedly (its update count keeps hitting
		// N), so its NVM counter is guaranteed to change between the
		// snapshot and the crash; the replay then breaks the tree's
		// parent/child chain (or the counter's recoverability).
		machine.Run("gcc", hammer)
		machine.Run("gcc", ops[:len(ops)/2])
		snap := machine.Snapshot()
		machine.Run("gcc", writeBackTail(hot, 40))
		machine.Run("gcc", ops[len(ops)/2:])
		img = machine.Crash()
		err = attack.ReplayCounterLine(img, snap, hot)
	default:
		machine.Run("gcc", hammer)
		machine.Run("gcc", ops)
		img = machine.Crash()
		if att == "none" {
			break
		}
		// Spoof the first written data line, or splice it with the last.
		data := img.Image.Store.Range(img.Image.Layout.Bounds(mem.RegionData))
		if len(data) == 0 {
			return nil, fmt.Errorf("attack %q: no data line in the image", att)
		}
		if att == "spoof" {
			err = attack.SpoofData(img, data[0])
		} else {
			err = attack.SpliceData(img, data[0], data[len(data)-1])
		}
	}
	if err != nil {
		return nil, err
	}
	return img, nil
}

// Judge classifies the recovery report of an att scenario, before the
// row rule (Attribute) is applied.
func Judge(att string, rep *recovery.Report) Verdict {
	switch {
	case att == "none" && rep.Clean():
		return VerdictClean
	case att == "none":
		return VerdictUnrecover
	case rep.Clean():
		// The injected attack produced no report at all.
		return VerdictMissed
	case rep.Located():
		return VerdictLocated
	default:
		return VerdictDetected
	}
}

// writeBackTail forces n write-backs of victim via L1/L2 set conflicts
// (a 32 KiB stride aliases both caches' sets).
func writeBackTail(victim mem.Addr, n int) []trace.Op {
	var ops []trace.Op
	for i := 0; i < n; i++ {
		ops = append(ops, trace.Op{Kind: trace.Store, Addr: victim, Gap: 2})
		for k := 1; k <= 10; k++ {
			ops = append(ops, trace.Op{Kind: trace.Load, Addr: victim + mem.Addr(k*32<<10), Gap: 2})
		}
	}
	return ops
}

// Table renders the matrix.
func (m *RecoveryMatrix) Table() string {
	t := report.NewTable("Recovery matrix (attack -> verdict)", labels(m.Designs)...)
	for _, a := range m.Attacks {
		row := make([]string, len(m.Designs))
		for i, d := range m.Designs {
			row[i] = m.Verdicts[d][a].String()
		}
		t.AddRow(a, row...)
	}
	return t.String()
}
