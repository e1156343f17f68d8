// Package design is the central registry of secure-NVM designs. Every
// design contributes exactly one Descriptor — its name, paper label,
// engine constructor and declarative capability set —
// and every consumer (sim, recovery, torture, experiments, the CLIs)
// dispatches off the registry instead of re-encoding per-design facts in
// scattered string switches. Adding a design is one Register call in
// catalog.go; `make lint-designs` keeps dispatch from re-scattering.
package design

import (
	"fmt"
	"sort"
	"strings"

	"ccnvm/internal/design/names"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/memctrl"
	"ccnvm/internal/metacache"
	"ccnvm/internal/seccrypto"
)

// Re-exported name constants: consumers say design.CCNVM instead of a
// string literal. The underlying constants live in the leaf package
// internal/design/names so the engine implementations can use them too.
const (
	WoCC      = names.WoCC
	SC        = names.SC
	Osiris    = names.Osiris
	CCNVMWoDS = names.CCNVMWoDS
	CCNVM     = names.CCNVM
	CCNVMExt  = names.CCNVMExt
	Arsenal   = names.Arsenal
)

// Constructor builds a design's security engine over a laid-out NVM
// device reached through the given memory controller.
type Constructor func(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, mc metacache.Config, p engine.Params) engine.Engine

// ReplayDetection classifies how (and whether) a design detects a
// data-replay inside its post-crash window, i.e. recovery's step 3.
type ReplayDetection int

const (
	// ReplayUndetectable: the design keeps no evidence; replayed stale
	// data recovers silently (the w/o-CC baseline's failure mode).
	ReplayUndetectable ReplayDetection = iota

	// ReplayRootCompare: the rebuilt tree root is compared against the
	// persisted ROOTnew — detect-only, nothing can be located.
	ReplayRootCompare

	// ReplayNwbWindow: the persisted write-back counter Nwb must equal
	// the recovery retry total Nretry — cc-NVM's detected-but-not-located
	// verdict on the deferred-spreading window.
	ReplayNwbWindow

	// ReplayPerLinePage: per-counter-line update registers pin a window
	// replay to the 4 KiB page it hit — the §4.4 extension.
	ReplayPerLinePage
)

// Capabilities is the declarative per-design fact sheet the oracles and
// recovery consult instead of matching on names.
type Capabilities struct {
	// TamperOnCrash: the design cries wolf on a clean crash — losing
	// on-chip metadata makes the image unverifiable, so recovery reports
	// tampering by design (the w/o-CC baseline). Every other design is
	// crash consistent: each acknowledged write survives a clean (not
	// attacked, not media-damaged) crash and recovery reports clean.
	TamperOnCrash bool

	// TreePersisted: the integrity tree is persisted consistently enough
	// for recovery step 1 to verify it against ROOTold/ROOTnew. Osiris
	// and Arsenal keep their tree on chip only and skip the step.
	TreePersisted bool

	// EpochAtomic: crash recovery lands exactly on an epoch boundary —
	// counter/tree persistence is atomic per epoch, so attacks on
	// persisted counters or tree nodes are caught and located in step 1
	// and the retry total is architecturally pinned.
	EpochAtomic bool

	// ZeroRetryRecovery: the design persists every counter before
	// acknowledging the write-back, so an un-attacked, un-damaged crash
	// recovers with zero HMAC retries and zero recovered blocks (SC).
	ZeroRetryRecovery bool

	// Replay: how the post-crash replay window is detected (step 3).
	Replay ReplayDetection
}

// Descriptor is one registered design.
type Descriptor struct {
	// Name is the canonical design name (a names.* constant) used in
	// configs, flags, crash images and CSV columns.
	Name string

	// Label is the paper's display label (figure legends, tables).
	Label string

	// InFigures marks the five designs evaluated in the paper's figures;
	// the rest are extensions and related-work baselines.
	InFigures bool

	// Baseline marks the normalization baseline (w/o CC): figure sweeps
	// divide by its IPC and write counts.
	Baseline bool

	// New constructs the design's security engine.
	New Constructor

	// Caps is the design's declarative capability set.
	Caps Capabilities
}

// registry holds descriptors in registration order; catalog.go registers
// the paper's five first, then the extensions, so Names() preserves the
// historical ordering every figure and golden file assumes.
var registry []Descriptor

// Register adds a descriptor. It panics on duplicates or incomplete
// descriptors — registration happens in init, so a bad catalog entry is
// a programming error, not a runtime condition.
func Register(d Descriptor) {
	switch {
	case d.Name == "":
		panic("design: Register with empty Name")
	case d.Label == "":
		panic(fmt.Sprintf("design: %q registered without a label", d.Name))
	case d.New == nil:
		panic(fmt.Sprintf("design: %q registered without a constructor", d.Name))
	}
	for _, e := range registry {
		if e.Name == d.Name {
			panic(fmt.Sprintf("design: %q registered twice", d.Name))
		}
	}
	registry = append(registry, d)
}

// Lookup returns the descriptor registered under name.
func Lookup(name string) (Descriptor, bool) {
	for _, d := range registry {
		if d.Name == name {
			return d, true
		}
	}
	return Descriptor{}, false
}

// MustLookup is Lookup for names already validated; it panics on an
// unregistered name.
func MustLookup(name string) Descriptor {
	d, ok := Lookup(name)
	if !ok {
		panic(UnknownError(name))
	}
	return d
}

// UnknownError is the uniform unknown-design error: it names the culprit
// and lists every registered name, sorted, so a CLI typo is self-fixing.
func UnknownError(name string) error {
	reg := Names()
	sort.Strings(reg)
	return fmt.Errorf("unknown design %q (registered: %s)", name, strings.Join(reg, ", "))
}

// Names lists every registered design in registration order (the
// paper's five, then the extensions).
func Names() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.Name
	}
	return out
}

// PaperNames lists the designs evaluated in the paper's figures, in the
// paper's order.
func PaperNames() []string {
	var out []string
	for _, d := range registry {
		if d.InFigures {
			out = append(out, d.Name)
		}
	}
	return out
}

// Label maps a design name to its display label; unregistered names
// label as themselves so ad-hoc experiment columns still render.
func Label(name string) string {
	if d, ok := Lookup(name); ok {
		return d.Label
	}
	return name
}

// BaselineName returns the normalization baseline's name.
func BaselineName() string {
	for _, d := range registry {
		if d.Baseline {
			return d.Name
		}
	}
	panic("design: no baseline registered")
}

// All returns a copy of every descriptor in registration order.
func All() []Descriptor {
	out := make([]Descriptor, len(registry))
	copy(out, registry)
	return out
}

// ForImage resolves the descriptor recovery should use for a crash
// image. Unregistered names (hand-built test images, forward-compat)
// fall back to the conservative historical behaviour: tree verified in
// step 1, no replay-window claim.
func ForImage(name string) Descriptor {
	if d, ok := Lookup(name); ok {
		return d
	}
	return Descriptor{
		Name:  name,
		Label: name,
		Caps:  Capabilities{TreePersisted: true, Replay: ReplayUndetectable},
	}
}
