package nvm

import (
	"fmt"

	"ccnvm/internal/mem"
)

// FaultModel configures deterministic, seed-driven media faults on a
// Device. A nil model (the default) is the idealized device every prior
// result was measured on: writes are atomic at line granularity, the ADR
// flush always completes, and reads never fail. All fault machinery is
// strictly gated on the model being non-nil, so behaviour and stats stay
// bit-identical when faults are off.
//
// The model covers the three fault classes real NVM crashes exhibit:
//
//   - Torn writes: power fails while a WPQ entry is being written; each
//     of the line's eight 8-byte words (the store-atomicity granule)
//     independently holds either the old or the new value.
//   - Partial ADR drain: the backup-power energy budget covers only the
//     first ADRBudget serviceable WPQ entries; later entries tear or
//     drop whole.
//   - Read errors: a written line may be weak (transient read errors
//     healed by controller retry and scrubbing) or become stuck at power
//     loss (permanent read errors until the line is rewritten, modeling
//     a remap to a spare).
//
// Every decision is a pure function of (Seed, address, wear), so a cell
// replays identically under the torture harness and shrinker.
type FaultModel struct {
	// Seed drives every fault decision; two devices with equal seeds and
	// equal histories fail identically.
	Seed int64

	// TornWrites selects how WPQ entries beyond the ADR budget (and held
	// epoch entries that never saw the end signal) fail: torn at 8-byte
	// word granularity instead of dropped whole.
	TornWrites bool

	// ADRBudget bounds how many serviceable WPQ entries the ADR flush
	// energy covers at power failure, oldest first. 0 means unbounded
	// (the baseline ADR guarantee).
	ADRBudget int

	// WeakLineRate is the probability (0..1) that a written line's
	// current cell state is weak: reads fail transiently (one or two
	// attempts) until the line is rewritten.
	WeakLineRate float64

	// StuckLines is how many written lines become permanently unreadable
	// at each power failure (picked deterministically from the written
	// set). A subsequent write heals the line (remap to a spare).
	StuckLines int

	// SpareLines sizes the device's finite spare-line pool. 0 (the
	// default) is the historical unlimited pool: stuck lines heal on
	// rewrite and scrub give-ups are exempted without accounting, so
	// every prior result stays bit-identical. A positive value arms real
	// media management: each heal or exemption consumes one spare from a
	// crash-consistent remap table, and when the pool empties the
	// controller degrades to read-only instead of healing forever.
	// Capped at RemapMaxEntries, the remap record's capacity.
	SpareLines int
}

// Salts separate the fault model's decision streams.
const (
	saltWeak  = 0x11
	saltFails = 0x22
	saltTear  = 0x33
	saltStuck = 0x44
)

// Enabled reports whether the model can produce any fault at all.
func (m *FaultModel) Enabled() bool {
	return m != nil && (m.TornWrites || m.ADRBudget > 0 || m.WeakLineRate > 0 || m.StuckLines > 0 || m.SpareLines > 0)
}

// CrashAffectsWPQ reports whether a power failure can damage WPQ
// entries, i.e. whether the controller must track in-flight writes.
func (m *FaultModel) CrashAffectsWPQ() bool {
	return m != nil && (m.TornWrites || m.ADRBudget > 0)
}

// hash mixes the seed with the given values into one 64-bit decision.
func (m *FaultModel) hash(vals ...uint64) uint64 {
	h := uint64(m.Seed) ^ 0x9e3779b97f4a7c15
	for _, v := range vals {
		h = mem.Mix64(h ^ v)
	}
	return h
}

// lineWeak decides whether the cell state written at the given wear
// level of address a is weak. Rewriting the line bumps wear and re-rolls
// the decision, which is what makes scrubbing converge.
func (m *FaultModel) lineWeak(a mem.Addr, wear uint64) bool {
	if m.WeakLineRate <= 0 {
		return false
	}
	h := m.hash(uint64(a), wear, saltWeak)
	return float64(h>>11)/float64(1<<53) < m.WeakLineRate
}

// failCount is how many consecutive read attempts of a weak line fail
// before one succeeds: one or two, per the transient-error model.
func (m *FaultModel) failCount(a mem.Addr, wear uint64) int {
	return 1 + int(m.hash(uint64(a), wear, saltFails)&1)
}

// TearMask decides the fate of a WPQ entry the ADR flush could not
// cover: the returned mask has bit i set when 8-byte word i of the new
// content reached the media. Mask 0 is a whole drop; when TornWrites is
// off the entry always drops whole. seq disambiguates entries to the
// same address.
func (m *FaultModel) TearMask(a mem.Addr, seq uint64) byte {
	if !m.TornWrites {
		return 0
	}
	h := m.hash(uint64(a), seq, saltTear)
	if h%4 == 0 {
		return 0 // power died before the first word
	}
	return byte(h >> 8)
}

// MixWords composes a torn line: word i (8 bytes) comes from new when
// bit i of mask is set, else from old.
func MixWords(old, new mem.Line, mask byte) mem.Line {
	out := old
	for w := 0; w < 8; w++ {
		if mask&(1<<w) != 0 {
			copy(out[w*8:w*8+8], new[w*8:w*8+8])
		}
	}
	return out
}

// TearChunks composes a multi-line record write that power failure
// struck: the 64-byte chunk at offset o of dst becomes MixWords of the
// old and new chunks under the mask TearMask draws at base+o and seq.
// dst may alias old or new. Reports whether any chunk lost a word.
func (m *FaultModel) TearChunks(dst, old, new []byte, base mem.Addr, seq uint64) bool {
	torn := false
	for c := 0; c < len(dst); c += mem.LineSize {
		mask := m.TearMask(base+mem.Addr(c), seq)
		mixed := MixWords(mem.Line(old[c:c+mem.LineSize]), mem.Line(new[c:c+mem.LineSize]), mask)
		copy(dst[c:], mixed[:])
		torn = torn || mask != 0xff
	}
	return torn
}

// FaultEvent records one line a power failure damaged under the fault
// model — the harness's ground truth for the healing oracles.
type FaultEvent struct {
	Addr mem.Addr `json:"addr"`
	// Kind is "torn" (some words of the new content persisted),
	// "dropped" (no word persisted; the line kept its prior content) or
	// "stuck" (the line became permanently unreadable).
	Kind string `json:"kind"`
	// Mask is the persisted-word mask for torn entries.
	Mask byte `json:"mask,omitempty"`
	// Held marks entries that were held for an atomic epoch drain (and
	// would have been dropped whole even on the idealized device).
	Held bool `json:"held,omitempty"`
}

// FaultLog is the ground-truth record of what one power failure did
// under the fault model. Only Suspects is architecturally visible:
// a real controller persists that tiny manifest (line addresses only)
// first, before spending flush energy on data, so recovery may use it to
// attribute authentication failures to crash damage instead of
// tampering. Events and Flushed exist for the torture oracles and
// diagnostics; recovery must never read them.
type FaultLog struct {
	Suspects []mem.Addr   `json:"suspects"`
	Events   []FaultEvent `json:"events"`
	Flushed  int          `json:"flushed"` // serviceable entries fully flushed
}

// AddrRangeError reports a write outside the device address space: a
// malformed address escaped the layout. It is a typed error (not a
// panic) so fuzzed and torture paths surface it as a cell failure.
type AddrRangeError struct {
	Addr mem.Addr
}

func (e *AddrRangeError) Error() string {
	return fmt.Sprintf("nvm: write outside address space: %#x", uint64(e.Addr))
}

// SpareExhaustedError reports that the finite spare pool is empty: a
// line could not be remapped, or (Addr zero) the controller refused to
// open a new epoch because the media is in read-only degradation. It is
// typed so callers can tell graceful capacity exhaustion apart from
// protocol errors.
type SpareExhaustedError struct {
	Total int      // pool size the device was provisioned with
	Addr  mem.Addr // line whose remap was refused; 0 for an epoch refusal
}

func (e *SpareExhaustedError) Error() string {
	if e.Addr != 0 {
		return fmt.Sprintf("nvm: spare pool exhausted (%d lines): cannot remap %#x", e.Total, uint64(e.Addr))
	}
	return fmt.Sprintf("nvm: spare pool exhausted (%d lines): media is read-only", e.Total)
}

// ReadError reports a media read failure the controller could not hide.
type ReadError struct {
	Addr      mem.Addr
	Transient bool // true for weak-line errors, false for stuck lines
}

func (e *ReadError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("nvm: %s read error at %#x", kind, uint64(e.Addr))
}
