package torture

import (
	"fmt"
	"maps"
	"slices"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/seccrypto"
)

// Reference is the golden machine the differential oracles compare
// against: a serial, unmemoized model of what the architecture promises.
// It mirrors every write-back at the semantic level — split-counter bump
// (including minor overflow), latest plaintext, write count — using
// seccrypto's reference engine, so none of the memo tables, the HMAC
// kernel, caches, queues or drain policies under test can influence the
// expected state.
type Reference struct {
	cry      *seccrypto.Engine
	lay      *mem.Layout
	counters map[mem.Addr]seccrypto.CounterLine
	plain    map[mem.Addr]mem.Line
	writes   map[mem.Addr]uint64
	history  map[mem.Addr][]version
}

// version is one acceptable post-crash state of a data block: the
// effective counter and plaintext a specific write (or minor-overflow
// re-encryption) gave it. The media-fault oracles verify recovered
// blocks against the history, not just the latest state — a partial ADR
// drain may legitimately leave a block at an older version, which is
// crash loss the report must own, while content matching no version is
// fabrication.
type version struct {
	Ctr uint64
	Pt  mem.Line
}

// NewReference builds a reference machine over the harness layout.
func NewReference(lay *mem.Layout, keys seccrypto.Keys) *Reference {
	cry, err := seccrypto.NewReferenceEngine(keys)
	if err != nil {
		panic(err)
	}
	return &Reference{
		cry:      cry,
		lay:      lay,
		counters: make(map[mem.Addr]seccrypto.CounterLine),
		plain:    make(map[mem.Addr]mem.Line),
		writes:   make(map[mem.Addr]uint64),
		history:  make(map[mem.Addr][]version),
	}
}

// WriteBack mirrors one dirty eviction: bump the block's split counter
// (with the same overflow semantics as the engines) and remember the
// plaintext as the block's expected content.
func (r *Reference) WriteBack(addr mem.Addr, pt mem.Line) {
	addr = mem.Align(addr)
	ca := r.lay.CounterLineOf(addr)
	slot := r.lay.CounterSlotOf(addr)
	cl := r.counters[ca]
	overflow := cl.Bump(slot)
	r.counters[ca] = cl
	if overflow {
		// A minor overflow re-encrypts every written block of the page
		// under its new effective counter (the engines persist that
		// immediately), so each gains a fresh acceptable version with
		// unchanged plaintext.
		for b, bpt := range r.plain {
			if b != addr && r.lay.CounterLineOf(b) == ca {
				r.history[b] = append(r.history[b],
					version{Ctr: cl.Counter(r.lay.CounterSlotOf(b)), Pt: bpt})
			}
		}
	}
	r.plain[addr] = pt
	r.writes[addr]++
	r.history[addr] = append(r.history[addr], version{Ctr: cl.Counter(slot), Pt: pt})
}

// Plaintext returns the expected content of addr (zero if never
// written, matching the never-written NVM semantics).
func (r *Reference) Plaintext(addr mem.Addr) mem.Line {
	return r.plain[mem.Align(addr)]
}

// CounterOf returns the expected effective counter of data block addr.
func (r *Reference) CounterOf(addr mem.Addr) uint64 {
	cl := r.counters[r.lay.CounterLineOf(addr)]
	return cl.Counter(r.lay.CounterSlotOf(addr))
}

// Written returns the written data addresses in ascending order.
func (r *Reference) Written() []mem.Addr {
	out := make([]mem.Addr, 0, len(r.plain))
	for a := range r.plain {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// WriteCounts returns a copy of the per-block write counts; replay
// attacks use the counts at snapshot time to pick meaningful victims.
func (r *Reference) WriteCounts() map[mem.Addr]uint64 { return maps.Clone(r.writes) }

// maxDivergences bounds how many divergences a verify pass reports; one
// is enough to fail a cell, a handful is enough to debug it.
const maxDivergences = 5

// VerifyImage checks a post-Apply crash image against the reference,
// bit-for-bit: every touched counter line must equal the reference
// encoding exactly, and every written block must decrypt (with uncached
// crypto) to the reference plaintext and carry the matching stored data
// HMAC — or, packed (engine.CrashImage.PackedBlock), carry the reference
// counter and plaintext under a valid inline HMAC. It returns the
// divergences, empty when the image is golden.
func (r *Reference) VerifyImage(img *engine.CrashImage) []string {
	var divs []string
	add := func(format string, args ...interface{}) bool {
		if len(divs) == maxDivergences {
			divs = append(divs, "... more divergences suppressed")
			return false
		}
		divs = append(divs, fmt.Sprintf(format, args...))
		return true
	}
	cas := make([]mem.Addr, 0, len(r.counters))
	for ca := range r.counters {
		cas = append(cas, ca)
	}
	slices.Sort(cas)
	for _, ca := range cas {
		cl := r.counters[ca]
		raw, _ := img.Image.Read(ca)
		if raw != cl.Encode() {
			got := seccrypto.DecodeCounterLine(raw)
			if !add("counter line %#x diverges from reference (got %s, want %s)",
				uint64(ca), got.String(), cl.String()) {
				return divs
			}
		}
	}
	for _, a := range r.Written() {
		ctr := r.CounterOf(a)
		if pt, got, packed, authed := img.PackedBlock(r.cry, a); packed {
			var div string
			switch {
			case !authed:
				div = "fails inline authentication"
			case got != ctr:
				div = fmt.Sprintf("carries counter %d, reference %d", got, ctr)
			case pt != r.plain[a]:
				div = "decrypts to wrong plaintext"
			}
			if div != "" && !add("packed block %#x %s", uint64(a), div) {
				return divs
			}
			continue
		}
		ct, _ := img.Image.Read(a)
		if got := r.cry.Decrypt(a, ctr, ct); got != r.plain[a] {
			if !add("data block %#x does not decrypt to the reference plaintext (counter %d)",
				uint64(a), ctr) {
				return divs
			}
			continue
		}
		if r.storedHMAC(img, a) != r.cry.DataHMAC(a, ctr, ct) {
			if !add("stored HMAC of block %#x diverges from reference (counter %d)",
				uint64(a), ctr) {
				return divs
			}
		}
	}
	return divs
}

// VerifyImageVersions checks a crash image against the reference's
// version history instead of its latest state: every written block
// (minus the excluded set, the blocks the report enumerated as lost or
// tampered) must authenticate as SOME state the trace actually produced
// — the latest version, an older one, or the implicit virgin state of a
// block whose every write dropped. Blocks at a non-latest version are
// returned as stale (acceptable crash loss the recovery report must
// own); content matching no version at all is a divergence — recovery
// silently accepted bytes the trace never wrote. The image is checked
// post-Apply; a packed block (engine.CrashImage.PackedBlock) is judged by
// the counter and plaintext it carries inline.
func (r *Reference) VerifyImageVersions(img *engine.CrashImage, excluded map[mem.Addr]bool) (stale []mem.Addr, divs []string) {
	for _, a := range r.Written() {
		if excluded[a] {
			continue
		}
		if len(divs) >= maxDivergences {
			divs = append(divs, "... more divergences suppressed")
			return stale, divs
		}
		pt, ctr, packed, authed := img.PackedBlock(r.cry, a)
		if !packed {
			old, div := r.checkBlockVersion(img, a)
			switch {
			case div != "":
				divs = append(divs, div)
			case old:
				stale = append(stale, a)
			}
			continue
		}
		line, ok := img.Image.Read(a)
		if !ok && line == (mem.Line{}) {
			// Virgin media under a packed tag: the block's every write
			// dropped before reaching the device — stale at version 0.
			stale = append(stale, a)
			continue
		}
		if !authed {
			divs = append(divs, fmt.Sprintf("packed block %#x fails inline authentication", uint64(a)))
			continue
		}
		v, known := r.versionAt(a, ctr)
		switch {
		case !known:
			divs = append(divs, fmt.Sprintf("packed block %#x carries counter %d, which no write of the trace produced", uint64(a), ctr))
		case pt != v.Pt:
			divs = append(divs, fmt.Sprintf("packed block %#x authenticates at counter %d but holds content the trace never wrote there", uint64(a), ctr))
		case ctr != r.CounterOf(a):
			stale = append(stale, a)
		}
	}
	return stale, divs
}

// checkBlockVersion classifies one conventional-layout block against the
// version history: ("", false) → latest, ("", true) → an older written
// version or the virgin state, otherwise a divergence message.
func (r *Reference) checkBlockVersion(img *engine.CrashImage, a mem.Addr) (stale bool, div string) {
	raw, _ := img.Image.Read(r.lay.CounterLineOf(a))
	cl := seccrypto.DecodeCounterLine(raw)
	ctrImg := cl.Counter(r.lay.CounterSlotOf(a))
	ct, _ := img.Image.Read(a)
	stored := r.storedHMAC(img, a)
	if ctrImg == 0 {
		// The implicit version 0: counter, data and HMAC all still at
		// their never-written defaults.
		if ct == (mem.Line{}) && stored == r.cry.DataHMAC(a, 0, mem.Line{}) {
			return true, ""
		}
		return false, fmt.Sprintf("block %#x sits at counter 0 with non-virgin content", uint64(a))
	}
	v, known := r.versionAt(a, ctrImg)
	switch {
	case !known:
		return false, fmt.Sprintf("block %#x carries counter %d, which no write of the trace produced", uint64(a), ctrImg)
	case stored != r.cry.DataHMAC(a, ctrImg, ct):
		return false, fmt.Sprintf("block %#x fails authentication at counter %d", uint64(a), ctrImg)
	case r.cry.Decrypt(a, ctrImg, ct) != v.Pt:
		return false, fmt.Sprintf("block %#x authenticates at counter %d but decrypts to content the trace never wrote there", uint64(a), ctrImg)
	}
	return ctrImg != r.CounterOf(a), ""
}

// versionAt finds the history entry of block a carrying the given
// effective counter; counters are strictly increasing per block, so a
// match is unique.
func (r *Reference) versionAt(a mem.Addr, ctr uint64) (version, bool) {
	h := r.history[mem.Align(a)]
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Ctr == ctr {
			return h[i], true
		}
	}
	return version{}, false
}

// storedHMAC extracts the stored data HMAC of block a from the image,
// synthesizing the never-written default line when absent — the same
// rule recovery and the runtime read path apply.
func (r *Reference) storedHMAC(img *engine.CrashImage, a mem.Addr) seccrypto.HMAC {
	ha, hslot := r.lay.HMACLineOf(a)
	hl, ok := img.Image.Read(ha)
	if !ok {
		lineIdx := uint64(ha-r.lay.HMACBase) / mem.LineSize
		for s := 0; s < mem.HMACsPerLine; s++ {
			da := mem.Addr((lineIdx*mem.HMACsPerLine + uint64(s)) * mem.LineSize)
			seccrypto.PutHMAC(&hl, s, r.cry.DataHMAC(da, 0, mem.Line{}))
		}
	}
	return seccrypto.GetHMAC(hl, hslot)
}
