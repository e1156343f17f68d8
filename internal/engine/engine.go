// Package engine defines the secure memory-controller engine interface
// and the machinery shared by every consistency design: the functional
// and timed read path (decrypt + authenticate), counter management with
// split-counter overflow handling, Merkle-tree path maintenance, the
// TCB's persistent registers, and the writeback victim buffer.
//
// The five designs of the paper's evaluation implement Engine:
//
//   - w/o CC (wocc.go): secure NVM without crash consistency — the
//     normalization baseline.
//   - SC (sc.go): strict consistency; every write-back atomically
//     persists the data, counter and the whole tree path.
//   - Osiris Plus (osiris.go): counters recovered by online checking;
//     tree never persisted; root updated per write-back.
//   - cc-NVM w/o DS and cc-NVM live in package internal/core — they are
//     the paper's contribution.
package engine

import (
	"ccnvm/internal/cache"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/seccrypto"
)

// Engine is one secure-NVM consistency design plugged under the LLC.
// The simulator calls ReadBlock for LLC read misses and WriteBack for
// dirty LLC evictions; both return completion/acceptance timestamps in
// core cycles.
type Engine interface {
	// Name identifies the design; implementations return their
	// internal/design/names constant so registry keys and crash images
	// agree.
	Name() string

	// FetchBlock is the stateful half of the verified read of the data
	// block at addr: the controller reads, the counter and data-HMAC
	// line fetch through the metadata cache (verifying fetched tree
	// lines), the timing charges, the statistics and the design's
	// read-side hooks. It fills f with what Fetched.Open needs (an out
	// parameter: the read path would otherwise copy f at every return)
	// and returns the cycle at which the verified value is available to
	// the core.
	FetchBlock(now int64, addr mem.Addr, f *Fetched) int64

	// ReadBlock is the verified read: FetchBlock, then Fetched.Open with
	// the engine's own crypto engine, counting a failed open as an
	// integrity violation. It returns the plaintext and FetchBlock's
	// cycle.
	ReadBlock(now int64, addr mem.Addr) (mem.Line, int64)

	// Violation counts a block FetchBlock returned whose Open failed
	// as a runtime integrity violation; callers that open off the
	// engine report through it.
	Violation(a mem.Addr)

	// WriteBack accepts a dirty LLC eviction. The returned cycle is when
	// the victim entered the engine's writeback buffer — the earliest
	// point at which the evicting fill may proceed; encryption,
	// authentication and persistence continue in the background.
	WriteBack(now int64, addr mem.Addr, plaintext mem.Line) int64

	// Settle persists all dirty on-chip metadata so that NVM reflects
	// the newest state; used at clean shutdown and by functional tests.
	// It returns the cycle at which the engine finished issuing work.
	Settle(now int64) int64

	// Crash models a power failure: on-chip caches and in-flight state
	// are lost, ADR semantics are applied to the WPQ, and the persistent
	// state (NVM image plus TCB registers) is captured. The engine must
	// not be used afterwards — a real system runs recovery and boots a
	// fresh controller from the recovered image.
	Crash() *CrashImage

	// Stats returns the engine's accumulated counters.
	Stats() SecStats

	// MetaStats returns the metadata cache's counters.
	MetaStats() cache.Stats
}

// Fetched is one data block as FetchBlock left it: the line read from
// NVM and, for the conventional layout, the block's counter and stored
// data HMAC. It carries nothing of the engine's state, so Open may run
// on any goroutine with any crypto engine built from the same keys.
type Fetched struct {
	Addr   mem.Addr
	Line   mem.Line       // ciphertext, or an Arsenal packed line
	Ctr    uint64         // the block's counter (conventional layout)
	MAC    seccrypto.HMAC // the stored data HMAC (conventional layout)
	Packed bool           // Line carries its counter and HMAC inline
	// NoMACLine records that the block's data-HMAC line was never
	// written: MAC is then unset, and the stored HMAC is by definition
	// that of a zero line under counter 0 at Addr.
	NoMACLine bool
}

// Open is the pure half of the verified read: the data-HMAC compare and
// the decrypt. ok is false when the block fails authentication; a
// conventional block still yields its decryption, a packed one zero.
func (f *Fetched) Open(cry *seccrypto.Engine) (pt mem.Line, ok bool) {
	if f.Packed {
		pt, _, ok = UnpackArsenalLine(cry, f.Addr, f.Line)
		return pt, ok
	}
	mac := f.MAC
	if f.NoMACLine {
		if f.Ctr == 0 && f.Line == (mem.Line{}) {
			// A never-written block authenticates by definition: the
			// compare would hash exactly what defaultHMAC hashes, and
			// counter 0 decrypts a line to itself.
			return f.Line, true
		}
		mac = defaultHMAC(cry, f.Addr)
	}
	ok = cry.DataHMAC(f.Addr, f.Ctr, f.Line) == mac
	return cry.Decrypt(f.Addr, f.Ctr, f.Line), ok
}

// TCB holds the secure processor's persistent registers: the two Merkle
// root registers of the atomic draining protocol and the write-back
// counter Nwb used to detect deferred-spreading replay windows. Designs
// that keep a single consistent root simply keep RootNew == RootOld.
//
// Each "root" register holds the 64 B root node content (the four
// counter HMACs of the top in-NVM level), as the root must verify four
// children.
type TCB struct {
	RootNew mem.Line
	RootOld mem.Line
	Nwb     uint64

	// ExtDirty implements the paper's §4.4 extension: additional
	// persistent registers recording, for every dirty counter line of
	// the current epoch, how many times it has been updated since the
	// last committed drain. With them, recovery can localize a
	// data-replay attack inside the deferred-spreading window to the
	// page whose recorded update count disagrees with its recovered
	// retries, instead of merely detecting it via Nwb. Nil unless the
	// extended design is in use. At most M entries — the hardware cost
	// the paper trades off.
	ExtDirty map[mem.Addr]uint64
}

// CloneExt deep-copies the extension registers (maps are references;
// crash images must not alias live TCB state).
func (t TCB) CloneExt() TCB {
	if t.ExtDirty == nil {
		return t
	}
	cp := make(map[mem.Addr]uint64, len(t.ExtDirty))
	for a, n := range t.ExtDirty {
		cp[a] = n
	}
	t.ExtDirty = cp
	return t
}

// CrashImage is everything that survives a power failure.
type CrashImage struct {
	Image *nvm.Image
	TCB   TCB
	// Keys gives recovery the same secrets the runtime engine used; in
	// hardware they are fused into the chip.
	Keys seccrypto.Keys
	// UpdateLimit is the design's N, bounding recovery retries; 0 when
	// the design's counters never lag (Arsenal).
	UpdateLimit uint64
	// Design names the engine that produced the image.
	Design string
	// Sideband carries per-line out-of-band state that real hardware
	// keeps in ECC spare bits and that survives power failure; Arsenal
	// stores its per-block compressibility tags here, read back through
	// PackedBlock.
	Sideband map[mem.Addr]byte

	// MediaFaults reports that the device ran under a fault model, so
	// recovery must expect torn lines, partial ADR drains and stuck
	// lines, and classify the resulting damage as crash loss rather than
	// tampering where the suspects manifest covers it.
	MediaFaults bool
	// Suspects is the WPQ manifest the controller persists first at a
	// power failure: the line addresses that were accepted or held but
	// possibly not serviced. Recovery may consult it — real hardware
	// would have it — to attribute authentication failures to crash
	// damage. Nil on the idealized device.
	Suspects []mem.Addr
	// MediaLog is the harness's ground-truth fault record. It exists for
	// the torture oracles and diagnostics only; recovery must never read
	// anything beyond Suspects from it.
	MediaLog *nvm.FaultLog

	// RecoveryJournal is the persisted recovery journal: a small
	// reserved region (real hardware would dedicate a few metadata
	// lines) recovery's Apply writes through the same word-granularity
	// persistence rules as everything else, so an interrupted recovery
	// resumes from it instead of restarting blind. Nil until recovery
	// first writes it; the recovery package owns the encoding.
	RecoveryJournal []byte
}

// Clone deep-copies the crash image so recovery experiments can run on
// a copy — the reboot-loop torture compares an interrupted recovery
// against a single-shot golden recovery of the same image. MediaLog is
// shared: it is the harness's read-only ground truth.
func (ci *CrashImage) Clone() *CrashImage {
	cp := *ci
	cp.Image = ci.Image.Clone()
	cp.TCB = ci.TCB.CloneExt()
	if ci.Sideband != nil {
		cp.Sideband = make(map[mem.Addr]byte, len(ci.Sideband))
		for a, b := range ci.Sideband {
			cp.Sideband[a] = b
		}
	}
	if ci.Suspects != nil {
		cp.Suspects = append([]mem.Addr(nil), ci.Suspects...)
	}
	if ci.RecoveryJournal != nil {
		cp.RecoveryJournal = append([]byte(nil), ci.RecoveryJournal...)
	}
	return &cp
}

// SecStats accumulates engine-level events.
type SecStats struct {
	Reads      uint64 // LLC read misses served
	Writebacks uint64 // LLC dirty evictions accepted

	HMACOps uint64 // HMAC computations (the serialized unit)
	AESOps  uint64 // one-time-pad generations

	IntegrityViolations uint64 // runtime authentication failures
	CounterOverflows    uint64 // minor-counter overflows (page re-encryption)
	StaleCounterRetries uint64 // Osiris-style online recovery retries

	Drains            uint64 // epoch drains (cc-NVM designs)
	DrainQueueFull    uint64 // trigger 1: dirty address queue exhausted
	DrainEvict        uint64 // trigger 2: dirty metadata line evicted
	DrainUpdateLimit  uint64 // trigger 3: update count exceeded N
	DrainLinesFlushed uint64 // metadata lines written by drains

	WritebackBufferStalls uint64 // evictions that found the buffer full
	WritebackStallCycles  int64

	// Memo counters. No HMAC memo is left: all eight read zero and stay
	// only because the repo benchmark still reads them. A never-written
	// block authenticates by definition instead (DESIGN.md, "Simulator
	// performance").
	PadCacheHits, PadCacheMisses       uint64
	DataMemoHits, DataMemoMisses       uint64
	NodeMemoHits, NodeMemoMisses       uint64
	DefaultLineHits, DefaultLineMisses uint64
}

// The paper's machine at 3 GHz, in cycles. The evaluation varies only
// the limits N and M (Figure 6), so every latency is a constant.
const (
	MetaCycles        = 32  // metadata cache access
	HMACCycles        = 80  // SHA-1 HMAC latency
	HMACIssueCycles   = 24  // HMAC unit initiation interval
	AESCycles         = 216 // AES OTP generation (72 ns)
	QueueLookupCycles = 32  // dirty address queue lookup
	WritebackBuffer   = 5   // victim buffer entries
)

// Params carries the limits the paper sweeps. Zero values select the
// paper's configuration.
type Params struct {
	UpdateLimit  uint64 // N, per-line update limit (default 16)
	QueueEntries int    // M, dirty address queue entries (default 64)
}

// Fill applies the paper's defaults to unset fields.
func (p *Params) Fill() {
	if p.UpdateLimit == 0 {
		p.UpdateLimit = 16
	}
	if p.QueueEntries == 0 {
		p.QueueEntries = 64
	}
}
