// Package store is the servable storage-engine facade: the one front
// door through which everything outside the secure-NVM core — the
// simulator, the torture harness, the experiments, the KV layer and the
// CLIs — reaches a security engine. It assembles the layered machine
// (layout, NVM device, memory controller, security engine) exactly the
// way the simulator always wired it, and exposes a concurrency-safe
// Open/Read/Write/FlushEpoch/Snapshot/Close lifecycle over
// the secure NVM address space:
//
//   - Writes go through the engine's write-back path, so they are
//     encrypted, authenticated and batched into ADR epochs by the
//     design's own drain policy. A write is durable when Write returns
//     (see Write for the contract), which is the point a server
//     acknowledges at; FlushEpoch closes the open epoch, persisting the
//     security metadata the design had left dirty.
//   - Reads decrypt and verify through the engine; a never-written line
//     reads as zero, exactly like a fresh DIMM. The one exception is
//     the boot verdict (see OpenRecovered): until a recovered store's
//     first write, a line the recovery walk authenticated is only
//     decrypted, and such a read bypasses the timing model.
//   - Each call that reaches the engine is one controller request
//     (ReadLines and WriteLines carry many lines). The request keeps
//     the last data-HMAC line it read in a one-line buffer, so lines
//     sharing a data-HMAC line read it from the device once only when
//     the call visits them in one stretch; their writes of it merge
//     into its WPQ entry while that is still queued. A read call's
//     lines overlap under the core's miss window (engine.Window), as
//     the simulator's independent misses do.
//   - Snapshot captures the adversary-visible NVM image via the COW
//     mem.Store.Clone — one top-level directory slice, whatever the
//     image size, so point-in-time readers are cheap.
//   - Read-only admission from the controller's media-health machine is
//     surfaced as typed errors instead of silent drops.
//   - Crash/OpenRecovered ride the existing four-step recovery plus
//     recovery-journal path, so a facade-served namespace recovers with
//     the same guarantees the torture matrix pins for raw traffic.
//
// The package also re-exports the controller types consumers need
// (Stats, HealthState, Event) as aliases, so the layering lint can
// forbid direct internal/memctrl imports outside the core without
// breaking a single golden: an alias is the identical type.
package store

import (
	"errors"
	"fmt"
	"sync"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/memctrl"
	"ccnvm/internal/metacache"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/seccrypto"
)

// Controller type re-exports. These are aliases, not definitions: a
// sim.Result or torture Context declared against them is bit-identical
// to one declared against the memctrl originals, which is what keeps
// every golden file byte-stable across the facade extraction.
type (
	// ControllerStats reports controller-level contention and fault
	// counters.
	ControllerStats = memctrl.Stats
	// HealthState is the controller's media-health state machine.
	HealthState = memctrl.HealthState
	// Event is one persistence-ordering event from the controller's
	// observational tap.
	Event = memctrl.Event
)

// Health states, re-exported for admission checks at the facade's rim.
const (
	HealthHealthy  = memctrl.HealthHealthy
	HealthDegraded = memctrl.HealthDegraded
	HealthReadOnly = memctrl.HealthReadOnly
)

// Event kinds, re-exported for harnesses that follow the write stream
// through SetEventTap.
const (
	EvWriteAccept = memctrl.EvWriteAccept
	EvEpochCommit = memctrl.EvEpochCommit
)

// Typed facade errors.
var (
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("store: closed")
	// ErrReadOnly reports a write refused by read-only media degradation
	// (the spare pool is exhausted; reads keep verifying).
	ErrReadOnly = errors.New("store: media is read-only (spare pool exhausted)")
	// ErrCrashed reports a write struck by an armed crash point: the
	// simulated power failure happened before this write, so it never
	// reached the media. See ArmCrash.
	ErrCrashed = errors.New("store: power failed before this write")
)

// AddrError reports an address outside the store's data region.
type AddrError struct {
	Addr mem.Addr
	Cap  uint64
}

func (e *AddrError) Error() string {
	return fmt.Sprintf("store: address %#x outside the %d-byte data region", uint64(e.Addr), e.Cap)
}

// Options configures Open. Zero values select the paper's machine:
// design cc-NVM, the paper's controller and metadata cache,
// deterministic keys.
type Options struct {
	Design   string // a design registered in internal/design (default cc-NVM)
	Capacity uint64 // NVM data capacity in bytes (default 16 GiB)

	Params engine.Params
	Keys   *seccrypto.Keys

	// Faults installs a media fault model on the NVM device; nil is the
	// idealized device.
	Faults *nvm.FaultModel
}

func (o *Options) fill() error {
	if o.Design == "" {
		o.Design = design.CCNVM
	}
	if o.Capacity == 0 {
		o.Capacity = 16 << 30
	}
	if o.Keys == nil {
		k := seccrypto.DefaultKeys()
		o.Keys = &k
	}
	if _, ok := design.Lookup(o.Design); !ok {
		return fmt.Errorf("store: %w", design.UnknownError(o.Design))
	}
	return nil
}

// Store is one assembled secure-NVM storage engine. All methods are
// safe for concurrent use; the single mutex serializes the underlying
// deterministic engine, which is the concurrency model the paper's
// single memory controller implies.
type Store struct {
	mu   sync.Mutex
	opts Options
	lay  *mem.Layout
	dev  *nvm.Device
	ctrl *memctrl.Controller
	eng  engine.Engine
	now  int64 // engine-facing virtual clock (cycles)

	closed  bool
	crashed bool

	// Crash-point arming (see ArmCrash): after armWrites facade writes
	// have been accepted, every further write is struck.
	armed      bool
	armWrites  int
	seenWrites int

	refusedWrites uint64

	// verdict is the boot verdict OpenRecovered keeps (see verdictLine)
	// and vcry the crypto engine Read decrypts its lines with; nil from
	// the first write, HostWrite, Scrub, Crash or Close on, or once the
	// device no longer holds it.
	verdict *engine.CrashImage
	vcry    *seccrypto.Engine
	// vca and vcl are the last counter line verdictLine decoded, its
	// address and the decoded line.
	vca mem.Addr
	vcl seccrypto.CounterLine
}

// Open assembles a fresh machine over an empty NVM. The wiring order
// mirrors the simulator exactly (fault model before the controller is
// built, engine from the design registry), so a facade-assembled engine
// is bit-identical to a sim-assembled one.
func Open(o Options) (*Store, error) {
	if err := o.fill(); err != nil {
		return nil, err
	}
	lay, err := mem.NewLayout(o.Capacity)
	if err != nil {
		return nil, err
	}
	dev := nvm.NewDevice(lay, nvm.PCMTiming(3))
	// The fault model must be in place before the controller exists: the
	// controller decides at construction whether to track in-flight WPQ
	// entries for crash-time fault injection.
	dev.SetFaultModel(o.Faults)
	ctrl := memctrl.New(memctrl.Config{}, dev)
	d, ok := design.Lookup(o.Design)
	if !ok {
		return nil, fmt.Errorf("store: %w", design.UnknownError(o.Design))
	}
	eng := d.New(lay, *o.Keys, ctrl, metacache.Config{}, o.Params)
	return &Store{opts: o, lay: lay, dev: dev, ctrl: ctrl, eng: eng}, nil
}

// OpenRecovered boots a store from a recovered crash image: the device
// is restored from the image and the engine resumes from the recovered
// TCB registers, the rebuilt tree (for a design that keeps it on chip)
// and the image's sideband tags (Arsenal's packed-line bits), exactly
// as a rebooted controller would. The caller
// runs Recover/Apply first (or uses the Reboot convenience below) and
// passes the resulting TCB state.
//
// When rec carries a boot verdict (a lossless Apply, recovery.Recovered
// Verdict) made with the store's keys, and the device has no fault
// model, the store keeps it: until the first write, HostWrite, Scrub,
// Crash or Close, Read and Fetch serve every data line the verdict
// covers without the engine — no controller, metadata-cache, tree or
// clock work, so those reads bypass the timing model.
func OpenRecovered(img *engine.CrashImage, rec recovery.Recovered, o Options) (*Store, error) {
	o.Design = img.Design
	o.Capacity = img.Image.Layout.DataBytes
	if o.Keys == nil {
		k := img.Keys
		o.Keys = &k
	}
	if o.Params.UpdateLimit == 0 {
		o.Params.UpdateLimit = img.UpdateLimit
	}
	st, err := Open(o)
	if err != nil {
		return nil, err
	}
	st.dev.Restore(img.Image)
	type tcbRestorer interface{ RestoreTCB(engine.TCB) }
	r, ok := st.eng.(tcbRestorer)
	if !ok {
		return nil, fmt.Errorf("store: design %s cannot restore TCB state", img.Design)
	}
	r.RestoreTCB(rec.TCB)
	if tr, ok := st.eng.(interface{ RestoreTree(map[mem.Addr]mem.Line) }); ok {
		tr.RestoreTree(rec.Tree())
	}
	if sr, ok := st.eng.(interface{ RestoreSideband(map[mem.Addr]byte) }); ok {
		sr.RestoreSideband(img.Sideband)
	}
	if v := rec.Verdict(); v != nil && v.Keys == *o.Keys && o.Faults == nil {
		st.verdict, st.vcry, st.vca = v, seccrypto.MustEngine(v.Keys), ^mem.Addr(0)
	}
	return st, nil
}

// verdictLine fills f with the data line at a from the boot verdict and
// reports whether it may be served without authentication: only while
// the device holds the verdict image, unwritten since the restore —
// checked on every call. The recovery walk matched the line's HMAC at
// the counter in its applied counter line, so the line needs
// decrypting only. Absent data lines and Arsenal packed lines (by the
// verdict's sideband) are left to the engine. Caller holds mu.
func (s *Store) verdictLine(a mem.Addr, f *engine.Fetched) bool {
	v := s.verdict
	if v == nil {
		return false
	}
	if !s.dev.Holds(v.Image) {
		s.verdict = nil
		return false
	}
	ct, ok := v.Image.Read(a)
	if !ok || v.Sideband[a] == engine.TagPacked {
		return false
	}
	if ca := s.lay.CounterLineOf(a); ca != s.vca {
		// An absent counter line reads as the zero line, the default
		// both the walk and the engine use.
		cl, _ := v.Image.Read(ca)
		s.vca, s.vcl = ca, seccrypto.DecodeCounterLine(cl)
	}
	*f = engine.Fetched{Addr: a, Line: ct, Ctr: s.vcl.Counter(s.lay.CounterSlotOf(a))}
	return true
}

// Reboot runs the full crash-to-serving path on an image: four-step
// recovery (resuming an interrupted Apply from the persisted journal if
// one is active), Apply, and OpenRecovered. It returns the recovery
// report alongside the store so callers can refuse tampered images.
func Reboot(img *engine.CrashImage, o Options) (*Store, *recovery.Report, error) {
	rep := recovery.Recover(img)
	if !rep.Clean() {
		return nil, rep, fmt.Errorf("store: image does not recover clean (tampered=%d, lossless=%v)",
			len(rep.Tampered), rep.Lossless())
	}
	rec := recovery.Apply(img, rep)
	st, err := OpenRecovered(img, rec, o)
	if err != nil {
		return nil, rep, err
	}
	return st, rep, nil
}

// Design names the engine serving this store.
func (s *Store) Design() string { return s.opts.Design }

// Layout exposes the NVM address-space layout.
func (s *Store) Layout() *mem.Layout { return s.lay }

// Capacity is the data-region capacity in bytes.
func (s *Store) Capacity() uint64 { return s.lay.DataBytes }

// Engine exposes the underlying security engine for callers that drive
// the timed simulation path themselves (the cycle-level simulator).
// Such callers own the clock and must not interleave with facade ops.
func (s *Store) Engine() engine.Engine { return s.eng }

// Device exposes the NVM device (snapshots, wear and spare accounting).
func (s *Store) Device() *nvm.Device { return s.dev }

// Peek returns line a as the media holds it once every write the
// controller has accepted lands (memctrl.Controller.Peek): inside a
// facade call the device can lag by the request's owed data-HMAC line.
// Like Device it takes no lock, so an event tap, which runs under the
// store's lock, can call it.
func (s *Store) Peek(a mem.Addr) (mem.Line, bool) { return s.ctrl.Peek(a) }

// Now returns the facade's virtual clock in engine cycles.
func (s *Store) Now() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// lockRequest takes the lock and opens the controller's request scope
// for one facade call (memctrl.BeginRequest): within the call, the last
// data-HMAC line read is buffered, so lines sharing one visited in a
// stretch read it from the device once, and their writes of it merge
// while its WPQ entry is queued. unlockRequest closes both, landing
// the request's owed write.
func (s *Store) lockRequest() {
	s.mu.Lock()
	s.ctrl.BeginRequest()
}

func (s *Store) unlockRequest() {
	s.ctrl.EndRequest()
	s.mu.Unlock()
}

// usable reports why the store takes no more reads or epochs: closed,
// or struck by an armed crash. Caller holds mu.
func (s *Store) usable() error {
	if s.closed {
		return ErrClosed
	}
	if s.crashed {
		return ErrCrashed
	}
	return nil
}

// checkAddr validates a data-region address.
func (s *Store) checkAddr(a mem.Addr) error {
	if uint64(a) >= s.lay.DataBytes {
		return &AddrError{Addr: a, Cap: s.lay.DataBytes}
	}
	return nil
}

// Read fetches, decrypts and authenticates the line at a: ReadLines of
// one line.
func (s *Store) Read(a mem.Addr) (mem.Line, error) {
	var l mem.Line
	_, err := s.ReadLines(l[:0], a, 1)
	return l, err
}

// ReadLines fetches, decrypts and authenticates the n lines from a
// through the engine's ReadBlock — FetchBlock, then the open on the
// engine's own crypto engine — in address order, in one request, and
// appends their plaintext to dst. Never-written lines read as zero. The
// lines' reads overlap under the core's miss window (engine.Window):
// each issues at the call's start cycle, or at the earliest completion
// in flight while all MSHRs are taken, and the call ends at its latest
// completion. A line the boot verdict serves (see OpenRecovered) is
// only decrypted, outside the engine and its timing model. On error the
// lines already read stay in the result.
func (s *Store) ReadLines(dst []byte, a mem.Addr, n int) ([]byte, error) {
	s.lockRequest()
	defer s.unlockRequest()
	if err := s.usable(); err != nil {
		return dst, err
	}
	var w engine.Window
	t := s.now
	var err error
	a = mem.Align(a)
	for i := 0; i < n; i, a = i+1, a+mem.LineSize {
		if err = s.checkAddr(a); err != nil {
			break
		}
		var pt mem.Line
		var f engine.Fetched
		if s.verdictLine(a, &f) {
			pt = s.vcry.Decrypt(f.Addr, f.Ctr, f.Line)
		} else {
			var done int64
			t = w.Issue(t)
			pt, done = s.eng.ReadBlock(t, a)
			w.Add(done)
		}
		dst = append(dst, pt[:]...)
	}
	s.now = w.Drain(t)
	return dst, err
}

// Fetched is one line as Fetch left it: read, charged and counted under
// the store's lock, but not yet authenticated or decrypted — or, when
// authed, served by the boot verdict, whose walk authenticated it
// already. Only an Opener of the same store turns it into plaintext.
type Fetched struct {
	f      engine.Fetched
	authed bool
}

// Fetch is the stateful half of ReadLines for the n lines from a: the
// engine's FetchBlock of each line in address order — the engine work
// and timing of one n-line ReadLines up to the authentication and
// decryption, the reads overlapping as there — in one request,
// appending the fetched lines to dst. A line the boot verdict serves
// skips FetchBlock, and with it the timing model. On error the lines
// already fetched stay in the result.
func (s *Store) Fetch(dst []Fetched, a mem.Addr, n int) ([]Fetched, error) {
	s.lockRequest()
	defer s.unlockRequest()
	if err := s.usable(); err != nil {
		return dst, err
	}
	var w engine.Window
	t := s.now
	var err error
	a = mem.Align(a)
	for i := 0; i < n; i, a = i+1, a+mem.LineSize {
		if err = s.checkAddr(a); err != nil {
			break
		}
		dst = append(dst, Fetched{})
		f := &dst[len(dst)-1]
		if f.authed = s.verdictLine(a, &f.f); !f.authed {
			t = w.Issue(t)
			w.Add(s.eng.FetchBlock(t, a, &f.f))
		}
	}
	s.now = w.Drain(t)
	return dst, err
}

// Opener is the pure half of Read, for use off the store's lock: it
// authenticates and decrypts fetched lines with a crypto engine of its
// own. An Opener is not safe for concurrent use; give each goroutine
// its own.
type Opener struct {
	s   *Store
	cry *seccrypto.Engine
}

// NewOpener returns an Opener over the store's keys.
func (s *Store) NewOpener() *Opener {
	return &Opener{s: s, cry: seccrypto.MustEngine(*s.opts.Keys)}
}

// Open authenticates and decrypts f, which this store fetched. A line
// that fails authentication counts as an integrity violation of the
// store's engine, as it would in Read, and ok is false. A line the boot
// verdict served is decrypted only.
func (o *Opener) Open(f *Fetched) (pt mem.Line, ok bool) {
	if f.authed {
		return o.cry.Decrypt(f.f.Addr, f.f.Ctr, f.f.Line), true
	}
	pt, ok = f.f.Open(o.cry)
	if !ok {
		o.s.mu.Lock()
		o.s.eng.Violation(f.f.Addr)
		o.s.mu.Unlock()
	}
	return pt, ok
}

// Write encrypts, authenticates and persists the line at a through the
// engine's write-back path: WriteLines of one line.
//
// The durability contract: a write is durable when Write returns nil.
// A later crash at any point recovers the line, through the four-step
// recovery, for every design whose clean crash recovers without a
// tamper verdict (design.Caps.TamperOnCrash false; the KV torture
// designs). Write returns once the engine's write-back has put the
// data and its HMAC into the controller's ADR-backed write queue (an
// HMAC update may merge into the request's queued entry for its line),
// the paper's persist point (§4.3): counters and tree nodes may lag, and
// recovery re-derives a lagging counter by HMAC retry within the
// update limit N. No write is left in cc-NVM's epoch hold queue either:
// a drain is begun and ended inside one engine write-back, under the
// store's lock. So Write needs no FlushEpoch, and successive writes
// become durable in the order Write accepted them.
//
// Under a fault model with a bounded ADR budget (nvm.FaultModel
// ADRBudget) accepted entries beyond the budget may tear or drop at a
// crash, and no call prevents it: FlushEpoch does not wait for the
// write queue to retire. The loss is declared, never silent: a lost
// line is in the crash image's Suspects or is a lost block the
// recovery report pins on a suspect line, and the report opens its
// loss window.
//
// Write also returns the controller's first device or protocol error,
// so a write the device refused is never reported durable.
func (s *Store) Write(a mem.Addr, l mem.Line) error {
	_, err := s.WriteLines([]LineWrite{{a, l}})
	return err
}

// LineWrite is one line of a WriteLines call.
type LineWrite struct {
	Addr mem.Addr
	Line mem.Line
}

// WriteLines writes each line of ws in order, in one request, with the
// contract of Write for each: an armed crash point counts every line,
// so the writes a crash strikes and the image it leaves are those of
// the same Writes in sequence. It stops at the first error and reports
// how many lines were accepted before it. The request buffers one
// data-HMAC line (four data lines), so a caller that orders ws to keep
// the lines of each HMAC line together reads each HMAC line once; one
// that comes back to a line after leaving it reads it again.
func (s *Store) WriteLines(ws []LineWrite) (int, error) {
	s.lockRequest()
	defer s.unlockRequest()
	for i := range ws {
		if err := s.writeLocked(ws[i].Addr, ws[i].Line); err != nil {
			return i, err
		}
	}
	return len(ws), nil
}

func (s *Store) writeLocked(a mem.Addr, l mem.Line) error {
	if s.closed {
		return ErrClosed
	}
	s.verdict = nil
	if s.crashed {
		return ErrCrashed
	}
	if err := s.checkAddr(a); err != nil {
		return err
	}
	if s.ctrl.Health() == HealthReadOnly {
		// Admission-only refusal at the facade rim, mirroring the
		// controller's HostWrite front door: the write never reaches the
		// engine, so an already-admitted epoch can never tear.
		s.refusedWrites++
		return ErrReadOnly
	}
	if s.armed {
		if s.seenWrites >= s.armWrites {
			s.crashed = true
			return ErrCrashed
		}
		s.seenWrites++
	}
	a = mem.Align(a)
	s.now = s.eng.WriteBack(s.now, a, l)
	return s.ctrl.Err()
}

// FlushEpoch closes the current ADR epoch: the design persists all of
// its dirty security metadata (for cc-NVM, one drain of every dirty
// counter line and its Merkle path). It is not needed for durability,
// which every write has when Write returns; it is for a clean shutdown
// (Close settles the same way) and for callers that need the tree
// itself persisted, so recovery has no counter to retry. It does not
// wait for the write queue to retire: under a bounded ADR budget an
// accepted entry can still be lost at a crash (declared in Suspects).
func (s *Store) FlushEpoch() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	s.now = s.eng.Settle(s.now)
	if err := s.ctrl.Err(); err != nil {
		return err
	}
	return nil
}

// Snapshot captures the current NVM contents non-destructively via the
// copy-on-write store clone: independent of image size.
func (s *Store) Snapshot() *nvm.Image {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dev.Snapshot()
}

// Crash powers the machine off mid-run: on-chip state is lost, ADR
// semantics apply, and the persistent state is captured. The store must
// not be used afterwards (every method returns ErrClosed).
func (s *Store) Crash() *engine.CrashImage {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed, s.verdict = true, nil
	return s.eng.Crash()
}

// Close flushes the final epoch and shuts the store down cleanly.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.crashed {
		s.now = s.eng.Settle(s.now)
	}
	s.closed, s.verdict = true, nil
	return s.ctrl.Err()
}

// ArmCrash schedules a simulated power failure after the next n facade
// writes have been accepted: write n+1 and everything after it (writes,
// epoch flushes, reads and fetches alike) fail with
// ErrCrashed and leave the media as the power failure left it — a read
// after the failure would otherwise run the engine, whose metadata
// fills can start an eviction-triggered drain. The caller then collects
// the image with Crash. Torture harnesses sweep n across a workload to
// crash a namespace at every host-write boundary.
func (s *Store) ArmCrash(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = true
	s.armWrites = n
	s.seenWrites = 0
}

// Health reports the controller's media-health state.
func (s *Store) Health() HealthState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.Health()
}

// CtrlStats returns the memory controller's contention/fault counters.
func (s *Store) CtrlStats() ControllerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.Stats()
}

// Err surfaces the first device or protocol error the controller
// recorded, nil if none.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.Err()
}

// RefusedWrites counts facade writes refused in read-only degradation.
func (s *Store) RefusedWrites() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refusedWrites
}

// Scrub runs one media scrub pass at cycle now and returns the cycle
// the scrub writes were accepted. A no-op without a fault model.
// Sim-path callers own the clock and pass their own now.
func (s *Store) Scrub(now int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.verdict = nil
	return s.ctrl.Scrub(now)
}

// HostWrite is the controller's host-facing write admission at an
// explicit cycle, for harnesses probing the read-only front door. It
// bypasses the engine's crypto path on purpose: the torture probe needs
// a raw controller write to prove refusal is enforced below the engine.
func (s *Store) HostWrite(now int64, a mem.Addr, l mem.Line) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.verdict = nil
	return s.ctrl.HostWrite(now, a, l)
}

// SetEventTap installs fn as the controller's persistence event tap
// (purely observational; see memctrl.SetEventTap) and returns the tap
// it replaces, so a second observer can chain to the first by calling
// it from fn. nil removes the tap.
func (s *Store) SetEventTap(fn func(Event)) (prev func(Event)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.SetEventTap(fn)
}
