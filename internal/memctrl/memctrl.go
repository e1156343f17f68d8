// Package memctrl models the memory controller in front of the NVM
// device: a banked PCM channel, a read queue, a 64-entry write pending
// queue (WPQ) inside the ADR persistence domain, and the start/end
// signalling that cc-NVM's atomic draining protocol layers on top of it.
//
// Timing uses a resource-reservation model: each bank has a next-free
// time, each WPQ slot is occupied until its write is serviced, and
// callers receive completion (for reads) or acceptance (for writes)
// timestamps. The model is deterministic and single-threaded, matching
// the trace-driven simulator.
//
// ADR semantics: a write accepted into the WPQ is durable — on a power
// failure, residual WPQ entries are flushed with backup power. The one
// exception is the atomic-draining window: metadata writes issued
// between BeginEpochDrain and EndEpochDrain are held in the WPQ and are
// dropped on a crash that precedes the end signal, which is exactly what
// keeps the Merkle tree in NVM consistent. Every other entry leaves the
// queue by one rule: FIFO, as the backlog drains below it (advance); a
// request's owed entry (see BeginRequest) reaches the device then.
package memctrl

import (
	"errors"
	"fmt"
	"slices"

	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
)

// Typed protocol errors. They replace the panics that used to guard the
// draining protocol, so fuzzed and torture paths can surface a broken
// caller as a reported failure instead of crashing the sweep.
var (
	// ErrNestedDrain reports BeginEpochDrain inside an open window.
	ErrNestedDrain = errors.New("memctrl: nested BeginEpochDrain")
	// ErrNoDrain reports EndEpochDrain without a matching begin signal.
	ErrNoDrain = errors.New("memctrl: EndEpochDrain without BeginEpochDrain")
	// ErrWPQWedged reports a WPQ whose every slot is a held epoch entry:
	// the drainer failed to bound its batch by the queue size.
	ErrWPQWedged = errors.New("memctrl: WPQ wedged with held epoch entries")
)

// Config sizes the controller. Zero values select the paper's setup.
type Config struct {
	Banks      int // parallel PCM banks (default 24)
	WriteQueue int // WPQ entries (default 64)
}

func (c *Config) fill() {
	if c.Banks == 0 {
		c.Banks = 24
	}
	if c.WriteQueue == 0 {
		c.WriteQueue = 64
	}
}

const (
	// readQueue is the read queue's entry count.
	readQueue = 32
	// readRetryLimit bounds how many times a failing media read is
	// retried (with exponential backoff) before the controller reports a
	// permanent read error. Only consulted when the device carries a
	// fault model; 4 covers the transient-error model's worst case of
	// two consecutive failures.
	readRetryLimit = 4
)

// Stats reports controller-level contention and, under a fault model,
// the retry/scrub/crash-damage counters.
type Stats struct {
	Reads          uint64
	Writes         uint64
	WPQFullStalls  uint64 // writes that found the WPQ full
	WPQStallCycles int64  // cycles producers spent waiting for a slot
	EpochWrites    uint64 // writes issued inside a draining window
	DroppedOnCrash uint64 // held epoch entries discarded by a crash

	// Fault-model counters; all zero on the idealized device.
	ReadRetries         uint64 // read attempts repeated after a transient error
	ReadRetryCycles     int64  // extra cycles spent in retry backoff
	PermanentReadErrors uint64 // reads that exhausted the retry budget
	ScrubbedLines       uint64 // weak lines rewritten by scrub passes
	ScrubRemapped       uint64 // lines scrubbing gave up on and remapped
	TornOnCrash         uint64 // WPQ entries torn at power failure
	DroppedByADR        uint64 // WPQ entries wholly lost past the ADR budget
	StuckOnCrash        uint64 // lines stuck-at failed at power failure
	WriteErrors         uint64 // device writes rejected with a typed error

	// Finite spare-pool counters; all zero on the unlimited legacy pool
	// and omitted from JSON when zero, so faultless machine-readable
	// output stays byte-identical to earlier releases.
	RetryRemapped    uint64 `json:",omitzero"` // lines remapped after exhausting the read-retry budget
	RefusedWrites    uint64 `json:",omitzero"` // writes refused in read-only degradation
	RefusedEpochs    uint64 `json:",omitzero"` // epoch drains refused in read-only degradation
	RemapTornOnCrash uint64 `json:",omitzero"` // remap-record commits torn at power failure

	// Reads of a data-HMAC line the request buffer served, and writes of
	// it merged into the buffer's owed WPQ entry (see BeginRequest); the
	// hits are not in Reads, the merges are in Writes. Zero, and omitted
	// from JSON, wherever no request is opened.
	RequestHits   uint64 `json:",omitzero"`
	RequestMerges uint64 `json:",omitzero"`
}

// EventKind tags one entry of the controller's persistence event
// stream (see SetEventTap). The five kinds are exactly the durability
// transitions the ADR/atomic-draining contract defines; everything a
// persist-ordering analysis needs is derivable from them.
type EventKind uint8

const (
	// EvWriteAccept: a non-epoch write was accepted into the WPQ and is
	// durable from this point on (the ADR guarantee).
	EvWriteAccept EventKind = iota
	// EvEpochBegin: BeginEpochDrain opened an atomic-draining window.
	EvEpochBegin
	// EvEpochHold: a write inside the draining window was accepted but
	// held — it is not durable until the end signal arrives.
	EvEpochHold
	// EvEpochCommit: EndEpochDrain delivered the end signal — the
	// single atomic point after which the held batch is durable as a
	// whole. The engine's TCB commit is ordered after this event.
	EvEpochCommit
	// EvADRFlush: one held entry was serviced to the media after its
	// epoch's commit, emitted in acceptance order.
	EvADRFlush
)

// String names the event kind for diagnostics and golden files.
func (k EventKind) String() string {
	switch k {
	case EvWriteAccept:
		return "write-accept"
	case EvEpochBegin:
		return "epoch-begin"
	case EvEpochHold:
		return "epoch-hold"
	case EvEpochCommit:
		return "epoch-commit"
	case EvADRFlush:
		return "adr-flush"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one persistence-ordering event. Addr is meaningful for
// write-accept/hold/flush events and zero for the begin/commit signals.
type Event struct {
	Kind EventKind
	Addr mem.Addr
}

// SetEventTap installs fn as the persistence event tap: it is called
// synchronously, in program order, at every durability transition the
// controller performs. Purely observational — installing a tap cannot
// change timing, content, or crash behavior. nil removes the tap. It
// returns the tap fn replaces, for fn to chain to.
func (c *Controller) SetEventTap(fn func(Event)) (prev func(Event)) {
	prev, c.tap = c.tap, fn
	return prev
}

// emit forwards one event to the tap, if any.
func (c *Controller) emit(k EventKind, a mem.Addr) {
	if c.tap != nil {
		c.tap(Event{Kind: k, Addr: a})
	}
}

// wpqEntry is one WPQ entry: a held epoch write, or a queued non-epoch
// write that has not retired yet. A fault model tears a queued entry at
// a power failure from old/oldOk (the media content before it, and
// whether the line existed) and seq (the global write sequence its
// tear decision keys on). An owed entry's device write happens when it
// retires.
type wpqEntry struct {
	addr  mem.Addr
	line  mem.Line
	old   mem.Line
	oldOk bool
	owed  bool
	seq   uint64
}

// Controller fronts one NVM device.
//
// Reads are prioritized over buffered writes, as in real memory
// controllers: banks keep a read timeline, while the WPQ drains as a
// fluid backlog at the aggregate write bandwidth (Banks lines per
// WriteCycles). A read therefore never waits behind buffered writes;
// write pressure reaches producers only through WPQ backpressure — a
// full queue blocks the writer until enough backlog has drained.
type Controller struct {
	cfg       Config
	dev       *nvm.Device
	readBanks []int64 // next-free cycle per bank, read stream
	readQ     []int64 // completion times of in-flight reads (queue bound)

	backlog    float64    // WPQ occupancy being drained (lines)
	backlogUpd int64      // cycle of the last backlog update
	held       []wpqEntry // epoch entries awaiting the end signal, FIFO
	queue      []wpqEntry // accepted non-epoch entries not yet retired, FIFO (see devWrite)
	inDrain    bool
	stats      Stats

	// Fault-model state (empty on the idealized device).
	wseq     uint64        // monotonic write sequence for tear decisions
	faultLog *nvm.FaultLog // built by Crash when a fault model is active
	err      error         // first device/protocol error (sticky)

	// Persistence event tap (SetEventTap); nil when nothing listens.
	tap func(Event)

	// Request scope (BeginRequest): inReq while one is open, and its
	// one-entry buffer of a data-HMAC line.
	inReq bool
	req   reqLine
}

// reqLine is the request scope's buffer: the data-HMAC line at addr as
// the device holds it once every queued entry has retired, whether it
// was ever written, and the cycle the device read that filled it
// completed. ok is false while it holds nothing.
type reqLine struct {
	addr    mem.Addr
	line    mem.Line
	present bool
	ok      bool
	ready   int64
}

// New builds a controller over dev.
func New(cfg Config, dev *nvm.Device) *Controller {
	cfg.fill()
	return &Controller{
		cfg:       cfg,
		dev:       dev,
		readBanks: make([]int64, cfg.Banks),
	}
}

// newest is the index of the newest entry for a in q, -1 if none: among
// held entries, the one EndEpochDrain lands last.
func newest(q []wpqEntry, a mem.Addr) int {
	for i := len(q) - 1; i >= 0; i-- {
		if q[i].addr == a {
			return i
		}
	}
	return -1
}

// drainRate is the aggregate write bandwidth in lines per cycle.
func (c *Controller) drainRate() float64 {
	return float64(c.cfg.Banks) / float64(c.dev.Timing().WriteCycles)
}

// advance drains the write backlog up to cycle now. Callers may present
// out-of-order (pipeline-internal) timestamps; only forward progress
// drains.
func (c *Controller) advance(now int64) {
	if now > c.backlogUpd {
		c.backlog -= float64(now-c.backlogUpd) * c.drainRate()
		if c.backlog < 0 {
			c.backlog = 0
		}
		c.backlogUpd = now
	}
	// Entries retire FIFO as the fluid backlog drains below them: the
	// newest ceil(backlog) accepted entries are still queued.
	queued := int(c.backlog)
	if float64(queued) < c.backlog {
		queued++
	}
	if drop := len(c.queue) - queued; drop > 0 {
		c.retire(drop)
	}
}

// retire takes the front n entries out of the queue. An owed entry's
// device write happens here; its slot was taken, and its backlog
// counted, when it was accepted.
func (c *Controller) retire(n int) {
	for i := range c.queue[:n] {
		if e := &c.queue[i]; e.owed {
			if err := c.dev.Write(e.addr, e.line); err != nil {
				c.req.ok = false
				c.fail(err)
			}
		}
	}
	c.queue = append(c.queue[:0], c.queue[n:]...)
}

// retireOwed retires the queue through its owed entry, if any.
func (c *Controller) retireOwed() {
	for i := len(c.queue) - 1; i >= 0; i-- {
		if c.queue[i].owed {
			c.retire(i + 1)
			return
		}
	}
}

// trackPending reports whether accepted writes must be tracked for
// crash-time fault injection.
func (c *Controller) trackPending() bool {
	return c.dev.FaultModel().CrashAffectsWPQ()
}

// fail records the first device or protocol error; later errors are
// dropped (the first is the root cause).
func (c *Controller) fail(err error) {
	c.stats.WriteErrors++
	if c.err == nil {
		c.err = err
	}
}

// Err returns the first device or protocol error the controller
// swallowed, nil if none. Torture cells report a non-nil value as a
// failure.
func (c *Controller) Err() error { return c.err }

// HealthState is the controller's media-health state machine, driven by
// the device's finite spare pool: Healthy while spares are plentiful;
// Degraded once the pool falls to its threshold (scrub is throttled and
// stops consuming spares — only retry-exhaustion remaps still draw from
// the pool); ReadOnly when the pool is empty (new writes and epochs are
// refused with a typed *nvm.SpareExhaustedError while reads keep
// verifying). The unlimited legacy pool is always Healthy.
type HealthState int

const (
	HealthHealthy HealthState = iota
	HealthDegraded
	HealthReadOnly
)

// String names the state for stats rendering and JSON summaries.
func (h HealthState) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthReadOnly:
		return "read-only"
	}
	return fmt.Sprintf("HealthState(%d)", int(h))
}

// SpareThreshold is the Degraded boundary: a quarter of the pool,
// at least one line.
func SpareThreshold(total int) int {
	return max(1, total/4)
}

// Health derives the current state from the spare pool. It is a pure
// function of pool occupancy, so crossing a boundary is visible to the
// very next call — the harness's front door for refusing new work.
func (c *Controller) Health() HealthState {
	s := c.dev.SpareStats()
	if !s.Finite() {
		return HealthHealthy
	}
	switch rem := s.Remaining(); {
	case rem <= 0:
		return HealthReadOnly
	case rem <= SpareThreshold(s.Total):
		return HealthDegraded
	}
	return HealthHealthy
}

// readOnly is the hot-path form of Health() == HealthReadOnly.
func (c *Controller) readOnly() bool {
	s := c.dev.SpareStats()
	return s.Finite() && s.Remaining() <= 0
}

// Device returns the fronted NVM device.
func (c *Controller) Device() *nvm.Device { return c.dev }

// Stats returns a copy of the contention counters.
func (c *Controller) Stats() Stats { return c.stats }

func (c *Controller) bankOf(a mem.Addr) int {
	return int(uint64(a) / mem.LineSize % uint64(len(c.readBanks)))
}

// BeginRequest opens a request scope: until EndRequest, the controller
// keeps the last data-HMAC-region line a device read returned in a
// one-entry buffer, and a Read or ReadBypass of that line is served
// from it with no device read: a Read no earlier than the fill's
// completion, as a read overlapping the fill waits for its line, a
// ReadBypass at the caller's cycle. Every write of the line the
// controller accepts updates the buffer and a failed device write or a
// Crash empties it, so it always holds what the device will.
//
// On a device without a fault model the buffer also merges writes: the
// first non-epoch write of the buffered line is queued as an owed entry,
// which takes a slot as usual but writes the device only when it
// retires, and a later write of the line merges into it (RequestMerges),
// with no slot of its own, while it is still queued. Besides the FIFO
// drain, the queue retires through the owed entry when the buffer
// refills with another line, before an epoch write of the line is held,
// and at EndRequest or Crash; so between requests the device holds what
// it would without the buffer. Under a fault model every write reaches
// the device at acceptance, where its own error and tear decision
// belong.
//
// The storage-engine facade opens one request per call; the simulator
// opens none, so its per-miss traffic is the paper's.
func (c *Controller) BeginRequest() {
	c.dropReq()
	c.inReq = true
}

// EndRequest closes the request scope: the owed entry retires and the
// buffer empties. A faultless device keeps no queue between requests.
func (c *Controller) EndRequest() {
	c.dropReq()
	c.inReq = false
	if !c.trackPending() {
		c.queue = c.queue[:0]
	}
}

// dropReq retires the owed entry, if any, and empties the buffer.
func (c *Controller) dropReq() {
	c.retireOwed()
	c.req.ok = false
}

// Peek returns line a as the device holds it once every queued entry
// has retired: the device's content, or the owed entry's line. It
// costs no cycles and counts nothing.
func (c *Controller) Peek(a mem.Addr) (mem.Line, bool) {
	a = mem.Align(a)
	if i := newest(c.queue, a); i >= 0 && c.queue[i].owed {
		return c.queue[i].line, true
	}
	return c.dev.Peek(a)
}

// reqHit serves a read of a from the request buffer, if it holds a.
func (c *Controller) reqHit(a mem.Addr) (mem.Line, bool, bool) {
	if !c.req.ok || c.req.addr != a {
		return mem.Line{}, false, false
	}
	c.stats.RequestHits++
	return c.req.line, c.req.present, true
}

// reqFill keeps a device read of a data-HMAC line inside a request,
// completed at ready, retiring the owed entry of the line it replaces
// first.
func (c *Controller) reqFill(a mem.Addr, l mem.Line, ok bool, ready int64) {
	if c.inReq && c.dev.Layout().RegionOf(a) == mem.RegionHMAC {
		c.retireOwed()
		c.req = reqLine{addr: a, line: l, present: ok, ok: true, ready: ready}
	}
}

// Read services a line read: it returns the current NVM content (with
// forwarding from held drain entries), whether the line was ever
// written, and the completion time including read-queue and bank
// contention.
func (c *Controller) Read(now int64, a mem.Addr) (mem.Line, bool, int64) {
	a = mem.Align(a)
	if l, ok, hit := c.reqHit(a); hit {
		return l, ok, max(now, c.req.ready)
	}
	c.stats.Reads++
	if i := newest(c.held, a); i >= 0 {
		// Forward from the WPQ; no bank access needed.
		return c.held[i].line, true, now
	}
	// Read-queue bound: a new read needs a free entry; entries retire at
	// their completion times.
	kept := c.readQ[:0]
	for _, f := range c.readQ {
		if f > now {
			kept = append(kept, f)
		}
	}
	c.readQ = kept
	if len(c.readQ) >= readQueue {
		earliest := c.readQ[0]
		for _, f := range c.readQ[1:] {
			if f < earliest {
				earliest = f
			}
		}
		if earliest > now {
			now = earliest
		}
	}
	b := c.bankOf(a)
	start := max(now, c.readBanks[b])
	done := start + c.dev.Timing().ReadCycles
	l, ok := c.dev.Read(a)
	done += c.retryPenalty(a)
	c.reqFill(a, l, ok, done)
	c.readBanks[b] = done
	c.readQ = append(c.readQ, done)
	return l, ok, done
}

// retryPenalty models bounded retry-with-backoff for media read errors:
// each failing attempt is retried after an exponentially growing backoff
// until the device succeeds or the retry budget is exhausted (a
// permanent read error; the content is still returned — the simulator
// has it — but the error is counted, and the fault oracles require the
// count to stay zero under the transient-error model). Returns the extra
// cycles the retries cost. Zero without a fault model.
func (c *Controller) retryPenalty(a mem.Addr) int64 {
	if c.dev.FaultModel() == nil {
		return 0
	}
	var extra int64
	for attempt := 0; c.dev.ReadFails(a, attempt); {
		attempt++
		shift := uint(attempt - 1)
		if shift > 6 {
			shift = 6
		}
		cost := c.dev.Timing().ReadCycles << shift
		c.stats.ReadRetries++
		c.stats.ReadRetryCycles += cost
		extra += cost
		if attempt >= readRetryLimit {
			if c.dev.SpareStats().Finite() {
				// Runtime remap: the retry budget is exhausted, so the
				// controller reconstructs the line via ECC and moves it to
				// a spare instead of erroring forever (remap-on-demand).
				// Only an empty pool leaves a permanent error behind.
				if err := c.dev.Remap(a, true); err == nil {
					c.stats.RetryRemapped++
					break
				}
			}
			c.stats.PermanentReadErrors++
			break
		}
	}
	return extra
}

// HostWrite is the host-facing write admission. In read-only
// degradation (spare pool exhausted) new host data is refused — counted
// in RefusedWrites, never silently dropped — while Write, the
// engine-internal path, always completes: metadata maintenance, heals
// and the tail of an already-admitted write-back must finish or they
// would tear state the device has acknowledged. It is the same split a
// worn SSD makes when it goes read-only but keeps its internal
// machinery running. Refusal happens per whole host store, so the
// refused write simply never reaches the media.
func (c *Controller) HostWrite(now int64, a mem.Addr, l mem.Line) int64 {
	if c.readOnly() {
		c.stats.RefusedWrites++
		return now
	}
	return c.Write(now, a, l)
}

// Write enqueues a line write into the WPQ and returns the cycle at
// which the producer obtained a slot (the producer-visible acceptance
// time; service completes in the background). Non-epoch writes are
// durable from acceptance onward, per ADR. A write merges into the
// newest queued entry of its line, with no slot of its own, when that
// entry is owed (see BeginRequest).
//
// Epoch writes (issued between BeginEpochDrain and EndEpochDrain) are
// held: they occupy slots but are neither serviced nor durable until the
// end signal arrives.
func (c *Controller) Write(now int64, a mem.Addr, l mem.Line) int64 {
	a = mem.Align(a)
	c.stats.Writes++
	c.advance(now)
	if i := newest(c.queue, a); i >= 0 && c.queue[i].owed && !c.inDrain {
		c.stats.RequestMerges++
		c.emit(EvWriteAccept, a)
		c.queue[i].line, c.req.line = l, l
		return now
	}
	if occ := c.backlog + float64(len(c.held)); occ+1 > float64(c.cfg.WriteQueue) {
		// Block until enough backlog drains for one slot. If every slot
		// is a held epoch entry the protocol is broken: the drainer must
		// bound its batch by the WPQ size.
		if c.backlog <= 0 {
			c.fail(fmt.Errorf("%w (%d held)", ErrWPQWedged, len(c.held)))
			return now
		}
		need := occ + 1 - float64(c.cfg.WriteQueue)
		wait := int64(need/c.drainRate() + 0.999999)
		c.stats.WPQFullStalls++
		c.stats.WPQStallCycles += wait
		now += wait
		c.advance(now)
	}
	buffered := c.req.ok && c.req.addr == a
	if buffered {
		if c.inDrain {
			c.retireOwed() // the held entry must not overtake it
		}
		c.req.line, c.req.present = l, true
	}
	if c.inDrain {
		c.stats.EpochWrites++
		c.emit(EvEpochHold, a)
		c.held = append(c.held, wpqEntry{addr: a, line: l})
		return now
	}
	c.emit(EvWriteAccept, a)
	c.devWrite(a, l, buffered && c.dev.FaultModel() == nil)
	return now
}

// devWrite queues one non-epoch entry: the fluid backlog grows by one
// and, unless the entry is owed, the line becomes durable now (ADR).
// The queue keeps the entry until it retires where something needs it:
// under a fault model a power failure can tear it, and on a faultless
// device inside a request it may be owed or queued behind the owed one.
func (c *Controller) devWrite(a mem.Addr, l mem.Line, owed bool) {
	e := wpqEntry{addr: a, line: l, owed: owed}
	track := c.trackPending()
	if track {
		e.old, e.oldOk = c.dev.Peek(a)
	}
	if !owed {
		if err := c.dev.Write(a, l); err != nil {
			c.fail(err)
			c.dropReq()
			return
		}
	}
	c.backlog++
	if track {
		c.wseq++
		e.seq = c.wseq
	}
	if track || c.inReq && c.dev.FaultModel() == nil {
		c.queue = append(c.queue, e)
	}
}

// ReadBypass services a metadata or write-path read with pure device
// latency, without reserving a bank slot. The simulator issues such
// reads at future (pipeline-internal) timestamps; reserving banks there
// would make earlier program-order reads queue behind work that has not
// physically started. Metadata bandwidth is a few percent of a bank's
// capacity, so the elision is harmless; core-facing data reads use Read
// and contend normally.
func (c *Controller) ReadBypass(now int64, a mem.Addr) (mem.Line, bool, int64) {
	a = mem.Align(a)
	if l, ok, hit := c.reqHit(a); hit {
		return l, ok, now
	}
	c.stats.Reads++
	if i := newest(c.held, a); i >= 0 {
		return c.held[i].line, true, now
	}
	l, ok := c.dev.Read(a)
	done := now + c.dev.Timing().ReadCycles + c.retryPenalty(a)
	c.reqFill(a, l, ok, done)
	return l, ok, done
}

// BeginEpochDrain opens the atomic-draining window: subsequent writes
// are tagged as epoch metadata and held in the WPQ. Nesting windows is a
// protocol violation and returns ErrNestedDrain (also recorded sticky).
func (c *Controller) BeginEpochDrain() error {
	return c.beginEpochDrain(false)
}

// BeginOwedEpochDrain is BeginEpochDrain for an epoch the device already
// owes: one whose data writes reached the media under counters only
// this epoch persists, so parking it would leave those blocks
// unauthenticatable after a crash. Read-only degradation does not
// refuse it — like Write, it is the tail of an already-admitted
// write-back, and a metadata line it writes onto a stuck cell simply
// stays stuck.
func (c *Controller) BeginOwedEpochDrain() error {
	return c.beginEpochDrain(true)
}

func (c *Controller) beginEpochDrain(owed bool) error {
	if c.inDrain {
		c.fail(ErrNestedDrain)
		return ErrNestedDrain
	}
	if !owed && c.readOnly() {
		// Graceful degradation, not a protocol violation: the error is
		// typed and not sticky, so the engine can park the epoch and
		// leave runtime reads verifying. No window opens.
		c.stats.RefusedEpochs++
		return &nvm.SpareExhaustedError{Total: c.dev.SpareStats().Total}
	}
	c.inDrain = true
	c.emit(EvEpochBegin, 0)
	return nil
}

// EndEpochDrain delivers the end signal: every held entry becomes
// durable and is scheduled on the banks. It returns the cycle at which
// the last entry's NVM write completes (background time; producers need
// not wait for it), or ErrNoDrain when no window is open.
//
// The commit point is atomic and single: clearing inDrain is the end
// signal, after which the batch is durable as a whole. Servicing the
// entries — the device/store bookkeeping — happens after that point.
func (c *Controller) EndEpochDrain(now int64) (int64, error) {
	if !c.inDrain {
		c.fail(ErrNoDrain)
		return now, ErrNoDrain
	}
	c.inDrain = false // the atomic commit point: the epoch is now durable
	c.emit(EvEpochCommit, 0)
	c.advance(now)
	for _, h := range c.held {
		c.emit(EvADRFlush, h.addr)
		c.devWrite(h.addr, h.line, false)
	}
	c.held = c.held[:0]
	return now + int64(c.backlog/c.drainRate()), nil
}

// Scrub runs one scrubbing pass over the device's weak lines: each is
// read and rewritten in place (re-rolling its cell state) until it holds
// stable data, up to eight rewrites; a line still weak after that is
// remapped to a spare and exempted. On the unlimited pool the pass
// guarantees no weak line survives it, which the read-error-bounded-
// retry oracle asserts. A finite pool makes the pass health-aware:
// Degraded throttles it (two rewrites, no spare-consuming give-ups —
// remaining spares are reserved for retry-exhaustion remaps) and
// ReadOnly skips it entirely, so weak survivors are then expected. It
// returns the cycle at which the scrub writes were accepted. A no-op
// without a fault model.
func (c *Controller) Scrub(now int64) int64 {
	dev := c.dev
	if dev.FaultModel() == nil {
		return now
	}
	if c.Health() == HealthReadOnly {
		return now
	}
	for _, a := range dev.WeakLines() {
		limit := 8
		if c.Health() != HealthHealthy {
			limit = 2
		}
		healed := false
		for i := 0; i < limit; i++ {
			l, ok := dev.Peek(a)
			if !ok {
				healed = true
				break
			}
			now = c.Write(now, a, l)
			c.stats.ScrubbedLines++
			if !dev.LineWeak(a) {
				healed = true
				break
			}
		}
		if !healed && c.Health() == HealthHealthy {
			if err := dev.Remap(a, true); err == nil {
				c.stats.ScrubRemapped++
			}
		}
	}
	return now
}

// Crash applies power-failure semantics: serviceable WPQ entries are
// already durable (ADR flushes them with backup power), while held
// epoch entries that never saw the end signal are dropped, leaving the
// NVM Merkle tree in its previous consistent state. The controller is
// left empty and idle.
//
// Under a fault model the ADR guarantee weakens: only the first
// ADRBudget unserviced entries flush whole; later entries tear at
// 8-byte granularity or drop, held entries tear instead of vanishing
// cleanly, and StuckLines written lines fail permanently. The damage is
// recorded in a FaultLog (see TakeFaultLog) whose Suspects manifest —
// the addresses of every in-flight or held entry — is the only part
// recovery may consult.
func (c *Controller) Crash() {
	c.dropReq() // an owed entry is in the ADR domain: it retires whole
	if c.dev.FaultModel().Enabled() {
		c.crashFaults()
	}
	c.stats.DroppedOnCrash += uint64(len(c.held))
	c.held = c.held[:0]
	c.queue = c.queue[:0]
	c.inDrain = false
	c.backlog = 0
	c.backlogUpd = 0
	for i := range c.readBanks {
		c.readBanks[i] = 0
	}
}

// crashFaults injects the fault model's power-failure damage and builds
// the fault log.
func (c *Controller) crashFaults() {
	fm := c.dev.FaultModel()
	log := &nvm.FaultLog{}

	// Partial ADR drain: the first K unserviced entries flush whole
	// (they are already durable — acceptance wrote them through); the
	// rest tear or drop, and a zero budget is unbounded. Damage is
	// applied per address in FIFO order so overlapping writes compose
	// word-by-word like real media.
	var victims []wpqEntry
	log.Flushed = len(c.queue)
	if k := fm.ADRBudget; k > 0 && len(c.queue) > k {
		log.Flushed, victims = k, c.queue[k:]
	}

	// The suspects manifest: the lines the ADR flush FAILED to service —
	// the entries past the energy budget and everything held without an
	// end signal. Real hardware knows exactly this (the flush pointer
	// stops, and NVDIMM SMART reports the dirty shutdown); entries it
	// flushed whole are durable and need no suspicion. The manifest is
	// persisted first (a few hundred bytes, well inside any budget), so
	// recovery can distinguish crash loss from tampering.
	seen := map[mem.Addr]bool{}
	for _, p := range victims {
		if !seen[p.addr] {
			seen[p.addr] = true
			log.Suspects = append(log.Suspects, p.addr)
		}
	}
	for _, h := range c.held {
		if !seen[h.addr] {
			seen[h.addr] = true
			log.Suspects = append(log.Suspects, h.addr)
		}
	}
	slices.Sort(log.Suspects)

	perAddr := map[mem.Addr][]wpqEntry{}
	var order []mem.Addr
	for _, p := range victims {
		if _, ok := perAddr[p.addr]; !ok {
			order = append(order, p.addr)
		}
		perAddr[p.addr] = append(perAddr[p.addr], p)
	}
	for _, a := range order {
		entries := perAddr[a]
		// Start from the media content before the first beyond-budget
		// entry; every earlier write to a flushed or retired entry is
		// already folded into that base.
		cur, present := entries[0].old, entries[0].oldOk
		damaged := false
		for _, p := range entries {
			mask := fm.TearMask(p.addr, p.seq)
			switch {
			case mask == 0:
				c.stats.DroppedByADR++
				log.Events = append(log.Events, nvm.FaultEvent{Addr: p.addr, Kind: "dropped"})
				damaged = true
			case mask == 0xff:
				cur, present = p.line, true
			default:
				base := cur
				if !present {
					base = mem.Line{}
				}
				cur, present = nvm.MixWords(base, p.line, mask), true
				c.stats.TornOnCrash++
				log.Events = append(log.Events, nvm.FaultEvent{Addr: p.addr, Kind: "torn", Mask: mask})
				damaged = true
			}
		}
		if damaged {
			c.dev.ApplyCrashFault(a, cur, present)
		}
	}

	// Held epoch entries never saw the end signal. The idealized device
	// drops them whole (the atomic-draining guarantee); with torn writes
	// enabled, words of them may have leaked to the media.
	if fm.TornWrites {
		for i, h := range c.held {
			mask := fm.TearMask(h.addr, c.wseq+uint64(i)+1)
			if mask == 0 || mask == 0xff {
				// 0xff would be a fully persisted held entry — the end
				// signal never arrived, so cap the leak below a full line
				// to preserve "held entries are never durable whole".
				log.Events = append(log.Events, nvm.FaultEvent{Addr: h.addr, Kind: "dropped", Held: true})
				continue
			}
			cur, ok := c.dev.Peek(h.addr)
			if !ok {
				cur = mem.Line{}
			}
			c.dev.ApplyCrashFault(h.addr, nvm.MixWords(cur, h.line, mask), true)
			c.stats.TornOnCrash++
			log.Events = append(log.Events, nvm.FaultEvent{Addr: h.addr, Kind: "torn", Mask: mask, Held: true})
		}
	}

	// Stuck-at failures: cells that do not survive the power cycle.
	for _, a := range c.dev.InjectStuckLines() {
		c.stats.StuckOnCrash++
		log.Events = append(log.Events, nvm.FaultEvent{Addr: a, Kind: "stuck"})
	}

	// A remap-record commit caught in flight tears per 64-byte chunk
	// like any line. The table's own checksums turn the damage into a
	// clean rollback at recovery, so the event needs no suspects entry.
	if c.dev.TearNewestRemapSlot() {
		c.stats.RemapTornOnCrash++
	}
	c.faultLog = log
}

// TakeFaultLog returns the fault log of the last Crash and clears it;
// nil when no fault model is active or Crash has not run.
func (c *Controller) TakeFaultLog() *nvm.FaultLog {
	log := c.faultLog
	c.faultLog = nil
	return log
}
