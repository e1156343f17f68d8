package kv

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/store"
	"ccnvm/internal/twoslot"
)

// ErrDBClosed reports an operation on a closed or crashed DB.
var ErrDBClosed = errors.New("kv: db closed")

// Options tunes a DB.
type Options struct {
	// WriteController configures the stall triggers (see
	// WriteControllerOptions for the defaults).
	WriteController WriteControllerOptions
}

// valRef locates one value inside the frame log: the frame's first
// payload line plus the value's byte range within the payload. Refs
// stay valid until the half of the arena they point into is reclaimed,
// which only happens after every reader of that half (the live keymap,
// pinned snapshots) has moved to the compacted copy.
type valRef struct {
	payload mem.Addr
	off     int
	n       int
}

// Ladder states, most to least healthy. Stats.Ladder reports the
// current rung; healthy marshals as the empty string so faultless
// stats JSON is byte-identical to a namespace without the ladder.
const (
	LadderHealthy      = ""
	LadderThrottled    = "throttled"
	LadderBackpressure = "backpressure"
	LadderReadOnly     = "readonly"
)

// Stats is a point-in-time view of a DB.
type Stats struct {
	Keys       int                  `json:"keys"`
	Seq        uint64               `json:"seq"`
	DurableSeq uint64               `json:"durable_seq"`
	LogBytes   uint64               `json:"log_bytes"`
	Capacity   uint64               `json:"capacity"`
	Gets       uint64               `json:"gets"`
	Batches    uint64               `json:"batches"`
	Ops        uint64               `json:"ops"`
	Stall      WriteControllerStats `json:"stall"`
	Ladder     string               `json:"ladder,omitempty"`
	Compaction *CompactionStats     `json:"compaction,omitempty"`
}

// DB is one KV namespace over a storage-engine facade. All methods are
// safe for concurrent use; batches from concurrent writers serialize
// at the log head and share epoch flushes (group commit).
//
// The data region is laid out as two manifest slots followed by a log
// arena split into two equal halves. The live log occupies exactly one
// half (the write controller's capacity); compaction rewrites the live
// set into the other half and flips the manifest, so the namespace
// survives indefinite write traffic as long as the live set fits.
type DB struct {
	st *store.Store
	wc *WriteController

	// rmu orders value reads against half reclamation: readers hold it
	// shared from index lookup through the last line read, the
	// reclaimer exclusively while zeroing a retired half. Always
	// acquired before mu, never while holding it.
	rmu sync.RWMutex

	mu        sync.Mutex // index, log head, append ordering, compaction state
	idx       map[string]valRef
	head      mem.Addr // next free log line (inside the active half)
	seq       uint64   // last appended frame
	closed    bool
	halfBytes uint64 // log capacity: bytes per arena half
	active    int    // arena half holding the live log
	gen       uint64 // committed manifest generation
	startSeq  uint64 // frame seq preceding the active half's first frame
	liveBytes uint64 // payload bytes of live records (compaction estimate)

	compacting     bool       // a pass is relocating the live set
	ccond          *sync.Cond // over mu; broadcast when a pass ends
	pins           [2]int     // open snapshots pinning each half
	pendingReclaim int        // retired half awaiting reclaim (-1: none)

	compactions    uint64
	compactFreed   uint64 // log bytes freed by passes
	reclaimedLines uint64 // lines returned to zero (passes + reopen)

	sabotageDropManifest bool   // torture self-tests: skip the manifest commit
	testHookMidCopy      func() // tests: runs after the copy phase, before commit
	testHookAfterSwitch  func() // tests: runs between switch and reclaim

	gets    uint64
	batches uint64
	opCount uint64

	fmu      sync.Mutex // group-commit state
	fcond    *sync.Cond
	flushing bool
	appended uint64 // highest seq fully in the log
	durable  uint64 // highest seq covered by a returned FlushEpoch
	flushErr error  // sticky terminal flush failure
}

// Open builds the namespace over st: load the compaction manifest
// (newest valid slot wins, torn slot falls back), rebuild the keymap by
// scanning the active half's frame log, then finish whatever a crash
// interrupted — repair the torn manifest slot and reclaim the inactive
// half, which discards orphan compacted runs that never committed a
// manifest and finishes the reclaim of a committed pass. The scan stops
// at the first line that is not a valid next frame header — everything
// past the last committed frame (orphan payloads of a crashed batch,
// never-written zero lines) is invisible, which is the crash-atomicity
// guarantee.
func Open(st *store.Store, o Options) (*DB, error) {
	capacity := st.Capacity()
	hb := (capacity - min(capacity, uint64(arenaStart))) / 2
	hb -= hb % mem.LineSize
	if hb < 4*mem.LineSize {
		return nil, fmt.Errorf("kv: capacity %d too small for a two-half log arena", capacity)
	}
	wc, err := NewWriteController(hb, o.WriteController)
	if err != nil {
		return nil, err
	}
	db := &DB{st: st, wc: wc, idx: make(map[string]valRef), halfBytes: hb, pendingReclaim: -1}
	db.fcond = sync.NewCond(&db.fmu)
	db.ccond = sync.NewCond(&db.mu)

	manifest := make([]byte, ManifestFormat.TableLen())
	for i := range 2 {
		l, err := st.Read(mem.Addr(i) * mem.LineSize)
		if err != nil {
			return nil, fmt.Errorf("kv: manifest slot %d: %w", i, err)
		}
		copy(manifest[i*mem.LineSize:], l[:])
	}
	c := ManifestFormat.Choose(manifest, manifestOK)
	if c.Torn[0] && c.Torn[1] {
		return nil, errors.New("kv: both compaction manifest slots torn")
	}
	var rec manifestRecord
	if c.Winner != nil {
		rec = decodeManifest(c.Winner)
	}
	db.gen, db.active, db.startSeq = rec.Seq, rec.Half, rec.StartSeq
	db.seq = rec.StartSeq
	if err := db.scan(); err != nil {
		return nil, err
	}
	db.appended, db.durable = db.seq, db.seq
	if err := db.repairAndReclaim(manifest, c); err != nil {
		return nil, err
	}
	return db, nil
}

// halfStart is the first line of arena half h.
func (db *DB) halfStart(h int) mem.Addr {
	return arenaStart + mem.Addr(h)*mem.Addr(db.halfBytes)
}

// usedLocked is the active half's consumed bytes. Caller holds mu.
func (db *DB) usedLocked() uint64 {
	return uint64(db.head - db.halfStart(db.active))
}

// scanDepth bounds the sealed frames the scan's read stage may run
// ahead of its index stage: deep enough that the reader keeps reading
// through the index stage's pauses (a keymap resize rehashes every key
// at once), small enough that the queued payloads stay near 1 MiB at
// the compactor's 16 KiB frames.
const scanDepth = 64

// sealedFrame is one frame whose header and payload checksums passed,
// handed from the scan's read stage to its index stage.
type sealedFrame struct {
	seq     uint64
	addr    mem.Addr // header line
	count   int
	payload []byte
}

// scan replays the active half's committed frame prefix into the index
// in two stages. The calling goroutine reads: header, parseHeader,
// payload, checksum, in log order, stopping at the first line that is
// not a valid next frame. A second goroutine decodes each sealed frame
// and applies it to the index, also in log order, so the verified
// engine reads of frame k+1 overlap the keymap work of frame k. The
// first error in log order wins: a malformed frame beats a read error
// on any later frame the read stage had already moved on to.
func (db *DB) scan() error {
	frames := make(chan sealedFrame, scanDepth)
	stop := make(chan struct{}) // closed by the index stage on a malformed frame
	var indexErr error
	indexed := make(chan struct{})
	go func() {
		defer close(indexed)
		for f := range frames {
			// Both checksums passed, so the writer sealed these bytes: a
			// record that does not decode is corruption, not the log's
			// end, and stopping here would let the next Batch overwrite
			// every committed frame after it.
			recs, err := decodePayload(f.payload, f.count)
			if err != nil {
				indexErr = fmt.Errorf("kv: log frame seq %d at %#x is malformed: %w", f.seq, uint64(f.addr), err)
				close(stop)
				return
			}
			db.apply(f.addr+mem.LineSize, f.payload, recs)
		}
	}()
	seq, addr, readErr := db.readFrames(frames, stop)
	close(frames)
	<-indexed
	if indexErr != nil {
		return indexErr
	}
	if readErr != nil {
		return readErr
	}
	db.seq, db.head = seq, addr
	return nil
}

// readFrames is scan's read stage: it sends every sealed frame of the
// active half's committed prefix to frames until the prefix ends or
// stop closes, and returns the last frame's seq and the address after
// it.
func (db *DB) readFrames(frames chan<- sealedFrame, stop <-chan struct{}) (uint64, mem.Addr, error) {
	start := db.halfStart(db.active)
	end := start + mem.Addr(db.halfBytes)
	last, addr := db.seq, start
	for addr+mem.LineSize <= end {
		hl, err := db.st.Read(addr)
		if err != nil {
			return last, addr, fmt.Errorf("kv: log scan read %#x: %w", uint64(addr), err)
		}
		seq, count, payloadBytes, payloadCk, err := parseHeader(hl)
		if err != nil || seq != last+1 {
			break
		}
		need := mem.Addr(frameLines(payloadBytes)) * mem.LineSize
		if addr+need > end {
			break
		}
		payload, err := db.readBytes(valRef{payload: addr + mem.LineSize, n: payloadBytes})
		if err != nil {
			return last, addr, fmt.Errorf("kv: log scan payload at %#x: %w", uint64(addr+mem.LineSize), err)
		}
		if mem.Checksum(payload) != payloadCk {
			break
		}
		select {
		case frames <- sealedFrame{seq: seq, addr: addr, count: count, payload: payload}:
		case <-stop:
			return last, addr, nil
		}
		last = seq
		addr += need
	}
	return last, addr, nil
}

// repairAndReclaim finishes an interrupted compaction pass at reopen:
// rewrite the torn manifest slot c names from the ruling record (or
// zero it when no commit ever ruled), then return the inactive half to
// the all-zero state — orphan runs without a committed manifest become
// invisible and reclaimed, a committed pass gets its reclaim completed.
// Read-only media degradation is tolerated: the namespace still serves
// reads, orphans stay invisible either way.
func (db *DB) repairAndReclaim(manifest []byte, c twoslot.Choice) error {
	ManifestFormat.Repair(manifest, c)
	for i, torn := range c.Torn {
		if !torn {
			continue
		}
		err := db.st.Write(mem.Addr(i)*mem.LineSize, mem.Line(manifest[i*mem.LineSize:]))
		if err != nil && !errors.Is(err, store.ErrReadOnly) {
			return fmt.Errorf("kv: manifest slot %d repair: %w", i, err)
		}
	}
	if err := db.reclaimHalf(1 - db.active); err != nil && !errors.Is(err, store.ErrReadOnly) {
		return fmt.Errorf("kv: reclaim inactive half: %w", err)
	}
	return nil
}

// reclaimHalf zeroes every written line of arena half h — only ever an
// inactive half: a retired log after a committed pass, or an orphan run
// at reopen. Takes rmu exclusively so no in-flight value read can
// observe the zeroing.
func (db *DB) reclaimHalf(h int) error {
	lo := db.halfStart(h)
	db.rmu.Lock()
	n, err := db.st.ReclaimRange(lo, lo+mem.Addr(db.halfBytes))
	db.rmu.Unlock()
	db.mu.Lock()
	db.reclaimedLines += uint64(n)
	if err == nil && db.pendingReclaim == h {
		db.pendingReclaim = -1
	}
	db.mu.Unlock()
	if err != nil {
		return err
	}
	if n > 0 {
		if ferr := db.st.FlushEpoch(); ferr != nil {
			return ferr
		}
	}
	return nil
}

// reclaimRetired is the deferred-reclaim path (snapshot Release): it
// re-validates that h is still a retired half owing a reclaim while
// already holding rmu exclusively, so it can never race a new pass
// that is about to write a fresh run into h — a pass that has not yet
// taken rmu for its own destination cleaning cannot have written yet,
// and one that has is ordered entirely before or after us.
func (db *DB) reclaimRetired(h int) {
	db.rmu.Lock()
	db.mu.Lock()
	ok := db.pendingReclaim == h && db.pins[h] == 0 && h != db.active &&
		!db.compacting && !db.closed
	db.mu.Unlock()
	if !ok {
		db.rmu.Unlock()
		return
	}
	lo := db.halfStart(h)
	n, err := db.st.ReclaimRange(lo, lo+mem.Addr(db.halfBytes))
	db.rmu.Unlock()
	db.mu.Lock()
	db.reclaimedLines += uint64(n)
	if err == nil && db.pendingReclaim == h {
		db.pendingReclaim = -1
	}
	db.mu.Unlock()
	if err == nil && n > 0 {
		// Reclaim durability is best-effort here: a failed flush is
		// retried by the next pass or reopen.
		_ = db.st.FlushEpoch()
	}
}

// apply folds one frame's records into the index, keeping the live-set
// byte estimate the compaction gain floor uses.
func (db *DB) apply(payloadStart mem.Addr, payload []byte, recs []record) {
	for _, r := range recs {
		old, had := db.idx[string(r.key)]
		if had {
			db.liveBytes -= uint64(recHeadBytes + len(r.key) + old.n)
		}
		switch r.kind {
		case OpPut:
			db.idx[string(r.key)] = valRef{payload: payloadStart, off: r.valOff, n: r.valLen}
			db.liveBytes += uint64(recHeadBytes + len(r.key) + r.valLen)
		case OpDelete:
			delete(db.idx, string(r.key))
		}
	}
}

// readBytes reads one value, or a frame's whole payload, by ref. The
// caller must hold rmu shared (or otherwise know the ref's half cannot
// be reclaimed, as the compactor does for the active half it is
// copying out of, and the reopen scan does before anything else runs).
func (db *DB) readBytes(ref valRef) ([]byte, error) {
	if ref.n == 0 {
		return []byte{}, nil
	}
	out := make([]byte, 0, ref.n)
	pos := uint64(ref.payload) + uint64(ref.off)
	for got := 0; got < ref.n; {
		la := mem.Align(mem.Addr(pos))
		l, err := db.st.Read(la)
		if err != nil {
			return nil, err
		}
		off := int(pos - uint64(la))
		take := mem.LineSize - off
		if take > ref.n-got {
			take = ref.n - got
		}
		out = append(out, l[off:off+take]...)
		got += take
		pos += uint64(take)
	}
	return out, nil
}

// Get returns the value for key, reporting whether it exists. Reads
// see every applied batch, including ones not yet acknowledged
// (read-your-writes); use a Snapshot for a frozen view. Reads keep
// serving through every ladder rung, including read-only refusal.
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	db.rmu.RLock()
	defer db.rmu.RUnlock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, false, ErrDBClosed
	}
	db.gets++
	ref, ok := db.idx[string(key)]
	db.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	v, err := db.readBytes(ref)
	return v, ok, err
}

// Put maps key to val, acknowledged durable.
func (db *DB) Put(key, val []byte) error {
	return db.Batch([]Op{{Kind: OpPut, Key: key, Val: val}})
}

// Delete removes key, acknowledged durable.
func (db *DB) Delete(key []byte) error {
	return db.Batch([]Op{{Kind: OpDelete, Key: key}})
}

// Batch applies ops atomically: after a crash at any point, recovery
// sees either every op or none. Batch returns only once a covering
// epoch flush has committed — a nil return means the batch survives
// any later crash.
//
// Admission walks the degradation ladder: healthy batches append
// immediately; in the throttled band each admission is delayed and a
// worthwhile compaction pass runs first; while a pass is relocating
// the live set, writers queue behind it (backpressure); and when
// neither the media (read-only degradation) nor compaction (live set
// too big to free space) can make room, the write gets a typed refusal
// while reads keep serving. Delete-only batches are admitted past the
// stop trigger while physical room remains, so a full namespace can
// always shrink its way back to health.
func (db *DB) Batch(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	payload, recs, err := encodePayload(ops)
	if err != nil {
		return err
	}
	need := uint64(frameLines(len(payload))) * mem.LineSize
	deleteOnly := true
	for _, op := range ops {
		if op.Kind != OpDelete {
			deleteOnly = false
			break
		}
	}

	db.mu.Lock()
	triedCompact := false
	var delay time.Duration
	for {
		delay = 0
		if db.closed {
			db.mu.Unlock()
			return ErrDBClosed
		}
		if db.compacting {
			// Backpressure rung: queue behind the running pass, then
			// re-evaluate against the compacted layout.
			db.wc.noteBackpressure()
			t0 := time.Now()
			for db.compacting && !db.closed {
				db.ccond.Wait()
			}
			db.wc.noteStall(time.Since(t0))
			continue
		}
		if db.st.Health() == store.HealthReadOnly {
			db.wc.noteReadOnlyStop()
			db.mu.Unlock()
			return fmt.Errorf("kv: write refused: %w", store.ErrReadOnly)
		}
		used := db.usedLocked()
		adm := db.wc.evaluate(used, need)
		if !adm.overStop {
			delay = adm.delay
			if delay > 0 {
				db.wc.noteSlowdown()
				// Throttled rung: run a worthwhile pass before the
				// delayed admission so the log drains back to healthy.
				if !triedCompact && db.worthCompactingLocked(0, false) {
					triedCompact = true
					if cerr := db.compactLocked(); cerr != nil {
						db.mu.Unlock()
						return fmt.Errorf("kv: compaction before admission: %w", cerr)
					}
					continue
				}
			}
			break
		}
		// Past the stop trigger: compaction is the only way forward.
		if !triedCompact && db.worthCompactingLocked(need, true) {
			triedCompact = true
			if cerr := db.compactLocked(); cerr != nil {
				db.mu.Unlock()
				return fmt.Errorf("kv: compaction before admission: %w", cerr)
			}
			continue
		}
		if deleteOnly && used+need <= db.halfBytes {
			// Tombstone headroom: deletes shrink the live set, so they
			// are admitted past the stop trigger while lines remain —
			// otherwise a full namespace could never free itself.
			break
		}
		db.wc.noteCapacityStop()
		db.mu.Unlock()
		return fmt.Errorf("%w: %d used + %d needed > %d stop trigger and compaction cannot free enough",
			ErrLogFull, used, need, db.wc.stopTrigger())
	}

	header := db.head
	payloadStart := header + mem.LineSize
	// Payload first, header last: a crash before the header write
	// leaves no valid frame, so the batch is all-or-nothing.
	for i := 0; i < payloadLines(len(payload)); i++ {
		var l mem.Line
		copy(l[:], payload[i*mem.LineSize:])
		if werr := db.st.Write(payloadStart+mem.Addr(i*mem.LineSize), l); werr != nil {
			db.mu.Unlock()
			return fmt.Errorf("kv: batch payload write: %w", werr)
		}
	}
	hl := encodeHeader(db.seq+1, len(ops), len(payload))
	sealHeader(&hl, mem.Checksum(payload))
	if werr := db.st.Write(header, hl); werr != nil {
		db.mu.Unlock()
		return fmt.Errorf("kv: batch commit write: %w", werr)
	}
	db.seq++
	mySeq := db.seq
	db.head += mem.Addr(need)
	db.batches++
	db.opCount += uint64(len(ops))
	db.apply(payloadStart, payload, recs)
	db.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	return db.waitDurable(mySeq)
}

// waitDurable blocks until an epoch flush covering seq has returned,
// sharing flushes across concurrent writers: whichever writer finds no
// flush in flight runs one for everybody appended so far; the rest
// wait on the condvar.
func (db *DB) waitDurable(seq uint64) error {
	db.fmu.Lock()
	defer db.fmu.Unlock()
	if seq > db.appended {
		db.appended = seq
	}
	for db.durable < seq && db.flushErr == nil {
		if db.flushing {
			db.fcond.Wait()
			continue
		}
		db.flushing = true
		target := db.appended
		db.fmu.Unlock()
		err := db.st.FlushEpoch()
		db.fmu.Lock()
		db.flushing = false
		if err != nil {
			db.flushErr = err
		} else if target > db.durable {
			db.durable = target
		}
		db.fcond.Broadcast()
	}
	if db.durable >= seq {
		return nil
	}
	return fmt.Errorf("kv: batch %d not durable: %w", seq, db.flushErr)
}

// Flush forces an epoch flush covering everything appended so far.
func (db *DB) Flush() error {
	db.mu.Lock()
	seq := db.seq
	db.mu.Unlock()
	if seq == 0 {
		return nil
	}
	return db.waitDurable(seq)
}

// Stats snapshots the namespace counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	s := Stats{
		Keys:     len(db.idx),
		Seq:      db.seq,
		LogBytes: db.usedLocked(),
		Capacity: db.st.Capacity(),
		Gets:     db.gets,
		Batches:  db.batches,
		Ops:      db.opCount,
		Ladder:   db.ladderLocked(),
	}
	if db.gen > 0 || db.compactions > 0 || db.reclaimedLines > 0 {
		s.Compaction = &CompactionStats{
			Generation:     db.gen,
			ActiveHalf:     db.active,
			Passes:         db.compactions,
			FreedBytes:     db.compactFreed,
			ReclaimedLines: db.reclaimedLines,
			LiveBytes:      db.liveBytes,
		}
	}
	db.mu.Unlock()
	db.fmu.Lock()
	s.DurableSeq = db.durable
	db.fmu.Unlock()
	s.Stall = db.wc.Stats()
	return s
}

// ladderLocked names the current degradation rung. Caller holds mu.
func (db *DB) ladderLocked() string {
	switch {
	case db.st.Health() == store.HealthReadOnly:
		return LadderReadOnly
	case db.compacting:
		return LadderBackpressure
	case db.usedLocked() >= db.wc.slowdownTrigger():
		return LadderThrottled
	default:
		return LadderHealthy
	}
}

// Generation is the committed compaction manifest generation.
func (db *DB) Generation() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.gen
}

// Store exposes the underlying facade (health probes, torture seams).
func (db *DB) Store() *store.Store { return db.st }

// Crash powers the machine off mid-run and returns the crash image.
// The DB is unusable afterwards.
func (db *DB) Crash() *engine.CrashImage {
	db.mu.Lock()
	db.closed = true
	db.ccond.Broadcast()
	db.mu.Unlock()
	db.fmu.Lock()
	if db.flushErr == nil {
		db.flushErr = ErrDBClosed
	}
	db.fcond.Broadcast()
	db.fmu.Unlock()
	return db.st.Crash()
}

// Close flushes outstanding appends and marks the DB closed. The
// caller still owns the store's lifecycle.
func (db *DB) Close() error {
	err := db.Flush()
	db.mu.Lock()
	db.closed = true
	db.ccond.Broadcast()
	db.mu.Unlock()
	db.fmu.Lock()
	if db.flushErr == nil {
		db.flushErr = ErrDBClosed
	}
	db.fcond.Broadcast()
	db.fmu.Unlock()
	return err
}
