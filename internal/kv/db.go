package kv

import (
	"errors"
	"fmt"
	"slices"
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

// valRef locates one value inside the frame log: the seq of its frame,
// the address of the frame's first payload byte (headerBytes into its
// header line) plus the value's byte range within the payload. Refs
// stay valid until the head overwrites their frame, which it does only
// a lap after a pass moved the tail past it, once every reader of it
// (the live keymap, a pinning snapshot) has let it go.
type valRef struct {
	seq     uint64
	payload mem.Addr
	off, n  int32
}

// ringFrame is one frame of the live log, in log order: its logical
// offset and the records of it the index still points at.
type ringFrame struct {
	off  uint64 // logical offset of its header line
	live uint32 // recLen bytes of its indexed records
	recs uint32 // its indexed records
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
// at the log head, and each batch acknowledges once the store has
// accepted its header line.
//
// The data region is laid out as two manifest slots followed by a log
// arena used as one ring. The live log is the window from the tail to
// the head in ring order; admission keeps it within half the arena
// (the capacity), and compaction moves the tail past the oldest
// frames after appending their live records at the head, so the
// namespace survives indefinite write traffic as long as the live set
// fits.
//
// Positions in the ring are logical byte offsets that only grow: off
// lies at arena byte off mod ringBytes. A frame never straddles the
// arena's end: the head skips to the next lap when the frame would
// cross it, or cross softEnd while the arena's start is free.
type DB struct {
	st *store.Store

	// rmu is the pass barrier: readers hold it shared from index
	// lookup through the last line read, and a pass takes it
	// exclusively once after it moves the tail, so no reader is still
	// reading the frames the head may overwrite from then on. Always
	// acquired before mu, never while holding it.
	rmu sync.RWMutex

	mu        sync.Mutex // index, log window, append ordering, compaction state
	idx       map[string]valRef
	frames    []ringFrame // the window's frames: frames[i] has seq tailSeq+1+i
	tail      uint64      // logical offset of the log's first frame
	head      uint64      // logical offset of the next frame
	gaps      []uint64    // logical starts of the wrap gaps inside the window
	tailSeq   uint64      // frame seq preceding the tail
	seq       uint64      // last appended frame
	closed    bool
	halfBytes uint64 // admission capacity: half the arena
	ringBytes uint64 // the arena
	softEnd   uint64 // arena offset the head wraps at once the start is free
	gen       uint64 // committed manifest generation
	liveBytes uint64 // recLen bytes of indexed records

	// frame is writeFrame's line buffer. One frame writer runs at a
	// time: Batch under mu, or a pass while compacting (writers queue
	// behind it).
	frame []store.LineWrite

	compacting bool           // a pass is relocating live records
	ccond      *sync.Cond     // over mu; broadcast when a pass ends
	pins       map[uint64]int // open snapshots by the tail they pin

	compactions   uint64
	compactFreed  uint64 // log bytes freed by passes
	compactCopied uint64 // records passes copied

	testHookMidCopy func() // tests: runs after the copy phase, before commit

	gets    uint64
	batches uint64
	opCount uint64

	// Admission (the write controller, see Batch): the triggers fixed at
	// Open and the stall counters, all under mu. Stops is derived in
	// Stats.
	stall    WriteControllerStats
	throttle time.Duration // per-batch delay past stall.SlowdownAt
}

// Open builds the namespace over st: load the compaction manifest
// (newest valid slot wins, torn slot falls back), rebuild the keymap by
// scanning the ring from the tail, then repair the torn manifest slot a
// crash left. The scan stops at the first line that is not a valid next
// frame header — everything past the last committed frame (orphan
// payloads of a crashed batch, frames of an earlier lap, never-written
// zero lines) is invisible, which is the crash-atomicity guarantee.
// Nothing is zeroed: dead frames stay on the media until the head
// overwrites them. An image of the two-half layout an earlier build
// wrote is refused by name.
func Open(st *store.Store, o Options) (*DB, error) {
	hb := arenaHalf(st.Capacity())
	if hb < 4*mem.LineSize {
		return nil, fmt.Errorf("kv: capacity %d too small for a log arena", st.Capacity())
	}
	wo := o.WriteController
	if wo.SlowdownFrac == 0 {
		wo.SlowdownFrac = 0.85
	}
	if wo.StopFrac == 0 {
		wo.StopFrac = 0.95
	}
	if wo.SlowdownDelay == 0 {
		wo.SlowdownDelay = time.Millisecond
	}
	if wo.SlowdownFrac < 0 || wo.SlowdownFrac > wo.StopFrac || wo.StopFrac > 1 {
		return nil, fmt.Errorf("kv: bad write-controller triggers slowdown=%v stop=%v", wo.SlowdownFrac, wo.StopFrac)
	}
	db := &DB{st: st, idx: make(map[string]valRef), halfBytes: hb, ringBytes: 2 * hb,
		pins: make(map[uint64]int),
		stall: WriteControllerStats{
			Capacity:   hb,
			SlowdownAt: uint64(float64(hb) * wo.SlowdownFrac),
			StopAt:     uint64(float64(hb) * wo.StopFrac),
		},
		throttle: wo.SlowdownDelay,
	}
	db.softEnd = 2 * db.stall.SlowdownAt
	db.ccond = sync.NewCond(&db.mu)

	manifest, err := st.ReadLines(make([]byte, 0, ManifestFormat.TableLen()), 0, 2)
	if err != nil {
		return nil, fmt.Errorf("kv: manifest slot %d: %w", len(manifest)/mem.LineSize, err)
	}
	if err := refuseHalvesManifest(manifest); err != nil {
		return nil, err
	}
	c := ManifestFormat.Choose(manifest, manifestOK(db.ringBytes))
	if c.Torn[0] && c.Torn[1] {
		return nil, errors.New("kv: both compaction manifest slots torn")
	}
	rec := manifestRecord{Tail: arenaStart}
	if c.Winner != nil {
		rec = decodeManifest(c.Winner)
	}
	db.gen, db.tailSeq, db.seq = rec.Seq, rec.TailSeq, rec.TailSeq
	db.tail = uint64(rec.Tail - arenaStart)
	db.head = db.tail
	if err := db.scan(); err != nil {
		return nil, err
	}
	if err := db.repairManifest(manifest, c); err != nil {
		return nil, err
	}
	return db, nil
}

// arenaHalf is half the line-aligned log arena of a store of the given
// capacity: the admission capacity.
func arenaHalf(capacity uint64) uint64 {
	hb := (capacity - min(capacity, uint64(arenaStart))) / 2
	return hb - hb%mem.LineSize
}

// addr is the data-region address of logical ring offset off.
func (db *DB) addr(off uint64) mem.Addr {
	return arenaStart + mem.Addr(off%db.ringBytes)
}

// placeLocked is where the head puts a frame of n bytes: at the head,
// or at the next lap's start when the frame would cross the arena's
// end, or cross softEnd while the frame fits at the start. Wrapping at
// softEnd keeps the ring to what the window needs — as much of the
// arena as the two-half layout wrote, each half filled to the slowdown
// trigger — so the crash image, and the recovery that reads it, stay
// that size. Caller holds mu (or owns the head, as a pass does).
func (db *DB) placeLocked(n uint64) uint64 {
	p := db.head % db.ringBytes
	next := db.head - p + db.ringBytes
	if p+n > db.ringBytes || p+n > db.softEnd && next+n <= db.limitLocked() {
		return next
	}
	return db.head
}

// limitLocked is the logical offset the head must not write past: one
// lap beyond the tail, or beyond the oldest tail a snapshot pins.
// Caller holds mu.
func (db *DB) limitLocked() uint64 {
	oldest := db.tail
	for p := range db.pins {
		oldest = min(oldest, p)
	}
	return oldest + db.ringBytes
}

// usedLocked is the window's frame bytes. Caller holds mu.
func (db *DB) usedLocked() uint64 {
	return db.usedBefore(db.head)
}

// usedBefore is the frame bytes from the tail to logical offset end: the
// bytes between them less the wrap gaps there. Caller holds mu.
func (db *DB) usedBefore(end uint64) uint64 {
	n := end - db.tail
	for _, g := range db.gaps {
		if g < end {
			n -= db.ringBytes - g%db.ringBytes
		}
	}
	return n
}

// appended records the frame just written at logical offset at, data
// address addr: the next seq, a new window frame, its records in the
// index and the head past it. Caller holds mu (or owns the DB, as Open
// does).
func (db *DB) appended(at uint64, addr mem.Addr, payload []byte, recs []record) {
	if at != db.head {
		db.gaps = append(db.gaps, db.head)
	}
	db.seq++
	db.frames = append(db.frames, ringFrame{off: at})
	db.apply(addr+headerBytes, payload, recs)
	db.head = at + uint64(frameLines(len(payload)))*mem.LineSize
}

// The scan's pipeline shape. Frames move between stages in chunks of
// whole frames, at most scanChunk log lines (header and payload lines)
// unless one frame is longer, and each stage may run up to scanDepth
// chunks ahead of the next: deep enough that the read stage keeps
// reading through the index stage's pauses (a keymap resize rehashes
// every key at once), small enough that the queued lines stay near
// 1 MiB. The first chunk holds a sixteenth of scanChunk and each next
// one twice its predecessor, so a short log neither allocates nor waits
// for a full chunk.
const (
	scanChunk = 512
	scanDepth = 4
)

// scanShape is the chunk size and queue depth scan runs with. It is a
// variable only so the pipeline identity test can force both to 1.
var scanShape = struct{ chunk, depth int }{scanChunk, scanDepth}

// scanFrame is one frame whose header is valid and whose other lines
// the read stage fetched. The embedded header carries the payload bytes
// of the header line to the verify stage.
type scanFrame struct {
	frameHeader
	at   uint64   // logical offset of the header line
	addr mem.Addr // header line
	line int      // first line after the header in the chunk's lines
	off  int      // first payload byte in the chunk's payload
}

// scanBatch is a chunk of consecutive frames in log order.
type scanBatch struct {
	frames  []scanFrame
	lines   []store.Fetched // read stage: every frame's lines after its header
	payload []byte          // verify stage: every frame's opened payload
	sealed  int             // verify stage: frames[:sealed] passed their checksum
	err     error           // read stage: the error that ended the log after frames
}

// scan replays the committed frames from the tail into the index
// through a three-stage pipeline, every stage in log order:
//
//  1. read (the calling goroutine): a verified Store.Read of each frame
//     header line, whose plaintext locates the next frame, then a
//     Store.Fetch of the frame's other lines — the stateful engine work,
//     under the store's lock;
//  2. verify: open those lines with an Opener of its own (a failed HMAC
//     counts as the engine's integrity violation, as in Read), join the
//     payload bytes of the header line to theirs and check the payload
//     checksum;
//  3. index: decode each sealed frame and apply it to the keymap.
//
// The read stage walks the header chain to its end whatever the later
// stages find, so the engine work, and with it the store's clock and
// statistics, does not depend on how the stages interleave. The first
// event in log order decides: a frame failing its checksum ends the log
// there, a malformed sealed frame is refused by seq and address, and a
// read error counts only if no earlier frame ended the log.
func (db *DB) scan() error {
	shape := scanShape
	// The pool recycles chunk buffers: it can take every chunk alive at
	// once, up to depth in each queue plus one held by each stage.
	pool := make(chan *scanBatch, 2*shape.depth+3)
	get := func(lines int) *scanBatch {
		var b *scanBatch
		select {
		case b = <-pool:
		default:
			b = &scanBatch{}
		}
		b.lines = slices.Grow(b.lines, lines)
		return b
	}
	put := func(b *scanBatch) {
		b.frames, b.lines, b.payload, b.sealed, b.err = b.frames[:0], b.lines[:0], b.payload[:0], 0, nil
		select {
		case pool <- b:
		default:
		}
	}
	read := make(chan *scanBatch, shape.depth)
	sealed := make(chan *scanBatch, shape.depth)
	go db.verifyFrames(read, sealed, put)

	indexed := make(chan error)
	go func() { indexed <- db.indexFrames(sealed, put) }()
	db.readFrames(read, get, shape.chunk)
	return <-indexed
}

// readFrames is scan's read stage: it sends the header chain from the
// tail to the first line that is not the next frame's header, in chunks
// of up to chunk lines, then closes out. When that line is not the
// arena's first, the chain goes on at the arena's first line if that
// holds the next frame: the head wrapped there (placeLocked). A frame of an earlier lap fails the seq check
// wherever it lies, so the chain has one end however many laps the
// ring has run. A read error ends the chain; it rides on the last
// chunk, as does the refusal of a log whose first line is a header in
// the format of an earlier build (legacyFormat): every format writes a
// header there first, so no value can be mistaken for one.
func (db *DB) readFrames(out chan<- *scanBatch, get func(lines int) *scanBatch, chunk int) {
	defer close(out)
	// Only locals in the loop: the index stage updates the DB as frames
	// reach it.
	st, tail, end := db.st, db.tail, arenaStart+mem.Addr(db.ringBytes)
	lap := tail - tail%db.ringBytes + db.ringBytes // the first lap start past the tail
	limit := tail + db.ringBytes
	last, at, addr := db.seq, tail, db.addr(tail)
	size := max(1, chunk/16)
	b := get(size)
	for {
		hl, err := st.Read(addr)
		if err != nil {
			b.err = fmt.Errorf("kv: log scan read %#x: %w", uint64(addr), err)
			break
		}
		h, err := parseHeader(hl)
		if err != nil && at == tail {
			if f := legacyFormat(&hl); f != "" {
				b.err = fmt.Errorf("kv: log at %#x is in the %s frame format, which this build does not read", uint64(addr), f)
				break
			}
		}
		need := uint64(frameLines(h.n)) * mem.LineSize
		if err != nil || h.seq != last+1 || addr+mem.Addr(need) > end || at+need > limit {
			if addr == arenaStart || at >= lap {
				break
			}
			at, addr = lap, arenaStart
			continue
		}
		if len(b.frames) > 0 && len(b.frames)+len(b.lines)+frameLines(h.n) > size {
			out <- b
			size = min(2*size, chunk)
			b = get(size)
		}
		first := len(b.lines)
		if b.lines, err = st.Fetch(b.lines, addr+mem.LineSize, payloadLines(h.n)); err != nil {
			b.lines = b.lines[:first]
			b.err = fmt.Errorf("kv: log scan payload at %#x: %w", uint64(addr+mem.LineSize), err)
			break
		}
		b.frames = append(b.frames, scanFrame{frameHeader: h, at: at, addr: addr, line: first})
		last = h.seq
		if at, addr = at+need, addr+mem.Addr(need); addr == end {
			addr = arenaStart
		}
	}
	out <- b
}

// verifyFrames is scan's verify stage: it gathers each frame's payload
// from its header line and its opened lines and checks the payload
// checksum, marking the sealed prefix of every chunk. Chunks after the
// first failed checksum are dropped unopened: the log ended before
// them.
func (db *DB) verifyFrames(in <-chan *scanBatch, out chan<- *scanBatch, put func(*scanBatch)) {
	defer close(out)
	op := db.st.NewOpener()
	ended := false
	for b := range in {
		if ended {
			put(b)
			continue
		}
		b.payload = slices.Grow(b.payload, len(b.lines)*mem.LineSize+len(b.frames)*headLen)
		for i := range b.frames {
			f := &b.frames[i]
			f.off = len(b.payload)
			b.payload = append(b.payload, f.head[:min(headLen, f.n)]...)
			for j := range payloadLines(f.n) {
				pt, _ := op.Open(&b.lines[f.line+j])
				b.payload = append(b.payload, pt[:min(mem.LineSize, f.n-headLen-j*mem.LineSize)]...)
			}
			if mem.Checksum(b.payload[f.off:]) != f.ck {
				ended = true
				break
			}
			b.sealed = i + 1
		}
		out <- b
	}
}

// indexFrames is scan's index stage: it decodes every sealed frame and
// appends it to the window and the index in log order. Chunks after
// the log's end are drained unread.
func (db *DB) indexFrames(in <-chan *scanBatch, put func(*scanBatch)) error {
	var recs []record
	var err error
	done := false
	for b := range in {
		for i := 0; !done && i < b.sealed; i++ {
			f := &b.frames[i]
			payload := b.payload[f.off : f.off+f.n]
			// Both checksums passed, so the writer sealed these bytes: a
			// record that does not decode is corruption, not the log's
			// end, and stopping here would let the next Batch overwrite
			// every committed frame after it.
			var derr error
			if recs, derr = decodePayload(recs, payload, f.count); derr != nil {
				err = fmt.Errorf("kv: log frame seq %d at %#x is malformed: %w", f.seq, uint64(f.addr), derr)
				done = true
				break
			}
			db.appended(f.at, f.addr, payload, recs)
		}
		switch {
		case done:
		case b.sealed < len(b.frames): // a failed checksum ends the log
			done = true
		case b.err != nil:
			err, done = b.err, true
		}
		put(b)
	}
	return err
}

// repairManifest rewrites the torn manifest slot c names from the
// ruling record (or zeroes it when no commit ever ruled). Read-only
// media degradation is tolerated: the namespace still serves reads, and
// Choose rules the same way at the next reopen.
func (db *DB) repairManifest(manifest []byte, c twoslot.Choice) error {
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
	return nil
}

// apply folds one frame's records into the index, keeping the live
// bytes of the namespace and of each window frame that the pass's
// cleaning rule reads. The frame is the window's last, seq db.seq.
func (db *DB) apply(payloadStart mem.Addr, payload []byte, recs []record) {
	f := &db.frames[len(db.frames)-1]
	for i := range recs {
		r := &recs[i]
		key := r.key(payload)
		old, had := db.idx[string(key)]
		if had {
			n := uint32(recLen(len(key), int(old.n)))
			of := &db.frames[old.seq-db.tailSeq-1]
			of.live -= n
			of.recs--
			db.liveBytes -= uint64(n)
		}
		switch r.kind {
		case OpPut:
			n := uint32(recLen(len(key), int(r.valLen)))
			db.idx[string(key)] = valRef{seq: db.seq, payload: payloadStart, off: r.valOff, n: r.valLen}
			f.live += n
			f.recs++
			db.liveBytes += uint64(n)
		case OpDelete:
			delete(db.idx, string(key))
		}
	}
}

// valueLines is the most lines a value spans that readBytes reads into
// a buffer on its stack: a 1 KiB value at any offset.
const valueLines = 17

// readBytes reads one value, or a frame's whole payload, by ref, with
// one ReadLines of the lines it spans. The caller must hold rmu shared
// (or otherwise know the head cannot reach the ref's frame, as the
// compactor does for the window frames it is copying out of).
func (db *DB) readBytes(ref valRef) ([]byte, error) {
	if ref.n == 0 {
		return []byte{}, nil
	}
	pos := ref.payload + mem.Addr(ref.off)
	la := mem.Align(pos)
	off := int(pos - la)
	n := (off + int(ref.n) + mem.LineSize - 1) / mem.LineSize
	var stack [valueLines * mem.LineSize]byte
	buf := stack[:0]
	if n > valueLines {
		buf = make([]byte, 0, n*mem.LineSize)
	}
	lines, err := db.st.ReadLines(buf, la, n)
	if err != nil {
		return nil, err
	}
	// The value is copied out of its lines, so the line buffer stays on
	// the stack and the value's allocation is its own length, not its
	// lines' (they differ for an odd-length value, or one followed by an
	// odd-length value in its frame).
	return append(make([]byte, 0, ref.n), lines[off:off+int(ref.n)]...), nil
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

// Put maps key to val; a nil return means the put is durable.
func (db *DB) Put(key, val []byte) error {
	return db.Batch([]Op{{Kind: OpPut, Key: key, Val: val}})
}

// Delete removes key; a nil return means the delete is durable.
func (db *DB) Delete(key []byte) error {
	return db.Batch([]Op{{Kind: OpDelete, Key: key}})
}

// Batch applies ops atomically: after a crash at any point, recovery
// sees either every op or none. Batch acknowledges at the store's
// persist point: a store write is durable when Store.Write returns, so
// once the frame's header line is accepted the batch survives any
// later crash, and a nil return means exactly that. No epoch is closed
// for it; the design's own triggers close epochs, and recovery
// re-derives the counters an open epoch left behind.
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
			db.stall.BackpressureWaits++
			t0 := time.Now()
			for db.compacting && !db.closed {
				db.ccond.Wait()
			}
			db.stall.StallNanos += int64(time.Since(t0))
			continue
		}
		if db.st.Health() == store.HealthReadOnly {
			db.stall.ReadOnlyStops++
			db.mu.Unlock()
			return fmt.Errorf("kv: write refused: %w", store.ErrReadOnly)
		}
		used := db.usedLocked()
		overStop := used+need > db.stall.StopAt
		throttled := !overStop && used >= db.stall.SlowdownAt
		if throttled {
			delay = db.throttle
			db.stall.Slowdowns++
		}
		// Throttled rung: a worthwhile pass runs before the delayed
		// admission so the log drains back to healthy. Past the stop
		// trigger a pass is the only way forward.
		if (overStop || throttled) && !triedCompact {
			if k, ok := db.cleanRunLocked(need, overStop); ok {
				triedCompact = true
				if cerr := db.compactLocked(k); cerr != nil && !errors.Is(cerr, ErrCompactPinned) {
					db.mu.Unlock()
					return fmt.Errorf("kv: compaction before admission: %w", cerr)
				}
				continue
			}
		}
		// Tombstone headroom: deletes shrink the live set, so they are
		// admitted past the stop trigger while lines remain — otherwise
		// a full namespace could never free itself.
		if !overStop || deleteOnly && used+need <= db.halfBytes {
			break
		}
		db.stall.CapacityStops++
		db.mu.Unlock()
		return fmt.Errorf("%w: %d used + %d needed > %d stop trigger and compaction cannot free enough",
			ErrLogFull, used, need, db.stall.StopAt)
	}

	at := db.placeLocked(need)
	if at+need > db.limitLocked() {
		db.stall.CapacityStops++
		db.mu.Unlock()
		return fmt.Errorf("%w: open snapshots pin the ring space a %d-byte frame needs", ErrLogFull, need)
	}
	addr := db.addr(at)
	if werr := db.writeFrame("batch", addr, frameHeader{seq: db.seq + 1, count: len(ops)}, payload); werr != nil {
		db.mu.Unlock()
		return werr
	}
	db.appended(at, addr, payload, recs)
	db.batches++
	db.opCount += uint64(len(ops))
	db.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	return nil
}

// writeFrame writes one sealed frame at header with one WriteLines:
// the lines after the header from the highest address down, then the
// header line, so a crash before the header write leaves no valid frame
// and the frame is all-or-nothing. The order is top-down and contiguous
// so the request visits each data-HMAC line the frame covers in one
// stretch: the store's one-line HMAC buffer then reads each from the
// device once. h gives the seq and op count; writeFrame fills in
// the payload's length, checksum and the head the header line carries.
// Batch and the compactor both write through it; who names the writer
// in errors.
func (db *DB) writeFrame(who string, header mem.Addr, h frameHeader, payload []byte) error {
	ws := db.frame[:0]
	for i := frameLines(len(payload)) - 1; i > 0; i-- {
		w := store.LineWrite{Addr: header + mem.Addr(i*mem.LineSize)}
		copy(w.Line[:], payload[i*mem.LineSize-headerBytes:])
		ws = append(ws, w)
	}
	h.n, h.ck = len(payload), mem.Checksum(payload)
	copy(h.head[:], payload)
	ws = append(ws, store.LineWrite{Addr: header, Line: h.encode()})
	db.frame = ws
	switch n, err := db.st.WriteLines(ws); {
	case err == nil:
		return nil
	case n < len(ws)-1:
		return fmt.Errorf("kv: %s payload write: %w", who, err)
	default:
		return fmt.Errorf("kv: %s commit write: %w", who, err)
	}
}

// Flush closes the store's open epoch, persisting the security
// metadata of everything appended so far. Acknowledged batches are
// durable without it; Close and the flush and quit verbs call it.
func (db *DB) Flush() error {
	db.mu.Lock()
	seq := db.seq
	db.mu.Unlock()
	if seq == 0 {
		return nil
	}
	return db.st.FlushEpoch()
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
	if db.gen > 0 || db.compactions > 0 {
		s.Compaction = &CompactionStats{
			Generation: db.gen,
			TailOffset: db.tail % db.ringBytes,
			Passes:     db.compactions,
			FreedBytes: db.compactFreed,
			LiveBytes:  db.liveBytes,
		}
	}
	s.Stall = db.stall
	s.Stall.Stops = db.stall.CapacityStops + db.stall.ReadOnlyStops
	db.mu.Unlock()
	return s
}

// ladderLocked names the current degradation rung. Caller holds mu.
func (db *DB) ladderLocked() string {
	switch {
	case db.st.Health() == store.HealthReadOnly:
		return LadderReadOnly
	case db.compacting:
		return LadderBackpressure
	case db.usedLocked() >= db.stall.SlowdownAt:
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
	return db.st.Crash()
}

// Close closes the store's open epoch (Flush) and marks the DB closed.
// The caller still owns the store's lifecycle.
func (db *DB) Close() error {
	err := db.Flush()
	db.mu.Lock()
	db.closed = true
	db.ccond.Broadcast()
	db.mu.Unlock()
	return err
}
