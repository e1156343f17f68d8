package kv

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"ccnvm/internal/mem"
)

// ErrCompactPinned reports a pass refused because open snapshots pin
// the ring space its copies would need. Release the snapshots and
// retry.
var ErrCompactPinned = errors.New("kv: compaction blocked: open snapshots pin the space its copies need")

// Copied-record frame shape: a pass packs the records it copies into
// full frames instead of one frame per original batch.
const (
	compactFrameOps   = 64       // max records per copy frame
	compactMaxPayload = 16 << 10 // max payload bytes per copy frame
)

// CompactionStats reports the compactor's lifetime counters. Nil in
// Stats until the namespace has compacted, so faultless stats JSON is
// unchanged. TailOffset is the tail's byte offset into the arena.
// ReclaimedLines always reads 0: no pass zeroes what it frees (the seq
// check ends the log instead), and the field stays only because the
// repo benchmark reads it.
type CompactionStats struct {
	Generation     uint64 `json:"generation"`
	TailOffset     uint64 `json:"tail_offset"`
	Passes         uint64 `json:"passes,omitzero"`
	FreedBytes     uint64 `json:"freed_bytes,omitzero"`
	ReclaimedLines uint64 `json:"reclaimed_lines,omitzero"`
	LiveBytes      uint64 `json:"live_bytes,omitzero"`
}

// estCopies is a conservative upper bound on the log bytes that recs
// records of live recLen bytes take once a pass has copied them: the
// record bytes plus, per copy frame, its header bytes and worst-case
// padding (under two lines).
func estCopies(live, recs uint64) uint64 {
	if recs == 0 {
		return 0
	}
	frames := max((recs+compactFrameOps-1)/compactFrameOps, live/compactMaxPayload+1)
	return live + frames*(2*mem.LineSize-1)
}

// cleanRunLocked is the cleaning rule: the shortest run of the
// window's oldest frames whose pass gains at least a quarter of the
// used log (so an all-live namespace does not thrash in compaction
// storms) and, for a write of need bytes already past the stop
// trigger, enough that the write is admitted after it. A pass's gain is
// the run's frame bytes less its records' copies. ok is false when no run qualifies. Caller holds mu.
func (db *DB) cleanRunLocked(need uint64, overStop bool) (k int, ok bool) {
	used := db.usedLocked()
	floor := max(used/4, 4*mem.LineSize)
	if overStop {
		floor = max(floor, used+need-db.stall.StopAt)
	}
	var live, recs uint64
	for i, f := range db.frames {
		live += uint64(f.live)
		recs += uint64(f.recs)
		end := db.head
		if i+1 < len(db.frames) {
			end = db.frames[i+1].off
		}
		if db.usedBefore(end) >= estCopies(live, recs)+floor {
			return i + 1, true
		}
	}
	return 0, false
}

// Compact runs one pass over the whole log unconditionally (the admin
// verb; admission-triggered passes apply the cleaning rule first):
// append every live record at the head as fresh header-last sealed
// frames and commit the head as the new tail with one manifest slot
// write. If a pass is already running, Compact waits for it and
// returns. ErrCompactPinned reports that open snapshots pin the space
// the copies need.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrDBClosed
	}
	if db.compacting {
		for db.compacting && !db.closed {
			db.ccond.Wait()
		}
		return nil
	}
	return db.compactLocked(len(db.frames))
}

// noRoomLocked is the error of a pass whose next n bytes of copies do
// not fit below the head's limit. Caller holds mu.
func (db *DB) noRoomLocked(n uint64) error {
	if len(db.pins) > 0 {
		return ErrCompactPinned
	}
	return fmt.Errorf("kv: %d more bytes of copies overflow the ring", n)
}

// liveRec is one record a pass copies: its key and where its value is.
type liveRec struct {
	key string
	ref valRef
}

// compactLocked runs one pass over the window's oldest k frames: it
// appends their indexed records at the head, in log order, as ordinary
// frames with the next seqs, then commits the first frame after the
// run as the tail. Called with mu held and compaction idle; returns
// with mu held. The pass owns the backpressure rung: writers arriving
// while it runs queue on ccond, so nothing but the pass appends. A
// crash before the tail commit leaves the old tail and the copies as
// newer duplicates of the values they copy; a crash after it, the new
// tail. Either way the log from the ruling tail holds every live
// record, and no frame a snapshot pins is overwritten: the copies go
// only to space below the head's limit.
func (db *DB) compactLocked(k int) error {
	last := db.tailSeq + uint64(k)
	var live []liveRec
	var liveBytes, recs uint64
	for _, f := range db.frames[:k] {
		liveBytes += uint64(f.live)
		recs += uint64(f.recs)
	}
	if est := estCopies(liveBytes, recs); db.head+est > db.limitLocked() {
		return db.noRoomLocked(est)
	}
	for key, ref := range db.idx {
		if ref.seq <= last {
			live = append(live, liveRec{key, ref})
		}
	}
	slices.SortFunc(live, func(a, b liveRec) int {
		return cmp.Or(cmp.Compare(a.ref.seq, b.ref.seq), cmp.Compare(a.ref.off, b.ref.off))
	})
	db.compacting = true
	usedAtStart := db.usedLocked()
	db.mu.Unlock()

	fail := func(err error) error {
		db.mu.Lock()
		db.compacting = false
		db.ccond.Broadcast()
		return err
	}

	// Copy phase: pack the run's live records into frames at the head.
	// Values are read without rmu: they lie inside the window, which
	// the head does not reach. Each frame is applied once written, so a
	// failed pass leaves a consistent log whose copies duplicate values.
	for i := 0; i < len(live); {
		ops := make([]Op, 0, compactFrameOps)
		recordBytes := 0
		for i < len(live) && len(ops) < compactFrameOps && payloadSize(recordBytes) < compactMaxPayload {
			val, err := db.readBytes(live[i].ref)
			if err != nil {
				return fail(fmt.Errorf("kv: compaction read %q: %w", live[i].key, err))
			}
			ops = append(ops, Op{Kind: OpPut, Key: []byte(live[i].key), Val: val})
			recordBytes += recLen(len(live[i].key), len(val))
			i++
		}
		payload, recs, err := encodePayload(ops)
		if err != nil {
			return fail(fmt.Errorf("kv: compaction encode: %w", err))
		}
		need := uint64(frameLines(len(payload))) * mem.LineSize
		db.mu.Lock()
		at := db.placeLocked(need)
		if at+need > db.limitLocked() {
			err := db.noRoomLocked(at + need - db.head)
			db.mu.Unlock()
			return fail(err)
		}
		db.mu.Unlock()
		addr := db.addr(at)
		if werr := db.writeFrame("compaction", addr, frameHeader{seq: db.seq + 1, count: len(ops)}, payload); werr != nil {
			return fail(werr)
		}
		db.mu.Lock()
		db.appended(at, addr, payload, recs)
		db.mu.Unlock()
	}
	if db.testHookMidCopy != nil {
		db.testHookMidCopy()
	}

	// Commit phase: one checksummed slot write moves the tail past the
	// run. A store write is durable once accepted, so the copies are
	// durable before the manifest drops what they copy.
	db.mu.Lock()
	tail := db.head
	if k < len(db.frames) {
		tail = db.frames[k].off
	}
	dead := !slices.ContainsFunc(db.frames[:k], func(f ringFrame) bool { return f.recs > 0 })
	db.mu.Unlock()
	if !dead {
		return fail(errors.New("kv: a record of the cleaned run is still indexed after its copy"))
	}
	rec := manifestRecord{Seq: db.gen + 1, Tail: db.addr(tail), TailSeq: last}
	if err := db.st.Write(mem.Addr(ManifestFormat.Off(rec.Seq)), encodeManifest(rec)); err != nil {
		return fail(fmt.Errorf("kv: manifest commit write: %w", err))
	}

	db.mu.Lock()
	db.frames = db.frames[k:]
	db.gaps = slices.DeleteFunc(db.gaps, func(g uint64) bool { return g < tail })
	db.tail, db.tailSeq, db.gen = tail, last, rec.Seq
	db.compactions++
	db.compactCopied += uint64(len(live))
	if used := db.usedLocked(); usedAtStart > used {
		db.compactFreed += usedAtStart - used
	}
	db.mu.Unlock()

	// Barrier: a reader still reading the run with a ref it looked up
	// before the copies replaced it finishes before any writer, queued
	// until compacting clears, can move the head toward the run's space.
	db.rmu.Lock()
	db.rmu.Unlock()

	db.mu.Lock()
	db.compacting = false
	db.ccond.Broadcast()
	return nil
}
