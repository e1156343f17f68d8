package kv

import (
	"errors"
	"fmt"
	"sort"

	"ccnvm/internal/mem"
)

// ErrCompactPinned reports a pass refused because open snapshots still
// pin the retired half the pass would overwrite. Release the snapshots
// and retry.
var ErrCompactPinned = errors.New("kv: compaction blocked: open snapshots pin the retired half")

// Compacted-run frame shape: live records are packed into full frames
// instead of one frame per original batch, which is where compaction's
// space win beyond garbage collection comes from.
const (
	compactFrameOps   = 64       // max records per compacted frame
	compactMaxPayload = 16 << 10 // max payload bytes per compacted frame
)

// CompactionStats reports the compactor's lifetime counters. Nil in
// Stats until the namespace has compacted, so faultless stats JSON is
// unchanged. ReclaimedLines always reads 0: a pass no longer zeroes
// the half it retires (frame tags end the log instead), and the field
// stays only because the repo benchmark reads it.
type CompactionStats struct {
	Generation     uint64 `json:"generation"`
	ActiveHalf     int    `json:"active_half"`
	Passes         uint64 `json:"passes,omitzero"`
	FreedBytes     uint64 `json:"freed_bytes,omitzero"`
	ReclaimedLines uint64 `json:"reclaimed_lines,omitzero"`
	LiveBytes      uint64 `json:"live_bytes,omitzero"`
}

// estCompactedLocked is a conservative upper bound on the log bytes the
// live set would occupy after a pass: the live record bytes plus one
// header line and worst-case padding per compacted frame. Caller holds
// mu.
func (db *DB) estCompactedLocked() uint64 {
	recs := len(db.idx)
	if recs == 0 {
		return 0
	}
	frames := (recs + compactFrameOps - 1) / compactFrameOps
	if byPayload := int(db.liveBytes/compactMaxPayload) + 1; byPayload > frames {
		frames = byPayload
	}
	return db.liveBytes + uint64(frames)*(2*mem.LineSize-1)
}

// worthCompactingLocked is the gain floor: run a pass only when it
// frees at least a quarter of the used log (so an all-live namespace
// does not thrash in compaction storms) and, for a write already past
// the stop trigger, only when the compacted layout actually admits it.
// Caller holds mu.
func (db *DB) worthCompactingLocked(need uint64, overStop bool) bool {
	if db.pins[1-db.active] > 0 {
		return false
	}
	used := db.usedLocked()
	est := db.estCompactedLocked()
	if overStop && est+need > db.stall.StopAt {
		return false
	}
	return used > est && used-est >= used/4 && used-est >= 4*mem.LineSize
}

// Compact runs one garbage-collection pass unconditionally (the admin
// verb; admission-triggered passes apply the gain floor first): rewrite
// the live set into the inactive half as fresh header-last sealed
// frames, commit the relocation with one manifest slot write and switch
// the in-memory keymap. The retired half is left as it is: its frames
// carry the old layout's tag, so no scan indexes them. If a pass is
// already running, Compact waits for it and returns. Open snapshots
// pinning the inactive half refuse the pass with ErrCompactPinned.
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
	if db.pins[1-db.active] > 0 {
		return ErrCompactPinned
	}
	return db.compactLocked()
}

// compactLocked runs one pass. Called with mu held and compaction idle;
// returns with mu held. The pass owns the backpressure rung: writers
// arriving while it runs queue on ccond, so the frame sequence cannot
// advance under it — which is what makes a crash at any host-write
// boundary leave either the old layout or the committed new one.
func (db *DB) compactLocked() error {
	db.compacting = true
	dst := 1 - db.active
	tag := frameTag{gen: db.gen + 1, startSeq: db.seq}
	usedBefore := db.usedLocked()
	keys := make([]string, 0, len(db.idx))
	for k := range db.idx {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	refs := make([]valRef, len(keys))
	for i, k := range keys {
		refs[i] = db.idx[k]
	}
	db.mu.Unlock()

	// Barrier: a reader still reading the destination half — with a ref
	// it looked up before the last pass switched, or through a snapshot
	// released mid-read — finishes before the run overwrites it. Readers
	// arriving later find refs into the active half only.
	db.rmu.Lock()
	db.rmu.Unlock()

	fail := func(err error) error {
		db.mu.Lock()
		db.compacting = false
		db.ccond.Broadcast()
		return err
	}

	// Copy phase: pack the live set into fresh sealed frames in the
	// destination half, in sorted key order so a pass is deterministic
	// for the crash-sweep harness. The frames carry the tag of the layout
	// the pass commits, so whatever the half held before — a retired
	// log, an orphan run of a pass that failed with another startSeq —
	// ends the log behind the run. Values are read without rmu: they
	// live in the active half, which no pass writes while this one runs.
	newIdx := make(map[string]valRef, len(keys))
	dstStart := db.halfStart(dst)
	w := dstStart
	seq := tag.startSeq
	for i := 0; i < len(keys); {
		ops := make([]Op, 0, compactFrameOps)
		payloadBytes := 0
		for i < len(keys) && len(ops) < compactFrameOps && payloadBytes < compactMaxPayload {
			val, err := db.readBytes(refs[i])
			if err != nil {
				return fail(fmt.Errorf("kv: compaction read %q: %w", keys[i], err))
			}
			ops = append(ops, Op{Kind: OpPut, Key: []byte(keys[i]), Val: val})
			payloadBytes += recHeadBytes + len(keys[i]) + len(val)
			i++
		}
		payload, recs, err := encodePayload(ops)
		if err != nil {
			return fail(fmt.Errorf("kv: compaction encode: %w", err))
		}
		need := mem.Addr(frameLines(len(payload))) * mem.LineSize
		if uint64(w-dstStart)+uint64(need) > db.halfBytes {
			return fail(fmt.Errorf("kv: compacted run overflows the %d-byte half", db.halfBytes))
		}
		if werr := db.writeFrame("compaction", w, frameHeader{seq: seq + 1, count: len(ops), tag: tag}, payload); werr != nil {
			return fail(werr)
		}
		seq++
		for _, r := range recs {
			newIdx[string(r.key)] = valRef{payload: w + mem.LineSize, off: r.valOff, n: r.valLen}
		}
		w += need
	}
	if db.testHookMidCopy != nil {
		db.testHookMidCopy()
	}

	// Commit phase: one checksummed slot write switches the layout. A
	// store write is durable once accepted, so the run is durable before
	// the manifest can point at it. Before this write the run is an
	// invisible orphan; after it the old half is.
	rec := manifestRecord{Seq: tag.gen, StartSeq: tag.startSeq, Half: dst}
	if err := db.st.Write(mem.Addr(ManifestFormat.Off(rec.Seq)), encodeManifest(rec)); err != nil {
		return fail(fmt.Errorf("kv: manifest commit write: %w", err))
	}

	// Switch phase: the keymap flips to the compacted refs atomically
	// under mu. Writers are still queued, so seq cannot have moved.
	db.mu.Lock()
	if db.seq != tag.startSeq {
		db.mu.Unlock()
		return fail(fmt.Errorf("kv: frame seq advanced from %d to %d during a pass", tag.startSeq, db.seq))
	}
	db.idx = newIdx
	db.seq = seq
	db.head = w
	db.active = dst
	db.gen = tag.gen
	db.startSeq = tag.startSeq
	db.compactions++
	if newUsed := uint64(w - dstStart); usedBefore > newUsed {
		db.compactFreed += usedBefore - newUsed
	}
	db.compacting = false
	db.ccond.Broadcast()
	return nil
}
