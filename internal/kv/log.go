// Package kv is a secure log-structured key-value namespace over the
// storage-engine facade. All persistent state lives in the facade's
// data region as an append-only frame log; the in-memory keymap is a
// pure cache rebuilt by scanning the log at Open, so a crash at any
// host-write boundary recovers to exactly the prefix of committed
// frames.
//
// Atomicity comes from frame layout, not locking: a batch's payload
// lines are written first and its header line last, and the header
// carries checksums over both itself and the payload. A crash anywhere
// before the header write leaves an orphan payload with no valid
// header — invisible to the recovery scan — while a torn or
// half-serviced header fails its checksum. Either way the namespace
// exposes all of the batch or none of it. Durability of an
// acknowledged batch comes from the facade's persist point: a store
// write is durable when Store.Write returns, so the DB acks a batch
// once its header line is accepted, without closing an epoch.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"ccnvm/internal/mem"
)

// OpKind discriminates log records.
type OpKind uint8

const (
	// OpPut maps a key to a value.
	OpPut OpKind = 1
	// OpDelete removes a key.
	OpDelete OpKind = 2
)

// Op is one mutation in a batch.
type Op struct {
	Kind OpKind
	Key  []byte
	Val  []byte
}

// Frame header line layout (one mem.Line):
//
//	[0:8)   magic "CKVBATCH"
//	[8:16)  seq   — 1-based, strictly sequential; a gap ends the log
//	[16:20) count — ops in the frame
//	[20:24) payloadBytes — whole lines (see encodePayload)
//	[24:32) mem.Checksum (CRC-32C) over the payload bytes
//	[32:40) mem.Checksum over header bytes [0:32) and [40:56)
//	[40:48) tag.gen      — manifest generation of the frame's layout
//	[48:56) tag.startSeq — startSeq of the frame's layout
//	[56:64) zero
//
// The tag is what lets an arena half be reused without zeroing it: a
// frame written under another layout (a retired log, an orphan run of a
// pass that never committed) ends the log like a seq gap does.
const (
	frameMagic   = "CKVBATCH"
	maxKeyLen    = 1 << 16
	maxValLen    = 1 << 24
	recHeadBytes = 1 + 4 + 4 // kind + keyLen + valLen
)

// errFrameEnd distinguishes "no more frames" from a malformed record
// inside a checksummed frame (which is a corruption bug, not an end).
var errFrameEnd = errors.New("kv: end of log")

// record is one log record plus the byte range its value occupies
// inside the frame payload (for the index's value refs).
type record struct {
	kind   OpKind
	key    []byte // aliases the payload
	valOff int    // value offset within the payload
	valLen int
}

// encodePayload serializes ops into one frame payload of
// payloadSize(T+V) bytes, for a record table of T bytes and V value
// bytes:
//
//	[0:T)    record table — per op in order: kind(1), keyLen(4),
//	         valLen(4), key
//	[T:n-V)  zero pad
//	[n-V:n)  the values, back to back in op order
//
// The last value ends on the payload's last byte, so a value starts on
// a line boundary whenever it and the values after it are whole lines
// long, and a get of it reads only its own lines. The payload covers
// as many lines as the T+V bytes would packed, so the layout adds no
// line to any frame. It also returns the records as decodePayload
// would read them back, so a writer can index the frame it just built
// without parsing it again.
func encodePayload(ops []Op) ([]byte, []record, error) {
	var table, vals int
	for _, op := range ops {
		if op.Kind != OpPut && op.Kind != OpDelete {
			return nil, nil, fmt.Errorf("kv: bad op kind %d", op.Kind)
		}
		if len(op.Key) == 0 || len(op.Key) > maxKeyLen {
			return nil, nil, fmt.Errorf("kv: key length %d out of range [1,%d]", len(op.Key), maxKeyLen)
		}
		if len(op.Val) > maxValLen {
			return nil, nil, fmt.Errorf("kv: value length %d exceeds %d", len(op.Val), maxValLen)
		}
		if op.Kind == OpDelete && len(op.Val) != 0 {
			return nil, nil, errors.New("kv: delete op carries a value")
		}
		table += recHeadBytes + len(op.Key)
		vals += len(op.Val)
	}
	buf := make([]byte, payloadSize(table+vals))
	recs := make([]record, len(ops))
	off, voff := 0, len(buf)-vals
	for i, op := range ops {
		buf[off] = byte(op.Kind)
		binary.LittleEndian.PutUint32(buf[off+1:], uint32(len(op.Key)))
		binary.LittleEndian.PutUint32(buf[off+5:], uint32(len(op.Val)))
		off += recHeadBytes
		recs[i] = record{kind: op.Kind, key: buf[off : off+len(op.Key)], valOff: voff, valLen: len(op.Val)}
		off += copy(buf[off:], op.Key)
		voff += copy(buf[voff:], op.Val)
	}
	return buf, recs, nil
}

// decodePayload walks count records out of a checksummed payload into
// recs[:0], growing it as needed. The seal has no key, so count is only
// a claim: the capacity is bounded by the records the payload can hold
// (each at least recHeadBytes plus a one-byte key). Only the canonical
// encoding decodes — exact length, all-zero pad — so an accepted
// payload re-encodes byte for byte.
func decodePayload(recs []record, payload []byte, count int) ([]record, error) {
	recs = slices.Grow(recs[:0], min(count, len(payload)/(recHeadBytes+1)))
	off, vals := 0, 0
	for i := 0; i < count; i++ {
		if off+recHeadBytes > len(payload) {
			return nil, fmt.Errorf("kv: record %d header past payload end", i)
		}
		kind := OpKind(payload[off])
		kl := int(binary.LittleEndian.Uint32(payload[off+1:]))
		vl := int(binary.LittleEndian.Uint32(payload[off+5:]))
		off += recHeadBytes
		if kind != OpPut && kind != OpDelete {
			return nil, fmt.Errorf("kv: record %d bad kind %d", i, kind)
		}
		if kind == OpDelete && vl != 0 {
			return nil, fmt.Errorf("kv: record %d is a delete carrying a value", i)
		}
		if kl <= 0 || kl > maxKeyLen || vl < 0 || vl > maxValLen || off+kl+vals+vl > len(payload) {
			return nil, fmt.Errorf("kv: record %d lengths (%d,%d) past payload end", i, kl, vl)
		}
		// valOff is relative to the value region until its start is known.
		recs = append(recs, record{kind: kind, key: payload[off : off+kl], valOff: vals, valLen: vl})
		off += kl
		vals += vl
	}
	if want := payloadSize(off + vals); len(payload) != want {
		return nil, fmt.Errorf("kv: payload is %d bytes, want %d for a %d-byte record table and %d value bytes", len(payload), want, off, vals)
	}
	start := len(payload) - vals
	if i := slices.IndexFunc(payload[off:start], func(b byte) bool { return b != 0 }); i >= 0 {
		return nil, fmt.Errorf("kv: non-zero pad byte at payload offset %d", off+i)
	}
	for i := range recs {
		recs[i].valOff += start
	}
	return recs, nil
}

// frameTag names the layout a frame was written under: the manifest
// generation and the startSeq of that layout. A batch carries the open
// layout's tag, a compacted run the layout its pass commits. Both are
// needed: an orphan run of a failed or crashed pass carries the
// generation the next committed pass will, and only startSeq tells the
// two apart. Passes are deterministic, so equal startSeq means an
// identical run.
type frameTag struct {
	gen, startSeq uint64
}

// frameHeader is one decoded frame header.
type frameHeader struct {
	seq   uint64
	count int    // ops in the frame
	n     int    // payload bytes
	ck    uint64 // payload checksum
	tag   frameTag
}

// encode builds the sealed header line.
func (h frameHeader) encode() mem.Line {
	var l mem.Line
	copy(l[0:8], frameMagic)
	binary.LittleEndian.PutUint64(l[8:16], h.seq)
	binary.LittleEndian.PutUint32(l[16:20], uint32(h.count))
	binary.LittleEndian.PutUint32(l[20:24], uint32(h.n))
	binary.LittleEndian.PutUint64(l[40:48], h.tag.gen)
	binary.LittleEndian.PutUint64(l[48:56], h.tag.startSeq)
	sealHeader(&l, h.ck)
	return l
}

// sealHeader writes the payload checksum and the header seal.
func sealHeader(l *mem.Line, payloadCk uint64) {
	binary.LittleEndian.PutUint64(l[24:32], payloadCk)
	binary.LittleEndian.PutUint64(l[32:40], headerSeal(l))
}

// headerSeal is the checksum over the sealed header bytes, [0:32) and
// [40:56).
func headerSeal(l *mem.Line) uint64 {
	return mem.ChecksumUpdate(mem.Checksum(l[0:32]), l[40:56])
}

// parseHeader validates a header line. errFrameEnd means "not a frame"
// — the normal end of the scan.
func parseHeader(l mem.Line) (frameHeader, error) {
	if string(l[0:8]) != frameMagic || binary.LittleEndian.Uint64(l[32:40]) != headerSeal(&l) {
		return frameHeader{}, errFrameEnd
	}
	h := frameHeader{
		seq:   binary.LittleEndian.Uint64(l[8:16]),
		count: int(binary.LittleEndian.Uint32(l[16:20])),
		n:     int(binary.LittleEndian.Uint32(l[20:24])),
		ck:    binary.LittleEndian.Uint64(l[24:32]),
		tag:   frameTag{binary.LittleEndian.Uint64(l[40:48]), binary.LittleEndian.Uint64(l[48:56])},
	}
	if h.seq == 0 || h.count <= 0 || h.n <= 0 {
		return frameHeader{}, errFrameEnd
	}
	return h, nil
}

// payloadLines is the line count covering n payload bytes.
func payloadLines(n int) int {
	return (n + mem.LineSize - 1) / mem.LineSize
}

// payloadSize is the payload length of a frame whose record table and
// values come to n bytes: n rounded up to whole lines.
func payloadSize(n int) int {
	return payloadLines(n) * mem.LineSize
}

// frameLines is the full frame footprint: header plus payload.
func frameLines(payloadBytes int) int {
	return 1 + payloadLines(payloadBytes)
}
