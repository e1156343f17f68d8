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

// A frame is one byte string laid over whole lines, starting with its
// header line:
//
//	[0:4)   magic "CKVF"
//	[4:12)  seq   — 1-based, strictly sequential; a gap ends the log
//	[12:16) count — ops in the frame
//	[16:20) payloadBytes — the frame's lines less the header fields
//	[20:24) mem.Checksum (CRC-32C) over the payload bytes
//	[24:28) header seal: mem.Checksum over [0:24) and [28:44)
//	[28:36) tag.gen      — manifest generation of the frame's layout
//	[36:44) tag.startSeq — startSeq of the frame's layout
//	[44:)   the payload (see encodePayload): its first headLen bytes in
//	        the header line, the rest in the lines after it
//
// The tag is what lets an arena half be reused without zeroing it: a
// frame written under another layout (a retired log, an orphan run of a
// pass that never committed) ends the log like a seq gap does. Seq and
// tag are stored, not folded into the seal, so the scan compares them
// exactly.
const (
	frameMagic  = "CKVF"
	headerBytes = 44
	headLen     = mem.LineSize - headerBytes // payload bytes in the header line
	maxKeyLen   = 1 << 16
	maxValLen   = 1 << 24
	// maxFrameBytes bounds a payload, so its byte offsets fit a
	// record's int32 fields, the header's 32-bit payload length and an
	// int on any platform.
	maxFrameBytes = 1 << 30
	// minRecBytes is the shortest record: kind, two one-byte lengths and
	// a one-byte key.
	minRecBytes = 4
)

// The frame format before the header shrank to headerBytes: magic
// "CKVBATCH" in [0:8), a whole header line, and 9-byte record heads.
// Open refuses a log that starts with such a header instead of reading
// it as empty.
const legacyFrameMagic = "CKVBATCH"

// legacyHeader reports whether l is a sealed frame header of the
// legacy format: its magic and its seal at [32:40) over [0:32) and
// [40:56).
func legacyHeader(l *mem.Line) bool {
	return string(l[0:8]) == legacyFrameMagic &&
		binary.LittleEndian.Uint64(l[32:40]) == mem.ChecksumUpdate(mem.Checksum(l[0:32]), l[40:56])
}

// errFrameEnd distinguishes "no more frames" from a malformed record
// inside a checksummed frame (which is a corruption bug, not an end).
var errFrameEnd = errors.New("kv: end of log")

// record is one log record as byte ranges of its frame payload: its
// key, and its value (for the index's value refs). Offsets rather than a
// key slice keep a record at 20 bytes, so decoding a payload of
// minimum-length records allocates 5 bytes per payload byte.
type record struct {
	kind           OpKind
	keyOff, keyLen int32
	valOff, valLen int32
}

// key is the record's key inside payload.
func (r *record) key(payload []byte) []byte {
	return payload[r.keyOff : r.keyOff+r.keyLen]
}

// recLen is the encoded length of a record with the given key and value
// lengths: its kind byte, both lengths as uvarints, the key and the
// value.
func recLen(keyLen, valLen int) int {
	return 1 + uvarintLen(uint64(keyLen)) + uvarintLen(uint64(valLen)) + keyLen + valLen
}

// uvarintLen is the length of v's minimal uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// encodePayload serializes ops into one frame payload of
// payloadSize(T+V) bytes, for a record table of T bytes and V value
// bytes:
//
//	[0:T)    record table — per op in order: kind(1), keyLen and valLen
//	         as minimal uvarints, key
//	[T:n-V)  zero pad
//	[n-V:n)  the values, back to back in op order
//
// The payload fills its frame's lines after the header fields, so the
// last value ends on the frame's last byte: a value starts on a line
// boundary whenever it and the values after it are whole lines long,
// and a get of it reads only its own lines. The frame covers as many
// lines as its header and the T+V bytes would packed, so the layout
// adds no line to any frame. It also returns the records as
// decodePayload would read them back, so a writer can index the frame
// it just built without parsing it again.
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
		table += recLen(len(op.Key), len(op.Val)) - len(op.Val)
		vals += len(op.Val)
		if table+vals > maxFrameBytes {
			return nil, nil, fmt.Errorf("kv: batch exceeds the %d-byte frame limit", maxFrameBytes)
		}
	}
	buf := make([]byte, payloadSize(table+vals))
	recs := make([]record, len(ops))
	off, voff := 0, len(buf)-vals
	for i, op := range ops {
		buf[off] = byte(op.Kind)
		off++
		off += binary.PutUvarint(buf[off:], uint64(len(op.Key)))
		off += binary.PutUvarint(buf[off:], uint64(len(op.Val)))
		recs[i] = record{kind: op.Kind, keyOff: int32(off), keyLen: int32(len(op.Key)), valOff: int32(voff), valLen: int32(len(op.Val))}
		off += copy(buf[off:], op.Key)
		voff += copy(buf[voff:], op.Val)
	}
	return buf, recs, nil
}

// uvarint reads the length field of record rec at payload offset off,
// returning it and the offset after it. Only a minimal encoding reads.
func uvarint(payload []byte, off, rec int) (uint64, int, error) {
	v, n := binary.Uvarint(payload[off:])
	switch {
	case n == 0:
		return 0, 0, fmt.Errorf("kv: record %d header past payload end", rec)
	case n < 0 || n != uvarintLen(v):
		return 0, 0, fmt.Errorf("kv: record %d length at payload offset %d is not a minimal uvarint", rec, off)
	}
	return v, off + n, nil
}

// decodePayload walks count records out of a checksummed payload into
// recs[:0], growing it as needed. The seal has no key, so count is only
// a claim: the capacity is bounded by the records the payload can hold
// (each at least minRecBytes). Only the canonical encoding decodes —
// minimal uvarints, exact length, all-zero pad — so an accepted payload
// re-encodes byte for byte.
func decodePayload(recs []record, payload []byte, count int) ([]record, error) {
	if len(payload) > maxFrameBytes {
		return nil, fmt.Errorf("kv: payload of %d bytes exceeds the %d-byte frame limit", len(payload), maxFrameBytes)
	}
	recs = slices.Grow(recs[:0], min(count, len(payload)/minRecBytes))
	off, vals := 0, 0
	for i := 0; i < count; i++ {
		if off >= len(payload) {
			return nil, fmt.Errorf("kv: record %d header past payload end", i)
		}
		kind := OpKind(payload[off])
		kl, off1, err := uvarint(payload, off+1, i)
		if err != nil {
			return nil, err
		}
		vl, off2, err := uvarint(payload, off1, i)
		if err != nil {
			return nil, err
		}
		off = off2
		if kind != OpPut && kind != OpDelete {
			return nil, fmt.Errorf("kv: record %d bad kind %d", i, kind)
		}
		if kind == OpDelete && vl != 0 {
			return nil, fmt.Errorf("kv: record %d is a delete carrying a value", i)
		}
		if kl == 0 || kl > maxKeyLen || vl > maxValLen || off+int(kl)+vals+int(vl) > len(payload) {
			return nil, fmt.Errorf("kv: record %d lengths (%d,%d) past payload end", i, kl, vl)
		}
		// valOff is relative to the value region until its start is known.
		recs = append(recs, record{kind: kind, keyOff: int32(off), keyLen: int32(kl), valOff: int32(vals), valLen: int32(vl)})
		off += int(kl)
		vals += int(vl)
	}
	if want := payloadSize(off + vals); len(payload) != want {
		return nil, fmt.Errorf("kv: payload is %d bytes, want %d for a %d-byte record table and %d value bytes", len(payload), want, off, vals)
	}
	start := len(payload) - vals
	if i := slices.IndexFunc(payload[off:start], func(b byte) bool { return b != 0 }); i >= 0 {
		return nil, fmt.Errorf("kv: non-zero pad byte at payload offset %d", off+i)
	}
	for i := range recs {
		recs[i].valOff += int32(start)
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

// frameHeader is one decoded frame header line.
type frameHeader struct {
	seq   uint64
	count int    // ops in the frame
	n     int    // payload bytes
	ck    uint64 // payload checksum
	tag   frameTag
	head  [headLen]byte // the payload's first bytes
}

// encode builds the sealed header line.
func (h frameHeader) encode() mem.Line {
	var l mem.Line
	copy(l[0:4], frameMagic)
	binary.LittleEndian.PutUint64(l[4:12], h.seq)
	binary.LittleEndian.PutUint32(l[12:16], uint32(h.count))
	binary.LittleEndian.PutUint32(l[16:20], uint32(h.n))
	binary.LittleEndian.PutUint64(l[28:36], h.tag.gen)
	binary.LittleEndian.PutUint64(l[36:44], h.tag.startSeq)
	copy(l[headerBytes:], h.head[:])
	sealHeader(&l, h.ck)
	return l
}

// sealHeader writes the payload checksum and the header seal.
func sealHeader(l *mem.Line, payloadCk uint64) {
	binary.LittleEndian.PutUint32(l[20:24], uint32(payloadCk))
	binary.LittleEndian.PutUint32(l[24:28], uint32(headerSeal(l)))
}

// headerSeal is the checksum over the sealed header bytes, [0:24) and
// [28:44).
func headerSeal(l *mem.Line) uint64 {
	return mem.ChecksumUpdate(mem.Checksum(l[0:24]), l[28:headerBytes])
}

// parseHeader validates a header line. errFrameEnd means "not a frame"
// — the normal end of the scan.
func parseHeader(l mem.Line) (frameHeader, error) {
	if string(l[0:4]) != frameMagic || uint64(binary.LittleEndian.Uint32(l[24:28])) != headerSeal(&l) {
		return frameHeader{}, errFrameEnd
	}
	h := frameHeader{
		seq:   binary.LittleEndian.Uint64(l[4:12]),
		count: int(binary.LittleEndian.Uint32(l[12:16])),
		n:     int(binary.LittleEndian.Uint32(l[16:20])),
		ck:    uint64(binary.LittleEndian.Uint32(l[20:24])),
		tag:   frameTag{binary.LittleEndian.Uint64(l[28:36]), binary.LittleEndian.Uint64(l[36:44])},
	}
	copy(h.head[:], l[headerBytes:])
	if h.seq == 0 || h.count <= 0 || h.n <= 0 {
		return frameHeader{}, errFrameEnd
	}
	return h, nil
}

// frameLines is the line count of a frame of n payload bytes: its
// header fields and payload, rounded up to whole lines.
func frameLines(n int) int {
	return (headerBytes + n + mem.LineSize - 1) / mem.LineSize
}

// payloadLines is the count of a frame's lines after its header line.
func payloadLines(n int) int {
	return frameLines(n) - 1
}

// payloadSize is the payload length of a frame whose record table and
// values come to n bytes: what fills the frame's whole lines after its
// header fields.
func payloadSize(n int) int {
	return frameLines(n)*mem.LineSize - headerBytes
}
