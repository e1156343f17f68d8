package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ccnvm/internal/mem"
	"ccnvm/internal/store"
)

func TestPayloadRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpPut, Key: []byte("alpha"), Val: []byte("one")},
		{Kind: OpDelete, Key: []byte("beta")},
		{Kind: OpPut, Key: []byte("gamma"), Val: bytes.Repeat([]byte{0xAB}, 300)},
		{Kind: OpPut, Key: []byte("empty"), Val: nil},
	}
	payload, encRecs, err := encodePayload(ops)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := decodePayload(nil, payload, len(ops))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(encRecs, recs) {
		t.Fatalf("encodePayload's records %+v differ from the decoded %+v", encRecs, recs)
	}
	if len(recs) != len(ops) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(ops))
	}
	for i, r := range recs {
		if r.kind != ops[i].Kind || !bytes.Equal(r.key(payload), ops[i].Key) {
			t.Fatalf("record %d: kind/key mismatch", i)
		}
		if got := payload[r.valOff : r.valOff+r.valLen]; !bytes.Equal(got, ops[i].Val) {
			t.Fatalf("record %d: value mismatch", i)
		}
	}
	// gamma's is the last value with bytes; "empty" after it has none.
	// The table is 5+5+7+6 bytes (gamma's 300 takes a two-byte uvarint).
	if end := int(recs[2].valOff + recs[2].valLen); len(payload) != payloadSize(23+303) || (headerBytes+len(payload))%mem.LineSize != 0 || end != len(payload) {
		t.Fatalf("payload of %d bytes, last value ends at %d: want %d bytes filling whole lines after the header fields, the values flush at the end",
			len(payload), end, payloadSize(23+303))
	}
}

// TestDecodePayloadIsCanonical: a payload decodes only in the exact
// bytes encodePayload writes for its records — minimal uvarint lengths,
// a frame of whole lines, all-zero pad, values flush against the end —
// so an accepted payload re-encodes byte for byte, and a non-minimal
// length, a bad pad byte or a line too many or too few is refused.
func TestDecodePayloadIsCanonical(t *testing.T) {
	ops := []Op{
		{Kind: OpPut, Key: []byte("a"), Val: bytes.Repeat([]byte{7}, 100)},
		{Kind: OpDelete, Key: []byte("b")},
		{Kind: OpPut, Key: []byte("c"), Val: bytes.Repeat([]byte{9}, 64)},
	}
	good, _, err := encodePayload(ops)
	if err != nil {
		t.Fatal(err)
	}
	const table, vals = 3 * 4, 164 // kind, two one-byte lengths and a one-byte key each
	if len(good) != payloadSize(table+vals) || frameLines(len(good)) != 4 {
		t.Fatalf("payload is %d bytes in a %d-line frame, want %d in 4", len(good), frameLines(len(good)), payloadSize(table+vals))
	}
	recs, err := decodePayload(nil, good, len(ops))
	if err != nil {
		t.Fatal(err)
	}
	again := make([]Op, len(recs))
	for i, r := range recs {
		again[i] = Op{Kind: r.kind, Key: r.key(good), Val: good[r.valOff : r.valOff+r.valLen]}
	}
	if enc, _, err := encodePayload(again); err != nil || !bytes.Equal(enc, good) {
		t.Fatalf("decoded records re-encode to %x (%v), want %x", enc, err, good)
	}

	padEnd := len(good) - vals
	wantLen := fmt.Sprintf("want %d", len(good))
	edit := func(f func(p []byte) []byte) []byte { return f(bytes.Clone(good)) }
	for _, c := range []struct {
		name, want string
		payload    []byte
	}{
		{"first pad byte set", "non-zero pad", edit(func(p []byte) []byte { p[table] = 1; return p })},
		{"last pad byte set", "non-zero pad", edit(func(p []byte) []byte { p[padEnd-1] = 0x80; return p })},
		{"one line short", "past payload end", good[:len(good)-mem.LineSize]},
		{"one line long, zeros after the values", wantLen, append(bytes.Clone(good), make([]byte, mem.LineSize)...)},
		{"one line long, zeros in the pad", wantLen, slices.Concat(good[:table], make([]byte, mem.LineSize), good[table:])},
		// Key length 1 as 0x81 0x00, one pad byte fewer: the same length.
		{"non-minimal key length", "not a minimal uvarint", nonMinimalKeyLen(good, table)},
	} {
		if _, err := decodePayload(nil, c.payload, len(ops)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decode = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestPayloadRejectsBadOps(t *testing.T) {
	cases := []struct {
		name string
		ops  []Op
	}{
		{"empty key", []Op{{Kind: OpPut, Key: nil, Val: []byte("v")}}},
		{"bad kind", []Op{{Kind: 9, Key: []byte("k")}}},
		{"delete with value", []Op{{Kind: OpDelete, Key: []byte("k"), Val: []byte("v")}}},
		{"huge key", []Op{{Kind: OpPut, Key: make([]byte, maxKeyLen+1)}}},
	}
	for _, c := range cases {
		if _, _, err := encodePayload(c.ops); err == nil {
			t.Errorf("%s: encode accepted", c.name)
		}
	}
}

func TestDecodeRejectsTruncatedPayload(t *testing.T) {
	payload, _, err := encodePayload([]Op{{Kind: OpPut, Key: []byte("k"), Val: []byte("value")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodePayload(nil, payload[:len(payload)-2], 1); err == nil {
		t.Fatal("truncated payload decoded")
	}
	if _, err := decodePayload(nil, payload, 2); err == nil {
		t.Fatal("over-count decoded")
	}
}

// nonMinimalKeyLen re-encodes the first record's key length of a
// canonical payload as a two-byte uvarint and drops the first pad byte
// at table to keep its length: the same records, not canonically.
func nonMinimalKeyLen(p []byte, table int) []byte {
	return slices.Concat(p[:1], []byte{p[1] | 0x80, 0}, p[2:table], p[table+1:])
}

// allocBytes is the least heap fn allocated over three runs.
func allocBytes(fn func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzLogFrame feeds an arbitrary header line and the frame's lines
// after it, the header optionally re-sealed over the payload they hold
// (the seal has no key), through the scan's frame decode: parseHeader,
// the payload joined from the header line's head and the lines after
// it, the payload checksum, decodePayload. Nothing may panic, decoding
// may allocate at most 8x the frame plus an error's worth — the second
// seed claims 1<<20 records over one record, which once cost a 48 MB
// slice — and an accepted frame re-encodes to the same header line and
// lines (so the third seed, a delete carrying a value, must be refused,
// and so must the fourth, sealed over non-zero bytes in [28:44)). The sealed seeds after them are frames of
// odd-length values, of deletes alone and of one line, whose payload
// the header line holds whole, and non-canonical payloads that must be
// refused: a non-zero pad byte, a line too few, a line too many, a
// non-minimal key length.
func FuzzLogFrame(f *testing.F) {
	// frame splits a payload into the sealed header line, which carries
	// its head, and the bytes of the lines after it.
	frame := func(h frameHeader, payload []byte) ([]byte, []byte) {
		copy(h.head[:], payload)
		hl := h.encode()
		return hl[:], payload[min(headLen, len(payload)):]
	}
	payload, _, err := encodePayload([]Op{{Kind: OpPut, Key: []byte("k")}})
	if err != nil {
		f.Fatal(err)
	}
	hl, rest := frame(frameHeader{seq: 3, count: 1, n: len(payload), ck: mem.Checksum(payload)}, payload)
	f.Add(hl, rest, false)
	claim, rest := frame(frameHeader{seq: 1, count: 1 << 20, n: len(payload)}, payload)
	f.Add(claim, rest, true)
	delVal := append([]byte{byte(OpDelete), 1, 1, 'k'}, make([]byte, headLen-4)...)
	delVal[headLen-1] = 'v'
	hl, rest = frame(frameHeader{seq: 3, count: 1}, delVal) // never written: must not decode
	f.Add(hl, rest, true)
	tagged, rest := frame(frameHeader{seq: 9, count: 1, n: len(payload), ck: mem.Checksum(payload)}, payload)
	tagged[30] = 4
	sealHeader((*mem.Line)(tagged), mem.Checksum(payload))
	f.Add(tagged, rest, false)
	sealed := func(ops []Op, edit func(p []byte) []byte) {
		p, _, err := encodePayload(ops)
		if err != nil {
			f.Fatal(err)
		}
		h, rest := frame(frameHeader{seq: 1, count: len(ops)}, edit(p))
		f.Add(h, rest, true)
	}
	same := func(p []byte) []byte { return p }
	odd := []Op{
		{Kind: OpPut, Key: []byte("odd"), Val: bytes.Repeat([]byte{1}, 90)},
		{Kind: OpPut, Key: []byte("tiny"), Val: []byte("xyz")},
	} // 13 table bytes, 42 pad bytes, 93 value bytes
	sealed(odd, same)
	sealed([]Op{{Kind: OpDelete, Key: []byte("gone")}, {Kind: OpDelete, Key: []byte("also")}}, same)
	// 7 + 4 bytes: the header line holds the whole payload.
	sealed([]Op{{Kind: OpPut, Key: []byte("one"), Val: []byte("line")}}, same)
	sealed(odd, func(p []byte) []byte { p[13] = 1; return p }) // first pad byte
	sealed(odd, func(p []byte) []byte { return p[:len(p)-mem.LineSize] })
	sealed(odd, func(p []byte) []byte { return append(p, make([]byte, mem.LineSize)...) })
	sealed(odd, func(p []byte) []byte { return nonMinimalKeyLen(p, 13) })
	f.Fuzz(func(t *testing.T, header, rest []byte, seal bool) {
		var hl mem.Line
		copy(hl[:], header)
		if seal {
			binary.LittleEndian.PutUint32(hl[16:20], uint32(headLen+len(rest)))
			sealHeader(&hl, mem.Checksum(slices.Concat(hl[headerBytes:], rest)))
		}
		h, err := parseHeader(hl)
		if err != nil || h.n > headLen+len(rest) {
			return
		}
		payload := slices.Concat(h.head[:min(headLen, h.n)], rest[:max(0, h.n-headLen)])
		if mem.Checksum(payload) != h.ck {
			return
		}
		var recs []record
		if grew := allocBytes(func() { recs, err = decodePayload(nil, payload, h.count) }); grew > 8*uint64(mem.LineSize+h.n)+1<<10 {
			t.Fatalf("decoding %d bytes claiming %d records allocated %d bytes", h.n, h.count, grew)
		}
		if err != nil {
			return
		}
		ops := make([]Op, len(recs))
		for i, r := range recs {
			ops[i] = Op{Kind: r.kind, Key: r.key(payload), Val: payload[r.valOff : r.valOff+r.valLen]}
		}
		again, _, err := encodePayload(ops)
		rh := frameHeader{seq: h.seq, count: len(ops), n: len(again), ck: mem.Checksum(again)}
		copy(rh.head[:], again)
		if err != nil || !bytes.Equal(again, payload) || rh.encode() != hl {
			t.Fatalf("accepted frame %x + %x re-encodes to %x + %x (%v)", hl, payload, rh.encode(), again, err)
		}
	})
}

func TestHeaderRoundTrip(t *testing.T) {
	payload := []byte("some payload bytes, more than a head")
	want := frameHeader{seq: 7, count: 3, n: len(payload), ck: mem.Checksum(payload)}
	copy(want.head[:], payload)
	got, err := parseHeader(want.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
}

func TestHeaderRejectsDamage(t *testing.T) {
	payload := []byte("p")
	good := frameHeader{seq: 1, count: 1, n: len(payload), ck: mem.Checksum(payload)}.encode()
	// Any mutated header byte in the sealed region, the zero bytes included,
	// must read as end-of-log, never as a different valid frame: this is
	// the torn commit-write defense. The bytes after it are payload,
	// which the payload checksum covers: a flip there still parses, as a
	// header whose head holds the flipped byte.
	for i := 0; i < mem.LineSize; i++ {
		hl := good
		hl[i] ^= 0x40
		h, err := parseHeader(hl)
		if i < headerBytes && !errors.Is(err, errFrameEnd) {
			t.Fatalf("byte %d flip parsed as a frame", i)
		}
		if i >= headerBytes && (err != nil || h.head[i-headerBytes] != 0x40) {
			t.Fatalf("payload byte %d flip: header %+v, %v; want the header with the flipped byte in its head", i, h, err)
		}
	}
	var zero [64]byte
	if _, err := parseHeader(zero); !errors.Is(err, errFrameEnd) {
		t.Fatal("zero line parsed as a frame")
	}
}

// TestOpenRefusesMalformedSealedFrame: a frame whose header and payload
// checksums both pass but whose records do not decode is corruption.
// Open must refuse it by seq and address rather than treat it as the
// log's end, which would hide the committed frames behind it and let
// the next Batch overwrite them.
func TestOpenRefusesMalformedSealedFrame(t *testing.T) {
	st := compactStore(t, 1<<20)
	db := compactDB(t, st)
	for _, k := range []string{"first", "second"} {
		if err := db.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	hl, err := st.Read(arenaStart)
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseHeader(hl)
	if err != nil {
		t.Fatal(err)
	}
	h.count++
	if err := st.Write(arenaStart, h.encode()); err != nil {
		t.Fatal(err)
	}
	if err := st.FlushEpoch(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(st, Options{})
	if err == nil {
		t.Fatalf("Open accepted a malformed sealed frame and serves %d keys", db2.Stats().Keys)
	}
	if msg := err.Error(); !strings.Contains(msg, "seq 1") || !strings.Contains(msg, "0x80") {
		t.Fatalf("error does not name the frame's seq and address: %v", err)
	}
}

// TestOpenMalformedFrameWinsOverLaterFrames: the scan reads ahead of
// the stage that decodes, so by the time a malformed sealed frame is
// found the reader has moved past it — through more two-line frames
// than its queues hold. The malformed frame's seq must still be the
// error, and no later frame may be indexed in its place.
func TestOpenMalformedFrameWinsOverLaterFrames(t *testing.T) {
	const frames, badSeq = 3 * scanDepth * scanChunk / 2, 3
	st := compactStore(t, 1<<20)
	db := compactDB(t, st)
	val := bytes.Repeat([]byte{'v'}, headLen) // with its record head, too long for the header line
	for i := 0; i < frames; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	addr := mem.Addr(arenaStart)
	for {
		hl, err := st.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		h, err := parseHeader(hl)
		if err != nil {
			t.Fatalf("frame header at %#x: %v", uint64(addr), err)
		}
		if frameLines(h.n) != 2 {
			t.Fatalf("frame at %#x is %d lines, want 2", uint64(addr), frameLines(h.n))
		}
		if h.seq == badSeq {
			h.count++
			if err := st.Write(addr, h.encode()); err != nil {
				t.Fatal(err)
			}
			break
		}
		addr += mem.Addr(frameLines(h.n)) * mem.LineSize
	}
	if err := st.FlushEpoch(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(st, Options{})
	if err == nil {
		t.Fatalf("Open accepted a malformed sealed frame and serves %d keys", db2.Stats().Keys)
	}
	want := fmt.Sprintf("seq %d at %#x is malformed", badSeq, uint64(addr))
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error = %v, want the malformed frame's %q", err, want)
	}
}

// packedPayload builds a frame payload in the packed layout this
// package wrote before the record table moved ahead of the values: each
// record's head, key and value back to back, with no pad.
func packedPayload(ops []Op) []byte {
	var p []byte
	for _, op := range ops {
		p = append(p, byte(op.Kind))
		p = binary.AppendUvarint(p, uint64(len(op.Key)))
		p = binary.AppendUvarint(p, uint64(len(op.Val)))
		p = append(append(p, op.Key...), op.Val...)
	}
	return p
}

// putOps is a batch of n fresh-key puts of size-byte values.
func putOps(n, size int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpPut, Key: []byte(fmt.Sprintf("key-%06d", i)), Val: bytes.Repeat([]byte{byte(i + 1)}, size)}
	}
	return ops
}

// TestGetReadsOnlyItsValueLines: in a frame whose values are whole
// lines long, a Get reads exactly its value's lines (the engine's data
// reads), and the frame writes exactly the data lines the packed layout
// wrote. Odd-length values and deletes in one frame read back too,
// before and after a crash.
func TestGetReadsOnlyItsValueLines(t *testing.T) {
	for _, size := range []int{64, 128, 1024} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			st := compactStore(t, 1<<20)
			db := compactDB(t, st)
			lay := st.Layout()
			var dataWrites int
			st.SetEventTap(func(ev store.Event) {
				if ev.Kind == store.EvWriteAccept && lay.RegionOf(ev.Addr) == mem.RegionData {
					dataWrites++
				}
			})
			ops := putOps(4, size)
			if err := db.Batch(ops); err != nil {
				t.Fatal(err)
			}
			if want := frameLines(len(packedPayload(ops))); dataWrites != want {
				t.Fatalf("the batch wrote %d data lines, want the packed layout's %d", dataWrites, want)
			}
			for _, op := range ops {
				r0 := st.Engine().Stats().Reads
				v, ok, err := db.Get(op.Key)
				if err != nil || !ok || !bytes.Equal(v, op.Val) {
					t.Fatalf("get %s = (%d bytes, %v, %v)", op.Key, len(v), ok, err)
				}
				if got, want := st.Engine().Stats().Reads-r0, uint64(payloadLines(size)); got != want {
					t.Fatalf("get %s read %d data lines, want %d", op.Key, got, want)
				}
			}
		})
	}

	t.Run("odd sizes and deletes", func(t *testing.T) {
		db := compactDB(t, compactStore(t, 1<<20))
		if err := db.Batch(putOps(3, 64)); err != nil {
			t.Fatal(err)
		}
		want := map[string][]byte{
			"key-000000": nil, // deleted below
			"key-000001": []byte("v1"),
			"key-000002": bytes.Repeat([]byte{3}, 64),
			"odd":        bytes.Repeat([]byte{5}, 100),
			"empty":      {},
			"byte":       {6},
		}
		ops := []Op{
			{Kind: OpPut, Key: []byte("odd"), Val: want["odd"]},
			{Kind: OpDelete, Key: []byte("key-000000")},
			{Kind: OpPut, Key: []byte("empty")},
			{Kind: OpPut, Key: []byte("key-000001"), Val: want["key-000001"]},
			{Kind: OpPut, Key: []byte("byte"), Val: want["byte"]},
		}
		if err := db.Batch(ops); err != nil {
			t.Fatal(err)
		}
		check := func(db *DB) {
			t.Helper()
			for k, w := range want {
				v, ok, err := db.Get([]byte(k))
				if err != nil || ok != (w != nil) || !bytes.Equal(v, w) {
					t.Fatalf("get %s = (%q, %v, %v), want %q", k, v, ok, err, w)
				}
			}
		}
		check(db)
		_, db2 := rebootDB(t, db)
		check(db2)
	})
}

// TestOpenRefusesPackedLayoutFrame: a frame sealed over a payload in
// the packed layout, or over a canonical payload with one length
// re-encoded as a non-minimal uvarint, is a malformed sealed frame,
// refused by seq and address. Reopen must never read the log as ending
// before it, which would hide the committed frame after it. (A
// one-record packed frame whose bytes fill its lines after the header
// fields is the same bytes in both layouts and reads back as written.)
func TestOpenRefusesPackedLayoutFrame(t *testing.T) {
	ops := putOps(4, 64)
	canonical, _, err := encodePayload(ops)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"packed", packedPayload(ops)},
		{"non-minimal key length", nonMinimalKeyLen(canonical, len(packedPayload(ops))-4*64)},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := compactStore(t, 1<<20)
			db := compactDB(t, st)
			if err := db.Put([]byte("first"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			at := db.addr(db.head)
			if err := db.writeFrame("test", at, frameHeader{seq: db.seq + 1, count: len(ops)}, c.payload); err != nil {
				t.Fatal(err)
			}
			db.seq++
			db.frames = append(db.frames, ringFrame{off: db.head})
			db.head += uint64(frameLines(len(c.payload))) * mem.LineSize
			if err := db.Put([]byte("after"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(st, Options{})
			if err == nil {
				t.Fatalf("Open accepted the frame and serves %d keys", db2.Stats().Keys)
			}
			if want := fmt.Sprintf("seq 2 at %#x is malformed", uint64(at)); !strings.Contains(err.Error(), want) {
				t.Fatalf("error = %v, want the frame's %q", err, want)
			}
		})
	}
}

// legacyLog is the first frame of a log as the legacy format wrote it:
// a header line — magic "CKVBATCH" [0:8), seq [8:16), count [16:20),
// payload bytes [20:24), payload checksum [24:32), seal [32:40) over
// [0:32) and [40:56), tag [40:56) — then its payload line, records with
// 4-byte lengths.
func legacyLog(seal bool) (header, payload mem.Line) {
	payload[0] = byte(OpPut)
	binary.LittleEndian.PutUint32(payload[1:], 1)
	binary.LittleEndian.PutUint32(payload[5:], 1)
	payload[9], payload[63] = 'k', 'v'
	copy(header[0:8], "CKVBATCH")
	binary.LittleEndian.PutUint64(header[8:16], 1)
	binary.LittleEndian.PutUint32(header[16:20], 1)
	binary.LittleEndian.PutUint32(header[20:24], mem.LineSize)
	binary.LittleEndian.PutUint64(header[24:32], mem.Checksum(payload[:]))
	if seal {
		binary.LittleEndian.PutUint64(header[32:40], mem.ChecksumUpdate(mem.Checksum(header[0:32]), header[40:56]))
	}
	return header, payload
}

// TestOpenRefusesLegacyFrameFormat: a log whose first line is a sealed
// header of the legacy format fails Open with an error naming the frame
// format, where it would otherwise open as an empty namespace whose
// next batch overwrites the log. A line with the legacy magic and a bad
// seal is no header of either format: the log is empty.
func TestOpenRefusesLegacyFrameFormat(t *testing.T) {
	for _, seal := range []bool{true, false} {
		st := compactStore(t, 1<<20)
		header, payload := legacyLog(seal)
		if st.Write(arenaStart+mem.LineSize, payload) != nil || st.Write(arenaStart, header) != nil || st.FlushEpoch() != nil {
			t.Fatal("writing the legacy frame failed")
		}
		db, err := Open(st, Options{})
		switch {
		case seal && (err == nil || !strings.Contains(err.Error(), "legacy \"CKVBATCH\" frame format")):
			t.Fatalf("Open over a legacy log: %v, want an error naming the frame format", err)
		case !seal && (err != nil || db.Stats().Keys != 0 || db.seq != 0):
			t.Fatalf("Open over an unsealed legacy magic: %v, want an empty namespace", err)
		}
	}
}

func TestFrameLines(t *testing.T) {
	for _, c := range []struct{ n, lines int }{{1, 1}, {headLen, 1}, {headLen + 1, 2}, {headLen + 64, 2}, {headLen + 65, 3}} {
		if got := frameLines(c.n); got != c.lines || payloadLines(c.n) != c.lines-1 || payloadSize(c.n) != c.lines*mem.LineSize-headerBytes {
			t.Fatalf("a %d-byte payload: %d lines, %d after the header, payloadSize %d; want %d lines",
				c.n, got, payloadLines(c.n), payloadSize(c.n), c.lines)
		}
	}
}
