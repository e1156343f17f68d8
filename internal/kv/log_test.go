package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ccnvm/internal/mem"
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
		if r.kind != ops[i].Kind || !bytes.Equal(r.key, ops[i].Key) {
			t.Fatalf("record %d: kind/key mismatch", i)
		}
		if got := payload[r.valOff : r.valOff+r.valLen]; !bytes.Equal(got, ops[i].Val) {
			t.Fatalf("record %d: value mismatch", i)
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

// FuzzLogFrame feeds an arbitrary header line and payload, the header
// optionally re-sealed over the payload (the seal has no key), through
// the scan's frame decode: parseHeader, the payload checksum,
// decodePayload. Nothing may panic, decoding may allocate at most 8x the
// frame plus an error's worth — the second seed claims 1<<20 records
// over one 10-byte record, which once cost a 48 MB slice — and an
// accepted frame re-encodes to the same sealed bytes (so the third
// seed, a delete carrying a value, must be refused).
func FuzzLogFrame(f *testing.F) {
	payload, _, err := encodePayload([]Op{{Kind: OpPut, Key: []byte("k")}})
	if err != nil {
		f.Fatal(err)
	}
	hl := encodeHeader(3, 1, len(payload))
	sealHeader(&hl, mem.Checksum(payload))
	f.Add(hl[:], payload, false)
	claim := encodeHeader(1, 1<<20, len(payload))
	f.Add(claim[:], payload, true)
	f.Add(hl[:], []byte{byte(OpDelete), 1, 0, 0, 0, 1, 0, 0, 0, 'k', 'v'}, true) // never written: must not decode
	f.Fuzz(func(t *testing.T, header, payload []byte, seal bool) {
		var hl mem.Line
		copy(hl[:], header)
		if seal {
			binary.LittleEndian.PutUint32(hl[20:24], uint32(len(payload)))
			sealHeader(&hl, mem.Checksum(payload))
		}
		seq, count, n, ck, err := parseHeader(hl)
		if err != nil || n > len(payload) || mem.Checksum(payload[:n]) != ck {
			return
		}
		payload = payload[:n]
		var recs []record
		if grew := allocBytes(func() { recs, err = decodePayload(nil, payload, count) }); grew > 8*uint64(mem.LineSize+n)+1<<10 {
			t.Fatalf("decoding %d bytes claiming %d records allocated %d bytes", n, count, grew)
		}
		if err != nil {
			return
		}
		ops := make([]Op, len(recs))
		for i, r := range recs {
			ops[i] = Op{Kind: r.kind, Key: r.key, Val: payload[r.valOff : r.valOff+r.valLen]}
		}
		again, _, err := encodePayload(ops)
		rh := encodeHeader(seq, len(ops), len(again))
		sealHeader(&rh, mem.Checksum(again))
		if err != nil || !bytes.Equal(again, payload) || !bytes.Equal(rh[:40], hl[:40]) { // [40:64) is unsealed
			t.Fatalf("accepted frame %x + %x re-encodes to %x + %x (%v)", hl, payload, rh, again, err)
		}
	})
}

func TestHeaderRoundTrip(t *testing.T) {
	payload := []byte("some payload bytes")
	hl := encodeHeader(7, 3, len(payload))
	sealHeader(&hl, mem.Checksum(payload))
	seq, count, pb, ck, err := parseHeader(hl)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || count != 3 || pb != len(payload) || ck != mem.Checksum(payload) {
		t.Fatalf("parsed (%d,%d,%d,%#x)", seq, count, pb, ck)
	}
}

func TestHeaderRejectsDamage(t *testing.T) {
	payload := []byte("p")
	good := encodeHeader(1, 1, len(payload))
	sealHeader(&good, mem.Checksum(payload))
	// Any mutated header byte in the sealed region must read as
	// end-of-log, never as a different valid frame: this is the torn
	// commit-write defense.
	for i := 0; i < 40; i++ {
		hl := good
		hl[i] ^= 0x40
		if _, _, _, _, err := parseHeader(hl); !errors.Is(err, errFrameEnd) {
			t.Fatalf("byte %d flip parsed as a frame", i)
		}
	}
	var zero [64]byte
	if _, _, _, _, err := parseHeader(zero); !errors.Is(err, errFrameEnd) {
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
	seq, count, payloadBytes, payloadCk, err := parseHeader(hl)
	if err != nil {
		t.Fatal(err)
	}
	bad := encodeHeader(seq, count+1, payloadBytes)
	sealHeader(&bad, payloadCk)
	if err := st.Write(arenaStart, bad); err != nil {
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
	for i := 0; i < frames; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
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
		seq, count, payloadBytes, payloadCk, err := parseHeader(hl)
		if err != nil {
			t.Fatalf("frame header at %#x: %v", uint64(addr), err)
		}
		if seq == badSeq {
			bad := encodeHeader(seq, count+1, payloadBytes)
			sealHeader(&bad, payloadCk)
			if err := st.Write(addr, bad); err != nil {
				t.Fatal(err)
			}
			break
		}
		addr += mem.Addr(frameLines(payloadBytes)) * mem.LineSize
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

func TestFrameLines(t *testing.T) {
	if frameLines(1) != 2 || frameLines(64) != 2 || frameLines(65) != 3 {
		t.Fatalf("frameLines: %d %d %d", frameLines(1), frameLines(64), frameLines(65))
	}
}
