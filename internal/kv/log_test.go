package kv

import (
	"bytes"
	"errors"
	"reflect"
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
	recs, err := decodePayload(payload, len(ops))
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
	if _, err := decodePayload(payload[:len(payload)-2], 1); err == nil {
		t.Fatal("truncated payload decoded")
	}
	if _, err := decodePayload(payload, 2); err == nil {
		t.Fatal("over-count decoded")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	payload := []byte("some payload bytes")
	hl := encodeHeader(7, 3, len(payload))
	sealHeader(&hl, mem.FNV64a(payload))
	seq, count, pb, ck, err := parseHeader(hl)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || count != 3 || pb != len(payload) || ck != mem.FNV64a(payload) {
		t.Fatalf("parsed (%d,%d,%d,%#x)", seq, count, pb, ck)
	}
}

func TestHeaderRejectsDamage(t *testing.T) {
	payload := []byte("p")
	good := encodeHeader(1, 1, len(payload))
	sealHeader(&good, mem.FNV64a(payload))
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

func TestFrameLines(t *testing.T) {
	if frameLines(1) != 2 || frameLines(64) != 2 || frameLines(65) != 3 {
		t.Fatalf("frameLines: %d %d %d", frameLines(1), frameLines(64), frameLines(65))
	}
}
