package kv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
)

// wireLines is one conversation that visits every way a request line
// can leave the canonical form. want is the answer the pure
// encoding/json server of the parent commit gave, byte for byte;
// canonical is the decoder the line must be counted under.
var wireLines = []struct {
	line      string
	want      string
	canonical bool
}{
	// Canonical: what json.Marshal writes for a Request of plain strings.
	{`{"op":"ping"}`, `{"ok":true}`, true},
	{`{"op":"put","key":"k","val":"v"}`, `{"ok":true}`, true},
	{`{"op":"get","key":"k"}`, `{"ok":true,"found":true,"val":"v"}`, true},
	{`{"key":"k","op":"get"}`, `{"ok":true,"found":true,"val":"v"}`, true},
	{`{"op":"batch","ops":[{"op":"put","key":"b1","val":"1"},{"op":"del","key":"k"},{"op":"put","key":"k","val":"v"}]}`, `{"ok":true}`, true},
	{`{"op":"batch","ops":[]}`, `{"ok":true}`, true},
	{`{"op":"batch","ops":[{}]}`, `{"ok":false,"err":"bad batch op \"\""}`, true},
	{`{"op":"snaprel","snap":18446744073709551615}`, `{"ok":true}`, true},
	{`{"op":"snapget","snap":0,"key":"k"}`, `{"ok":false,"err":"no snapshot 0"}`, true},
	{`{"op":"nope"}`, `{"ok":false,"err":"unknown op \"nope\""}`, true},
	{`{}`, `{"ok":false,"err":"unknown op \"\""}`, true},
	// Escapes, in the request and in the answer.
	{`{"op":"put","key":"q\"k","val":"a\"b\\c"}`, `{"ok":true}`, false},
	{`{"op":"get","key":"q\"k"}`, `{"ok":true,"found":true,"val":"a\"b\\c"}`, false},
	{`{"op":"put","key":"e","val":"\u00e9"}`, `{"ok":true}`, false},
	{`{"op":"get","key":"e"}`, `{"ok":true,"found":true,"val":"é"}`, true},
	{`{"op":"put","key":"h","val":"<&>"}`, `{"ok":true}`, false},
	{`{"op":"get","key":"h"}`, `{"ok":true,"found":true,"val":"\u003c\u0026\u003e"}`, true},
	{"{\"op\":\"put\",\"key\":\"d\",\"val\":\"\x7f\"}", `{"ok":true}`, false},
	// Raw UTF-8, valid and not.
	{`{"op":"put","key":"é","val":"ü"}`, `{"ok":true}`, false},
	{`{"op":"get","key":"é"}`, `{"ok":true,"found":true,"val":"ü"}`, false},
	{"{\"op\":\"get\",\"key\":\"\xff\"}", `{"ok":true}`, false},
	// Valid JSON that json.Marshal would not have written.
	{`{"OP":"get","Key":"k"}`, `{"ok":true,"found":true,"val":"v"}`, false},
	{`{"op":"get","key":"zz","key":"k"}`, `{"ok":true,"found":true,"val":"v"}`, false},
	{`{"op":"get","op":"ping"}`, `{"ok":true}`, false},
	{`{ "op": "get", "key": "k" }`, `{"ok":true,"found":true,"val":"v"}`, false},
	{`{"op":"get","key":"k"} `, `{"ok":true,"found":true,"val":"v"}`, false},
	{`{"op":"get","key":"k","ttl":5}`, `{"ok":true,"found":true,"val":"v"}`, false},
	{`{"op":"batch","ops":null}`, `{"ok":true}`, false},
	{`{"op":"batch","ops":[{"op":"put","key":"n","val":"1","snap":1}]}`, `{"ok":true}`, false},
	{`{"op":"get","key":null}`, `{"ok":true}`, false},
	// Not requests at all.
	{`{"op":"snaprel","snap":01}`, `{"ok":false,"err":"bad request: invalid character '1' after object key:value pair"}`, false},
	{`{"op":"snaprel","snap":99999999999999999999}`, `{"ok":false,"err":"bad request: json: cannot unmarshal number 99999999999999999999 into Go struct field Request.snap of type uint64"}`, false},
	{`{"op":"snaprel","snap":1e0}`, `{"ok":false,"err":"bad request: json: cannot unmarshal number 1e0 into Go struct field Request.snap of type uint64"}`, false},
	{`{"op":"snaprel","snap":-1}`, `{"ok":false,"err":"bad request: json: cannot unmarshal number -1 into Go struct field Request.snap of type uint64"}`, false},
	{`{"op":"ping"}x`, `{"ok":false,"err":"bad request: invalid character 'x' after top-level value"}`, false},
	{`{"op":"ping",}`, `{"ok":false,"err":"bad request: invalid character '}' looking for beginning of object key string"}`, false},
	{`{"op":"ping"`, `{"ok":false,"err":"bad request: unexpected end of JSON input"}`, false},
	{`hello`, `{"ok":false,"err":"bad request: invalid character 'h' looking for beginning of value"}`, false},
	{`{"op":7}`, `{"ok":false,"err":"bad request: json: cannot unmarshal number into Go struct field Request.op of type string"}`, false},
}

// TestWireTrafficIsCounted drives wireLines through a live server: each
// answer equals the parent's, and each line lands in the counter of the
// decoder that must have read it, as the stats reply then reports them.
func TestWireTrafficIsCounted(t *testing.T) {
	db := compactDB(t, compactStore(t, 1<<20))
	srv := NewServer(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		conn.Close()
		srv.Close()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	r := bufio.NewReader(conn)
	send := func(line string) string {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		return strings.TrimSuffix(got, "\n")
	}

	var canonical, fallback uint64
	for _, l := range wireLines {
		if got := send(l.line); got != l.want {
			t.Errorf("%s\n answered %s\n want     %s", l.line, got, l.want)
		}
		if l.canonical {
			canonical++
		} else {
			fallback++
		}
		if c, f := srv.canonical.Load(), srv.fallback.Load(); c != canonical || f != fallback {
			t.Fatalf("%s: counters (canonical %d, fallback %d), want (%d, %d)", l.line, c, f, canonical, fallback)
		}
	}
	// The stats request is itself canonical and counted before it is
	// answered.
	want := fmt.Sprintf(`"wire":{"canonical":%d,"fallback":%d}}`, canonical+1, fallback)
	if got := send(`{"op":"stats"}`); !strings.HasSuffix(got, want) {
		t.Fatalf("stats answered %s, want it to end in %s", got, want)
	}
}

// sameRequest is Request equality up to a nil versus an empty Ops.
func sameRequest(a, b *Request) bool {
	if a.Op != b.Op || a.Key != b.Key || a.Val != b.Val || a.Snap != b.Snap || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			return false
		}
	}
	return true
}

// FuzzWireCodec holds the one-pass codec to encoding/json on every
// input: the same Request and the same error from a request line, the
// same bytes for a response.
func FuzzWireCodec(f *testing.F) {
	for _, l := range wireLines {
		f.Add([]byte(l.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		// A Request that served another line before: nothing of it may
		// show through.
		got := Request{Op: "stale", Key: "stale", Val: "stale", Snap: 7,
			Ops: []RequestOp{{Op: "stale", Key: "stale", Val: "stale"}, {Op: "stale"}}}
		_, gotErr := decodeRequest(line, &got)
		var want Request
		wantErr := json.Unmarshal(line, &want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: decodeRequest error %v, json.Unmarshal error %v", line, gotErr, wantErr)
		}
		if wantErr == nil && !sameRequest(&got, &want) {
			t.Fatalf("%q: decodeRequest %+v, json.Unmarshal %+v", line, got, want)
		}

		// Responses out of whatever strings the line gave, and out of the
		// raw line, which need not even be UTF-8.
		raw := string(line)
		for _, r := range []Response{
			{OK: want.Snap&1 == 0, Found: want.Snap&2 == 0, Val: want.Val, Snap: want.Snap, Seq: uint64(len(want.Ops)), Err: want.Key, Code: want.Op},
			{OK: true, Found: true, Val: raw},
			{Err: raw, Code: CodeFull},
			{Code: raw},
			{OK: true, Val: want.Val, Stats: &Stats{Ladder: raw}, Wire: &WireStats{Canonical: want.Snap}},
		} {
			var ref bytes.Buffer
			ref.WriteString("prefix")
			if err := json.NewEncoder(&ref).Encode(&r); err != nil {
				t.Fatal(err)
			}
			out, err := appendResponse([]byte("prefix"), &r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, ref.Bytes()) {
				t.Fatalf("%+v:\n appendResponse %q\n Encoder.Encode %q", r, out, ref.Bytes())
			}
		}
	})
}

// TestWireAllocs pins what the connection-owned request path allocates:
// decoding a canonical batch into a Request that has held one before
// allocates the strings it hands out and nothing else, and appending a
// found get to a buffer that has held one before allocates nothing.
func TestWireAllocs(t *testing.T) {
	batch := Request{Op: "batch"}
	for i := 0; i < 4; i++ {
		batch.Ops = append(batch.Ops, RequestOp{Op: "put", Key: fmt.Sprintf("%016x", i), Val: strings.Repeat("v", 64)})
	}
	line, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	decode := func() {
		if canonical, err := decodeRequest(line, &req); err != nil || !canonical {
			t.Fatalf("decodeRequest(%s) = %v, %v", line, canonical, err)
		}
	}
	decode()
	if !sameRequest(&req, &batch) {
		t.Fatalf("decoded %+v, want %+v", req, batch)
	}
	const strs = 1 + 4*3 // the request's op; op, key and val of each put
	if n := testing.AllocsPerRun(100, decode); n != strs {
		t.Errorf("decoding a 4-put batch into a reused Request: %v allocations, want its %d strings", n, strs)
	}

	resp := Response{OK: true, Found: true, Val: strings.Repeat("v", 64)}
	var out []byte
	encode := func() {
		if out, err = appendResponse(out[:0], &resp); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if want, _ := json.Marshal(&resp); string(out) != string(want)+"\n" {
		t.Fatalf("appended %q, json.Marshal %q", out, want)
	}
	if n := testing.AllocsPerRun(100, encode); n != 0 {
		t.Errorf("appending a found get to a reused buffer: %v allocations, want 0", n)
	}
}
