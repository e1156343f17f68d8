package kv

import (
	"encoding/json"
	"math"
	"strconv"
)

// The wire protocol is JSON lines over TCP: one request object per
// line, one response object per line, pipelinable per connection.
// Keys and values travel as JSON strings.
//
// encoding/json defines the grammar. This file adds a one-pass codec
// for the canonical form every client in the repo sends — the bytes
// json.Marshal writes for a Request whose strings need no escape — and
// hands every other line, untouched, to encoding/json. Both must agree
// on every input; FuzzWireCodec holds them to that.

// Request is one client command.
type Request struct {
	Op   string      `json:"op"`             // ping get put del batch snap snapget snaprel flush stats compact crash quit
	Key  string      `json:"key,omitempty"`  // get put del snapget
	Val  string      `json:"val,omitempty"`  // put
	Ops  []RequestOp `json:"ops,omitempty"`  // batch
	Snap uint64      `json:"snap,omitempty"` // snapget snaprel
}

// RequestOp is one mutation inside a batch request.
type RequestOp struct {
	Op  string `json:"op"` // put del
	Key string `json:"key"`
	Val string `json:"val,omitempty"`
}

// Response answers one request. Code types refusals so clients can
// tell a retriable/degraded condition from a plain failure: "readonly"
// (media degraded, reads still served), "full" (log out of space and
// compaction cannot help), "closed" (namespace shut down), "toolarge"
// (the request line is past the 4 MiB cap; the connection closes after
// this response, since the line's end is never found).
type Response struct {
	OK    bool       `json:"ok"`
	Found bool       `json:"found,omitempty"`
	Val   string     `json:"val,omitempty"`
	Snap  uint64     `json:"snap,omitempty"`
	Seq   uint64     `json:"seq,omitempty"`
	Err   string     `json:"err,omitempty"`
	Code  string     `json:"code,omitempty"`
	Stats *Stats     `json:"stats,omitempty"`
	Wire  *WireStats `json:"wire,omitempty"` // stats compact
}

// WireStats counts the requests a server decoded on each path: the
// one-pass canonical decoder, and json.Unmarshal for everything else
// (including lines it then rejected).
type WireStats struct {
	Canonical uint64 `json:"canonical"`
	Fallback  uint64 `json:"fallback"`
}

// Refusal codes carried in Response.Code.
const (
	CodeReadOnly = "readonly"
	CodeFull     = "full"
	CodeClosed   = "closed"
	CodeTooLarge = "toolarge"
)

// plain marks the bytes that stand for themselves inside a JSON string
// in both directions: json.Unmarshal reads c as c, and json.Marshal
// (HTML escaping on, as the Encoder has it) writes c as c. That is
// printable ASCII less the quote, the backslash and < > &.
var plain = func() (t [256]bool) {
	for c := 0x20; c <= 0x7E; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

func allPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			return false
		}
	}
	return true
}

// decodeRequest parses one request line into req, reusing req.Ops'
// backing array, and reports whether the line was in canonical form:
// no white space; the fields op key val ops snap (op key val inside
// ops) spelled so, each at most once, in any order; strings of plain
// bytes only; snap a plain decimal that fits uint64. Any other line
// goes to json.Unmarshal on a zeroed Request, which alone decides
// whether it is a request at all. The two paths yield the same Request
// up to a nil versus an empty Ops, which no handler tells apart.
func decodeRequest(line []byte, req *Request) (canonical bool, err error) {
	req.Op, req.Key, req.Val, req.Snap = "", "", "", 0
	req.Ops = req.Ops[:0]
	if end, ok := decodeObject(line, 0, &req.Op, &req.Key, &req.Val, req); ok && end == len(line) {
		return true, nil
	}
	*req = Request{}
	return false, json.Unmarshal(line, req)
}

// Field bits for the at-most-once rule.
const (
	fieldOp = 1 << iota
	fieldKey
	fieldVal
	fieldOps
	fieldSnap
)

// decodeObject reads the canonical object opening at b[i] and returns
// the index past its closing brace. The string fields land in op, key
// and val; ops and snap are fields of the outer object only, which is
// the one that passes req.
func decodeObject(b []byte, i int, op, key, val *string, req *Request) (int, bool) {
	if i+1 >= len(b) || b[i] != '{' {
		return 0, false
	}
	if b[i+1] == '}' {
		return i + 2, true
	}
	seen := 0
	for {
		name, j, ok := scanString(b, i+1)
		if !ok || j >= len(b) || b[j] != ':' {
			return 0, false
		}
		i = j + 1
		var field int
		var dst *string
		switch string(name) {
		case "op":
			field, dst = fieldOp, op
		case "key":
			field, dst = fieldKey, key
		case "val":
			field, dst = fieldVal, val
		case "ops":
			field = fieldOps
		case "snap":
			field = fieldSnap
		}
		if field == 0 || seen&field != 0 || (dst == nil && req == nil) {
			return 0, false
		}
		seen |= field
		switch {
		case dst != nil:
			var s []byte
			if s, i, ok = scanString(b, i); !ok {
				return 0, false
			}
			*dst = string(s)
		case field == fieldOps:
			if i, ok = decodeOps(b, i, req); !ok {
				return 0, false
			}
		default:
			if req.Snap, i, ok = scanUint(b, i); !ok {
				return 0, false
			}
		}
		if i >= len(b) {
			return 0, false
		}
		switch b[i] {
		case ',':
		case '}':
			return i + 1, true
		default:
			return 0, false
		}
	}
}

// decodeOps reads the canonical array of op objects opening at b[i]
// onto req.Ops.
func decodeOps(b []byte, i int, req *Request) (int, bool) {
	if i+1 >= len(b) || b[i] != '[' {
		return 0, false
	}
	if b[i+1] == ']' {
		return i + 2, true
	}
	for {
		req.Ops = append(req.Ops, RequestOp{})
		o := &req.Ops[len(req.Ops)-1]
		var ok bool
		if i, ok = decodeObject(b, i+1, &o.Op, &o.Key, &o.Val, nil); !ok || i >= len(b) {
			return 0, false
		}
		switch b[i] {
		case ',':
		case ']':
			return i + 1, true
		default:
			return 0, false
		}
	}
}

// scanString reads a quoted string of plain bytes opening at b[i] and
// returns its contents and the index past the closing quote.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		if !plain[b[j]] {
			return b[i+1 : j], j + 1, b[j] == '"'
		}
	}
	return nil, 0, false
}

// scanUint reads a decimal without sign, fraction, exponent or leading
// zero at b[i] and returns it and the index past its last digit.
func scanUint(b []byte, i int) (uint64, int, bool) {
	start := i
	var n uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, 0, false
		}
		n = n*10 + d
	}
	if i == start || (b[start] == '0' && i > start+1) {
		return 0, 0, false
	}
	return n, i, true
}

// appendResponse appends r's wire line — the bytes json.Encoder.Encode
// writes for it, newline included — to dst. A reply that carries no
// stats and only plain bytes in its strings is appended directly;
// json.Marshal writes every other one.
func appendResponse(dst []byte, r *Response) ([]byte, error) {
	if r.Stats != nil || r.Wire != nil || !allPlain(r.Val) || !allPlain(r.Err) || !allPlain(r.Code) {
		b, err := json.Marshal(r)
		if err != nil {
			return dst, err
		}
		return append(append(dst, b...), '\n'), nil
	}
	dst = append(dst, `{"ok":`...)
	dst = strconv.AppendBool(dst, r.OK)
	if r.Found {
		dst = append(dst, `,"found":true`...)
	}
	dst = appendStringField(dst, `,"val":"`, r.Val)
	dst = appendUintField(dst, `,"snap":`, r.Snap)
	dst = appendUintField(dst, `,"seq":`, r.Seq)
	dst = appendStringField(dst, `,"err":"`, r.Err)
	dst = appendStringField(dst, `,"code":"`, r.Code)
	return append(dst, '}', '\n'), nil
}

// appendStringField appends an omitempty string field; open is the
// field's bytes up to and including the value's opening quote.
func appendStringField(dst []byte, open, s string) []byte {
	if s == "" {
		return dst
	}
	dst = append(dst, open...)
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendUintField appends an omitempty number field.
func appendUintField(dst []byte, name string, n uint64) []byte {
	if n == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, name...), n, 10)
}
