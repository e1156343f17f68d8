package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ccnvm/internal/kv"
)

// request is one generated wire request together with what a correct
// server must answer. Everything is fixed before the program sees the
// first byte: the connection's sequential model is replayed at
// generation time, so a get already knows the value it must return.
type request struct {
	line []byte        // wire form, newline-terminated
	want []byte        // the response line a correct server sends, as kv.Server encodes it
	req  kv.Request    // decoded form: in-process replay and the slow path of verification
	val  string        // get: the value the issuing connection's model holds for the key
	due  time.Duration // open loop: when the request is due, from the round's start
}

func (r *request) isGet() bool { return r.req.Op == "get" }

// input is everything one round feeds the program.
type input struct {
	conns   [][]request // one request stream per client connection
	preload [][]kv.Op   // batches applied in process before the server starts
	digest  string      // over every request line and due time, in order
}

// rngFor derives an independent, reproducible generator for one
// (seed, round, lane) triple; lane separates connections and the
// preload from each other.
func rngFor(seed int64, round, lane int) *rand.Rand {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(round)*0xbf58476d1ce4e5b9 + uint64(lane)*0x94d049bb133111eb
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"

// text is n seeded characters that JSON carries unescaped.
func text(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := 0; i < n; {
		for x, k := rng.Uint64(), 0; k < 10 && i < n; k, i = k+1, i+1 {
			b[i] = alphabet[x&63]
			x >>= 6
		}
	}
	return string(b)
}

func key(rng *rand.Rand) string { return fmt.Sprintf("%016x", rng.Uint64()) }

func mustLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only strings and bools go in
	}
	return append(b, '\n')
}

var okLine = mustLine(kv.Response{OK: true})

func putRequest(ops []kv.RequestOp) request {
	req := kv.Request{Op: "batch", Ops: ops}
	if len(ops) == 1 {
		req = kv.Request{Op: "put", Key: ops[0].Key, Val: ops[0].Val}
	}
	return request{line: mustLine(req), want: okLine, req: req}
}

func getRequest(k, val string) request {
	req := kv.Request{Op: "get", Key: k}
	return request{line: mustLine(req), want: mustLine(kv.Response{OK: true, Found: true, Val: val}), req: req, val: val}
}

// seal computes the input digest once the streams are complete.
func (in *input) seal() {
	h := sha256.New()
	var due [8]byte
	for _, b := range in.preload {
		for _, op := range b {
			h.Write(op.Key)
			h.Write(op.Val)
		}
	}
	for _, c := range in.conns {
		for i := range c {
			binary.LittleEndian.PutUint64(due[:], uint64(c[i].due))
			h.Write(due[:])
			h.Write(c[i].line)
		}
	}
	in.digest = hex.EncodeToString(h.Sum(nil))
}

// genPut: every request a batch of batchOps puts of valBytes values
// under fresh 64-bit keys, so nothing is ever overwritten and the log
// only grows.
func genPut(seed int64, round, conns, perConn, batchOps, valBytes int) *input {
	in := &input{conns: make([][]request, conns)}
	for c := range in.conns {
		rng := rngFor(seed, round, c)
		reqs := make([]request, perConn)
		for i := range reqs {
			ops := make([]kv.RequestOp, batchOps)
			for j := range ops {
				ops[j] = kv.RequestOp{Op: "put", Key: key(rng), Val: text(rng, valBytes)}
			}
			reqs[i] = putRequest(ops)
		}
		in.conns[c] = reqs
	}
	in.seal()
	return in
}

// preloadBatch is the keys one preload batch carries: small enough that
// the traced pass reads a frame back cheaply when it looks for a value.
const preloadBatch = 16

// genGet: nKeys preloaded keys of valBytes values, then uniform gets.
func genGet(seed int64, round, conns, perConn, nKeys, valBytes int) *input {
	in := &input{conns: make([][]request, conns)}
	rng := rngFor(seed, round, conns)
	keys, vals := make([]string, nKeys), make([]string, nKeys)
	for i := range keys {
		keys[i], vals[i] = key(rng), text(rng, valBytes)
	}
	for lo := 0; lo < nKeys; lo += preloadBatch {
		hi := min(lo+preloadBatch, nKeys)
		b := make([]kv.Op, 0, hi-lo)
		for i := lo; i < hi; i++ {
			b = append(b, kv.Op{Kind: kv.OpPut, Key: []byte(keys[i]), Val: []byte(vals[i])})
		}
		in.preload = append(in.preload, b)
	}
	for c := range in.conns {
		rng := rngFor(seed, round, c)
		reqs := make([]request, perConn)
		for i := range reqs {
			k := rng.Intn(nKeys)
			reqs[i] = getRequest(keys[k], vals[k])
		}
		in.conns[c] = reqs
	}
	in.seal()
	return in
}

// genChurn: an open-loop Poisson schedule of rate requests per second
// in total for dur, two gets to every put of valBytes values over
// hotKeys keys. Keys are partitioned per connection, so a connection's
// own request order fixes every answer. The mix is uneven on purpose:
// a get takes a fifth of a put's time, and the median latency of an
// even mix would sit on the edge between the two and jump from run to
// run.
func genChurn(seed int64, round, conns int, rate float64, dur time.Duration, hotKeys, valBytes int) *input {
	in := &input{conns: make([][]request, conns)}
	rng := rngFor(seed, round, conns)
	keys, vals := make([]string, hotKeys), make([]string, hotKeys)
	var b []kv.Op
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("hot%03d-%08x", i, rng.Uint32()), text(rng, valBytes)
		b = append(b, kv.Op{Kind: kv.OpPut, Key: []byte(keys[i]), Val: []byte(vals[i])})
		if len(b) == 4 || i == hotKeys-1 {
			in.preload = append(in.preload, b)
			b = nil
		}
	}
	for c := range in.conns {
		rng := rngFor(seed, round, c)
		var own []int
		for i := c; i < hotKeys; i += conns {
			own = append(own, i)
		}
		var reqs []request
		perConn := rate / float64(conns)
		for t := 0.0; ; {
			t += -math.Log(1-rng.Float64()) / perConn
			due := time.Duration(t * float64(time.Second))
			if due >= dur {
				break
			}
			k := own[rng.Intn(len(own))]
			var r request
			if rng.Intn(3) != 0 {
				r = getRequest(keys[k], vals[k])
			} else {
				vals[k] = text(rng, valBytes)
				r = putRequest([]kv.RequestOp{{Op: "put", Key: keys[k], Val: vals[k]}})
			}
			r.due = due
			reqs = append(reqs, r)
		}
		in.conns[c] = reqs
	}
	in.seal()
	return in
}

// ops converts a write request to the DB's form, as kv.Server does.
func (r *request) ops() []kv.Op {
	if r.req.Op == "put" {
		return []kv.Op{{Kind: kv.OpPut, Key: []byte(r.req.Key), Val: []byte(r.req.Val)}}
	}
	out := make([]kv.Op, len(r.req.Ops))
	for i, o := range r.req.Ops {
		out[i] = kv.Op{Kind: kv.OpPut, Key: []byte(o.Key), Val: []byte(o.Val)}
	}
	return out
}

// model replays the round into the state a correct namespace must hold
// once every request is acknowledged: the last value per key, and the
// key groups that were written by one batch and so must be visible all
// together or not at all.
func (in *input) model() (last map[string]string, groups [][]string) {
	last = make(map[string]string)
	apply := func(ops []kv.Op) {
		g := make([]string, len(ops))
		for i, op := range ops {
			last[string(op.Key)] = string(op.Val)
			g[i] = string(op.Key)
		}
		if len(g) > 1 {
			groups = append(groups, g)
		}
	}
	for _, b := range in.preload {
		apply(b)
	}
	for _, c := range in.conns {
		for i := range c {
			if !c[i].isGet() {
				apply(c[i].ops())
			}
		}
	}
	return last, groups
}

// userBytes is the key and value bytes the round's write requests
// carry.
func (in *input) userBytes() (n int64) {
	for _, c := range in.conns {
		for i := range c {
			if c[i].isGet() {
				continue
			}
			for _, op := range c[i].ops() {
				n += int64(len(op.Key) + len(op.Val))
			}
		}
	}
	return n
}
