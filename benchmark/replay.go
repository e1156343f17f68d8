package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"ccnvm/internal/mem"
	"ccnvm/internal/store"
)

// Layer replay. The program has no spans of its own yet, so the traced
// pass measures each layer from outside: the same generated op stream
// is executed by one client at four entry points, one rung per layer
// boundary, and every call is wrapped in a span. A layer's self time
// is its rung's span minus the span one rung down.
//
//	rung 1  server  the request over TCP
//	rung 2  kv      the identical op in process: DB.Batch / DB.Get
//	rung 3  store   the data-line calls that op made: Store.Write per
//	                line + FlushEpoch, or Store.Read per value line
//	rung 4  engine  the same lines through Engine.WriteBack / Settle /
//	                ReadBlock, the benchmark owning the clock
//
// Rungs 3 and 4 need the line stream of each op without knowing the
// log format: the written lines are observed through the facade's
// event tap while rung 2 runs, and a value's lines are found by
// searching the written lines for its bytes.

// Span names. The sub-spans of rungs 3 and 4 are children of their
// op's rung span.
const (
	spanServer      = "server"
	spanKV          = "kv"
	spanStore       = "store"
	spanStoreWrite  = "store.write"
	spanStoreFlush  = "store.flush"
	spanStoreRead   = "store.read"
	spanEngine      = "engine"
	spanEngineWrite = "engine.writeback"
	spanEngineFlush = "engine.settle"
	spanEngineRead  = "engine.readblock"
)

// span is one timed call. Spans of one op share OpID; Parent is the ID
// of the span one rung up (or of the rung span, for a sub-span), -1 at
// the top.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	OpID   int    `json:"op_id"`
	Parent int    `json:"parent"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(name string, op, parent int, t0, t1 time.Time) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Start: int64(t0.Sub(r.epoch)), End: int64(t1.Sub(r.epoch)), OpID: op, Parent: parent})
	return id
}

// reserve takes the next span ID for a span that ends after its
// children; fill completes it.
func (r *recorder) reserve() int {
	r.spans = append(r.spans, span{})
	return len(r.spans) - 1
}

func (r *recorder) fill(id int, name string, op int, t0, t1 time.Time) {
	r.spans[id] = span{ID: id, Name: name, Start: int64(t0.Sub(r.epoch)), End: int64(t1.Sub(r.epoch)), OpID: op, Parent: -1}
}

// linkRungs points every rung span at the span one rung up of the same
// op: the replay's stand-in for "the span that caused it".
func (r *recorder) linkRungs() {
	up := map[string]string{spanKV: spanServer, spanStore: spanKV, spanEngine: spanStore}
	ids := make(map[string]map[int]int)
	for i := range r.spans {
		s := &r.spans[i]
		if ids[s.Name] == nil {
			ids[s.Name] = make(map[int]int)
		}
		ids[s.Name][s.OpID] = s.ID
	}
	for i := range r.spans {
		s := &r.spans[i]
		if parent, ok := up[s.Name]; ok {
			if id, ok := ids[parent][s.OpID]; ok {
				s.Parent = id
			}
		}
	}
}

// medianUS is the median duration of the spans called name.
func (r *recorder) medianUS(name string) float64 {
	var ds []float64
	for i := range r.spans {
		if r.spans[i].Name == name {
			ds = append(ds, float64(r.spans[i].End-r.spans[i].Start)/1e3)
		}
	}
	return median(ds)
}

// writeFile writes the spans as JSON lines.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// capture records, through the facade's event tap, the data lines the
// layers above the store write, in program order.
type capture struct {
	lay     *mem.Layout
	addrs   []mem.Addr
	batches [][]mem.Addr // preload: the lines each batch wrote
}

// The tap reports event kinds by a type the facade does not re-export;
// their documented names identify the two that carry a written line.
var evAccept, evHold = eventNamed("write-accept"), eventNamed("epoch-hold")

func eventNamed(name string) store.Event {
	var e store.Event
	for e.Kind = 0; e.Kind < 16; e.Kind++ {
		if e.Kind.String() == name {
			return e
		}
	}
	panic("benchmark: the controller has no event kind " + name)
}

func (c *capture) tap(e store.Event) {
	if (e.Kind == evAccept.Kind || e.Kind == evHold.Kind) && c.lay.RegionOf(e.Addr) == mem.RegionData {
		c.addrs = append(c.addrs, e.Addr)
	}
}

// take returns the lines written since the last take.
func (c *capture) take() []mem.Addr {
	out := c.addrs
	c.addrs = nil
	return out
}

// lineOp is one line-level call below the KV layer.
type lineOp struct {
	addr  mem.Addr
	line  mem.Line
	write bool
}

// opLines is the line-level stream of one op.
type opLines struct {
	lines []lineOp
	flush bool
}

// locate finds, among the lines at addrs, the ones holding each value
// of vals, by content: the lines are read back in plaintext, joined
// where they are adjacent, and searched for the value's bytes. It
// assumes only that a value is stored contiguously.
func locate(st *store.Store, addrs []mem.Addr, vals map[string]string) (map[string][]mem.Addr, error) {
	sorted := append([]mem.Addr(nil), addrs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make(map[string][]mem.Addr, len(vals))
	for lo := 0; lo < len(sorted); {
		// One run of adjacent lines.
		var run []byte
		start := sorted[lo]
		next := start
		for lo < len(sorted) && sorted[lo] <= next {
			if sorted[lo] == next {
				l, err := st.Read(next)
				if err != nil {
					return nil, err
				}
				run = append(run, l[:]...)
				next += mem.LineSize
			}
			lo++
		}
		for k, v := range vals {
			if _, done := out[k]; done || v == "" {
				continue
			}
			off := bytes.Index(run, []byte(v))
			if off < 0 {
				continue
			}
			first := off / mem.LineSize
			last := (off + len(v) - 1) / mem.LineSize
			for i := first; i <= last; i++ {
				out[k] = append(out[k], start+mem.Addr(i*mem.LineSize))
			}
		}
	}
	return out, nil
}

// replayer carries the layer replay's state from chunk to chunk: the
// rungs take turns on short chunks of the stream, each on a stack of
// its own, so that a drift in the host's speed falls on all of them
// alike.
type replayer struct {
	reqs  []request
	rec   *recorder
	cap   *capture              // observes the stack rung 2 runs on
	where map[string][]mem.Addr // the data lines holding each key's current value
	live  map[string]string     // the current value of every key, for finding it again after a pass moved it

	untraced, server, kv, store, engine []time.Duration // per-op spans of each rung
	lines                               []opLines       // the line stream rung 2 observed, replayed by rungs 3 and 4
	pauses                              []time.Duration // rung-2 spans of puts during which a compaction pass ran
	now                                 int64           // rung 4's clock
}

// rungKV is rung 2: each op in process against s.db, with the tap
// observing the lines it writes.
func (p *replayer) rungKV(s *stack, lo, hi int) error {
	passes := func() uint64 {
		n, _, _ := passesOf(s.db.Stats())
		return n
	}
	p.cap.take()
	for i := lo; i < hi; i++ {
		r := &p.reqs[i]
		if r.isGet() {
			t0 := time.Now()
			v, found, err := s.db.Get([]byte(r.req.Key))
			t1 := time.Now()
			if err != nil || !found || string(v) != r.val {
				return fmt.Errorf("replay: in-process get %d: found=%v err=%v", i, found, err)
			}
			p.kv[i] = t1.Sub(t0)
			p.rec.add(spanKV, i, -1, t0, t1)
			for _, a := range p.where[r.req.Key] {
				p.lines[i].lines = append(p.lines[i].lines, lineOp{addr: a})
			}
			if len(p.lines[i].lines) == 0 {
				return fmt.Errorf("replay: no lines located for the value of key %q", r.req.Key)
			}
			continue
		}
		ops := r.ops()
		before := passes()
		t0 := time.Now()
		err := s.db.Batch(ops)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("replay: in-process batch %d: %w", i, err)
		}
		p.kv[i] = t1.Sub(t0)
		p.rec.add(spanKV, i, -1, t0, t1)
		compacted := passes() != before
		if compacted {
			p.pauses = append(p.pauses, t1.Sub(t0))
		}
		// Outside the span: read the written lines back, and learn where
		// the values the op moved now live.
		written := p.cap.take()
		ol := opLines{flush: true, lines: make([]lineOp, len(written))}
		for j, a := range written {
			l, err := s.st.Read(a)
			if err != nil {
				return err
			}
			ol.lines[j] = lineOp{addr: a, line: l, write: true}
		}
		p.lines[i] = ol
		if p.where == nil {
			continue // a write-only stream never needs a value's lines
		}
		moved := make(map[string]string, len(ops))
		for _, op := range ops {
			p.live[string(op.Key)] = string(op.Val)
			moved[string(op.Key)] = string(op.Val)
		}
		if compacted {
			moved = p.live // the pass rewrote every live value
		}
		at, err := locate(s.st, written, moved)
		if err != nil {
			return err
		}
		for k, lines := range at {
			p.where[k] = lines
		}
	}
	return nil
}

// rungStore is rung 3: the line stream against the facade.
func (p *replayer) rungStore(st *store.Store, lo, hi int) error {
	var got []byte
	for i := lo; i < hi; i++ {
		id := p.rec.reserve() // the rung span ends last but its children name it
		got = got[:0]
		t0 := time.Now()
		for _, l := range p.lines[i].lines {
			c0 := time.Now()
			if l.write {
				if err := st.Write(l.addr, l.line); err != nil {
					return fmt.Errorf("replay: store write: %w", err)
				}
				p.rec.add(spanStoreWrite, i, id, c0, time.Now())
				continue
			}
			line, err := st.Read(l.addr)
			if err != nil {
				return fmt.Errorf("replay: store read: %w", err)
			}
			p.rec.add(spanStoreRead, i, id, c0, time.Now())
			got = append(got, line[:]...)
		}
		if p.lines[i].flush {
			c0 := time.Now()
			if err := st.FlushEpoch(); err != nil {
				return fmt.Errorf("replay: flush: %w", err)
			}
			p.rec.add(spanStoreFlush, i, id, c0, time.Now())
		}
		t1 := time.Now()
		p.rec.fill(id, spanStore, i, t0, t1)
		p.store[i] = t1.Sub(t0)
		if p.reqs[i].isGet() && !bytes.Contains(got, []byte(p.reqs[i].val)) {
			return fmt.Errorf("replay: store-level read of op %d does not hold the value", i)
		}
	}
	return nil
}

// rungEngine is rung 4: the same lines through the engine, with the
// benchmark owning the clock. The store sees no facade call meanwhile.
func (p *replayer) rungEngine(st *store.Store, lo, hi int) error {
	eng := st.Engine()
	var got []byte
	for i := lo; i < hi; i++ {
		id := p.rec.reserve()
		got = got[:0]
		t0 := time.Now()
		for _, l := range p.lines[i].lines {
			c0 := time.Now()
			if l.write {
				p.now = eng.WriteBack(p.now, l.addr, l.line)
				p.rec.add(spanEngineWrite, i, id, c0, time.Now())
				continue
			}
			var line mem.Line
			line, p.now = eng.ReadBlock(p.now, l.addr)
			p.rec.add(spanEngineRead, i, id, c0, time.Now())
			got = append(got, line[:]...)
		}
		if p.lines[i].flush {
			c0 := time.Now()
			p.now = eng.Settle(p.now)
			p.rec.add(spanEngineFlush, i, id, c0, time.Now())
		}
		t1 := time.Now()
		p.rec.fill(id, spanEngine, i, t0, t1)
		p.engine[i] = t1.Sub(t0)
		if p.reqs[i].isGet() && !bytes.Contains(got, []byte(p.reqs[i].val)) {
			return fmt.Errorf("replay: engine-level read of op %d does not hold the value", i)
		}
	}
	return nil
}

func meanDur(ds []time.Duration) float64 { return mean(micros(ds)) }

// chunkMedian is a rung's typical per-op time in microseconds: the
// mean over each chunk of the ops keep selects (all when nil), then
// the median over chunks, so that one hiccup of the host spoils one
// chunk and not the rung.
func chunkMedian(ds []time.Duration, reqs []request, keep func(*request) bool) float64 {
	var chunks []float64
	for lo := 0; lo < len(ds); lo += replayChunk {
		var sum, n float64
		for i := lo; i < min(lo+replayChunk, len(ds)); i++ {
			if keep == nil || keep(&reqs[i]) {
				sum += float64(ds[i]) / float64(time.Microsecond)
				n++
			}
		}
		if n > 0 {
			chunks = append(chunks, sum/n)
		}
	}
	return median(chunks)
}
