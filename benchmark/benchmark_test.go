package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ccnvm/internal/design"
	"ccnvm/internal/kv"
	"ccnvm/internal/sim"
	"ccnvm/internal/trace"
)

// TestSmoke is what -smoke runs: every workload, untraced and traced,
// at tiny op counts, including crash, recovery and verification. It
// also pins which metrics each workload prints.
func TestSmoke(t *testing.T) {
	cfg := config{seed: 1, seconds: 1, sizes: smokeSizes(), tmp: t.TempDir(), speed: newSpeedometer()}
	known := make(map[string]bool)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		known[m.Name] = true
	}
	for _, w := range workloadNames {
		for tr, set := range [][]metric{endToEnd, perLayer} {
			res := runWorkload(w, tr, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d: %s", w, tr, res.Correct, res.Attempted, res.Failed, res.Error)
			}
			for _, m := range set {
				v, ok := res.Metrics[m.Name]
				if m.on(w) && !ok {
					t.Errorf("%s trace=%d: metric %s is listed for the workload but was not produced", w, tr, m.Name)
				}
				if tr == 0 && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be zero", w, m.Name, v)
				}
			}
			for name := range res.Metrics {
				if !known[name] {
					t.Errorf("%s trace=%d: produced metric %s is not in the registry", w, tr, name)
				}
			}
			if res.Notes["input_digest"] == nil && tr == 0 {
				t.Errorf("%s: no input digest recorded", w)
			}
			checkResultLine(t, res, set)
			if tr == 1 {
				if res.spans == nil || len(res.spans.spans) == 0 {
					t.Errorf("%s: traced pass recorded no spans", w)
				}
				path := filepath.Join(cfg.tmp, w+".jsonl")
				if err := res.spans.writeFile(path); err != nil {
					t.Fatal(err)
				}
				checkSpanFile(t, path, len(res.spans.spans))
			}
		}
	}
}

// checkResultLine holds the last line of standard output to the
// driver's contract: exactly four keys, every metric of the set.
func checkResultLine(t *testing.T, res *result, set []metric) {
	t.Helper()
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(res.resultLine()), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("result line has %d keys, want correct, attempted, failed, metrics", len(line))
	}
	var metrics map[string]value
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(set) {
		t.Errorf("result line carries %d metrics, the set has %d", len(metrics), len(set))
	}
	for _, m := range set {
		if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("result line: metric %s missing or unit %q != %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func checkSpanFile(t *testing.T, path string, want int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", n, err)
		}
		if s.ID != n || s.End < s.Start || s.Parent >= want {
			t.Fatalf("span line %d is malformed: %+v", n, s)
		}
		n++
	}
	if n != want {
		t.Errorf("span file has %d lines, recorder had %d spans", n, want)
	}
}

// TestReplayLinksRungs: spans of one op share its ID, and each rung's
// span names the rung above as parent.
func TestReplayLinksRungs(t *testing.T) {
	cfg := config{seed: 3, seconds: 1, sizes: smokeSizes(), tmp: t.TempDir(), speed: newSpeedometer()}
	res := runWorkload(wlChurn, 1, cfg)
	if !res.Correct {
		t.Fatal(res.Error)
	}
	spans := res.spans.spans
	up := map[string]string{spanKV: spanServer, spanStore: spanKV, spanEngine: spanStore,
		spanStoreWrite: spanStore, spanStoreRead: spanStore, spanStoreFlush: spanStore,
		spanEngineWrite: spanEngine, spanEngineRead: spanEngine, spanEngineFlush: spanEngine}
	rungs := make(map[string]int)
	for _, s := range spans {
		rungs[s.Name]++
		parent, has := up[s.Name]
		if !has {
			if s.Parent != -1 {
				t.Fatalf("top span %+v has a parent", s)
			}
			continue
		}
		if s.Parent < 0 || spans[s.Parent].Name != parent || spans[s.Parent].OpID != s.OpID {
			t.Fatalf("span %+v: parent %+v, want a %s span of the same op", s, spans[s.Parent], parent)
		}
	}
	n := res.Notes["replay_ops"].(int)
	for _, name := range []string{spanServer, spanKV, spanStore, spanEngine} {
		if rungs[name] != n {
			t.Errorf("%d %s spans for %d replayed ops", rungs[name], name, n)
		}
	}
	if res.Metrics["kv.compact_passes"] == 0 || res.Metrics["kv.compact_pause_max_us"] == 0 {
		t.Errorf("churn ran no compaction pass under the replay: %v passes", res.Metrics["kv.compact_passes"])
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	z := smokeSizes()
	for name, w := range kvWorkloads(z) {
		a, b, c := w.gen(7, 2), w.gen(7, 2), w.gen(8, 2)
		if a.digest == "" || a.digest != b.digest {
			t.Errorf("%s: the same seed gave digests %s and %s", name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
		if d := w.gen(7, 3).digest; d == a.digest {
			t.Errorf("%s: rounds 2 and 3 gave the same request stream", name)
		}
	}
	_, a, err := genTraces(7, 1000)
	if err != nil {
		t.Fatal(err)
	}
	_, b, _ := genTraces(7, 1000)
	_, c, _ := genTraces(8, 1000)
	if a != b || a == c {
		t.Errorf("trace digests: same seed %s/%s, other seed %s", a, b, c)
	}
}

// TestGeneratedAnswersFollowTheModel replays a churn stream against a
// plain map: every get must expect what the connection's own earlier
// puts left.
func TestGeneratedAnswersFollowTheModel(t *testing.T) {
	in := genChurn(5, 0, 2, 4000, 300*time.Millisecond, 64, 32)
	state := make(map[string]string)
	for _, b := range in.preload {
		for _, op := range b {
			state[string(op.Key)] = string(op.Val)
		}
	}
	owner := make(map[string]int)
	for c, reqs := range in.conns {
		var last time.Duration
		for i := range reqs {
			r := &reqs[i]
			if r.due < last {
				t.Fatalf("conn %d: schedule goes backwards at %d", c, i)
			}
			last = r.due
			k := r.req.Key
			if o, seen := owner[k]; seen && o != c {
				t.Fatalf("key %s is used by connections %d and %d", k, o, c)
			}
			owner[k] = c
			if r.isGet() {
				if r.val != state[k] {
					t.Fatalf("conn %d request %d: get expects a value the model does not hold", c, i)
				}
			} else {
				state[k] = r.req.Val
			}
		}
	}
	last, _ := in.model()
	for k, v := range state {
		if last[k] != v {
			t.Fatalf("model(): key %s differs from the replayed state", k)
		}
	}
}

func TestPercentileAndTail(t *testing.T) {
	asc := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if v, beyond := percentile(asc(100), 0.99); v != 99 || beyond != 1 {
		t.Errorf("p99 of 1..100 = %v with %d beyond, want 99 with 1", v, beyond)
	}
	if v, beyond := percentile(asc(100), 0.5); v != 50 || beyond != 50 {
		t.Errorf("p50 of 1..100 = %v with %d beyond", v, beyond)
	}
	if v, _ := percentile(nil, 0.5); v != 0 {
		t.Errorf("percentile of nothing = %v", v)
	}
	// 1000 samples: exactly ten lie beyond p99, so it stands.
	if v, q := tail(asc(1000)); q != 0.99 || v != 990 {
		t.Errorf("tail of 1000 samples = %v at p%v, want 990 at p99", v, q*100)
	}
	// 999 samples: only nine lie beyond p99; the tail falls back to p95.
	if _, q := tail(asc(999)); q != 0.95 {
		t.Errorf("tail of 999 samples reported p%v, want p95", q*100)
	}
	if _, q := tail(asc(120)); q != 0.90 {
		t.Errorf("tail of 120 samples reported p%v, want p90", q*100)
	}
	if _, q := tail(asc(40)); q != 0.75 {
		t.Errorf("tail of 40 samples reported p%v, want p75", q*100)
	}
	if _, q := tail(asc(12)); q != 0.5 {
		t.Errorf("tail of 12 samples reported p%v, want the median", q*100)
	}
	if m := median([]float64{5, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// stallServer answers every line with ok, and sleeps stall before
// answering request number at.
func stallServer(t *testing.T, at int, stall time.Duration) (addr string, done chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done = make(chan struct{})
	go func() {
		defer close(done)
		defer ln.Close()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		sc := bufio.NewScanner(c)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for i := 0; sc.Scan(); i++ {
			if i == at {
				time.Sleep(stall)
			}
			if _, err := c.Write(okLine); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), done
}

// TestOpenLoopChargesAStallToEveryRequestItDelays: the server stalls
// once; requests due during the stall were sent on time and each
// inherits the rest of the wait, which a closed loop would hide.
func TestOpenLoopChargesAStallToEveryRequestItDelays(t *testing.T) {
	const n, at, gap, stall = 100, 20, 2 * time.Millisecond, 60 * time.Millisecond
	addr, done := stallServer(t, at, stall)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = putRequest([]kv.RequestOp{{Op: "put", Key: "k", Val: "v"}})
		reqs[i].due = time.Duration(i) * gap
	}
	conns, err := dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := openLoop(conns[0], reqs, time.Now().Add(5*time.Millisecond))
	closeAll(conns)
	<-done
	if res.failed != 0 || len(res.lat) != n {
		t.Fatalf("%d failed, %d latencies", res.failed, len(res.lat))
	}
	if res.lat[at] < stall {
		t.Errorf("the stalled request took %v, less than the %v stall", res.lat[at], stall)
	}
	// Request at+10 was due 20 ms into the 60 ms stall: it waits the
	// other 40 ms although the server answered it at once.
	if want := stall - 10*gap - 5*time.Millisecond; res.lat[at+10] < want {
		t.Errorf("request %d took %v, want at least %v of inherited wait", at+10, res.lat[at+10], want)
	}
	if res.lat[at-5] > stall/2 || res.lat[n-1] > stall/2 {
		t.Errorf("requests outside the stall took %v and %v", res.lat[at-5], res.lat[n-1])
	}
	// The generator itself never waited for the server.
	late := sortedMicros(res.late)
	if p99, _ := percentile(late, 0.99); p99 > 10000 {
		t.Errorf("generator ran %v us late at p99 under a server stall", p99)
	}
}

// okServer answers every line on every connection with ok.
func okServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				sc := bufio.NewScanner(c)
				sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
				for sc.Scan() {
					if _, err := c.Write(okLine); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

// TestSlicesDriveEveryRequestOnce: cutting a pass into slices, by count
// or by schedule, leaves no request out and sends none twice, and an
// open loop's slices keep the schedule's pace.
func TestSlicesDriveEveryRequestOnce(t *testing.T) {
	addr, stop := okServer(t)
	defer stop()
	const span = 200 * time.Millisecond
	streams := make([][]request, 2)
	for c, n := range []int{101, 57} { // neither divides by the slice count
		for i := 0; i < n; i++ {
			r := putRequest([]kv.RequestOp{{Op: "put", Key: "k", Val: "v"}})
			r.due = span * time.Duration(i) / time.Duration(n)
			streams[c] = append(streams[c], r)
		}
	}
	for _, open := range []time.Duration{0, span} {
		conns, err := dial(addr, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, slices := runSliced(conns, streams, 4, open, nil)
		closeAll(conns)
		if res.attempted != 158 || res.acked() != 158 || res.failed != 0 || len(slices) != 4 {
			t.Errorf("span %v: %d attempted, %d acked, %d failed in %d slices", open, res.attempted, res.acked(), res.failed, len(slices))
		}
		if open > 0 && (res.wall < span*8/10 || len(res.late) != 158) {
			t.Errorf("open loop: %v for a %v schedule, %d send times", res.wall, span, len(res.late))
		}
	}
}

func TestVerifierBites(t *testing.T) {
	acked := map[string]string{"a": "1", "b": "2", "c": "3"}
	groups := [][]string{{"a", "b"}, {"x", "y"}} // x, y: a batch never acknowledged
	state := func(m map[string]string) getFunc {
		return func(k string) (string, bool, error) { v, ok := m[k]; return v, ok, nil }
	}
	if err := checkState(state(map[string]string{"a": "1", "b": "2", "c": "3"}), acked, groups); err != nil {
		t.Errorf("a correct state failed: %v", err)
	}
	if err := checkState(state(map[string]string{"a": "1", "b": "2", "c": "3", "x": "9", "y": "9"}), acked, groups); err != nil {
		t.Errorf("a wholly visible unacknowledged batch failed: %v", err)
	}
	for name, bad := range map[string]map[string]string{
		"wrong value":        {"a": "1", "b": "0", "c": "3"},
		"missing acked key":  {"a": "1", "b": "2"},
		"half-visible batch": {"a": "1", "b": "2", "c": "3", "x": "9"},
	} {
		if err := checkState(state(bad), acked, groups); err == nil {
			t.Errorf("%s passed verification", name)
		}
	}

	get := getRequest("k", "right")
	for line, want := range map[string]bool{
		`{"ok":true,"found":true,"val":"right"}` + "\n":   true,
		`{"val":"right", "found":true, "ok":true}` + "\n": true, // another encoder, same answer
		`{"ok":true,"found":true,"val":"wrong"}` + "\n":   false,
		`{"ok":true}` + "\n":                              false,
		`{"ok":false,"err":"kv: db closed"}` + "\n":       false,
		"garbage\n": false,
	} {
		if got := verify(&get, []byte(line)); got != want {
			t.Errorf("verify(get, %q) = %v, want %v", line, got, want)
		}
	}
	put := putRequest([]kv.RequestOp{{Op: "put", Key: "k", Val: "v"}})
	if !verify(&put, okLine) || verify(&put, []byte(`{"ok":false,"code":"full"}`+"\n")) {
		t.Error("verify(put) does not follow ok")
	}
}

// TestLocateFindsValuesByContent: the traced pass learns where a value
// lives from the bytes alone.
func TestLocateFindsValuesByContent(t *testing.T) {
	in := genGet(9, 0, 1, 10, 64, 100)
	cap := &capture{}
	s, err := openStack(1<<20, in.preload, cap)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	for b, batch := range in.preload {
		vals := make(map[string]string)
		for _, op := range batch {
			vals[string(op.Key)] = string(op.Val)
		}
		at, err := locate(s.st, cap.batches[b], vals)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range vals {
			var got []byte
			for _, a := range at[k] {
				l, err := s.st.Read(a)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, l[:]...)
			}
			if len(at[k]) < 2 || len(at[k]) > 3 || !bytes.Contains(got, []byte(v)) {
				t.Fatalf("key %s: %d lines located, holding the value: %v", k, len(at[k]), bytes.Contains(got, []byte(v)))
			}
		}
	}
}

// TestSimPathMatchesRunBenchmark: simulating a pre-generated trace on
// a fresh machine is sim.RunBenchmark, which generates its own.
func TestSimPathMatchesRunBenchmark(t *testing.T) {
	const n = 20000
	b := trace.Benchmarks()[0]
	want, err := sim.RunBenchmark(design.CCNVM, b, n, 4, sim.Config{Params: engineParams})
	if err != nil {
		t.Fatal(err)
	}
	r, err := runSimRound(4, n, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := r.cells[design.CCNVM][b]
	if got.Cycles != want.Cycles || got.NVMWrites != want.NVMWrites || got.NVMReads != want.NVMReads {
		t.Errorf("cycles %d/%d writes %v/%v", got.Cycles, want.Cycles, got.NVMWrites, want.NVMWrites)
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONMatchesCode: every workload and metric BENCHMARK.json
// names is one the code emits, and the other way round.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, " "); got != "command end_to_end paths per_layer run_seconds workloads" {
		t.Errorf("BENCHMARK.json keys: %s", got)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the code's default -seconds is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if got := strings.Join(bj.Command, " "); got != "go run -C benchmark ." {
		t.Errorf("command = %q", got)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(bj.Workloads) < 2 || len(bj.Workloads) > 8 || len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		unique(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	match := func(kind string, js []jsonMetric, ms []metric, limit int, bounded bool) {
		if len(js) < 1 || len(js) > limit || len(js) != len(ms) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code, limit %d", kind, len(js), len(ms), limit)
		}
		for i, j := range js {
			m := ms[i]
			unique(j.Name)
			if !unit.MatchString(j.Unit) || (j.Better != "higher" && j.Better != "lower") {
				t.Errorf("%s %s: unit %q, better %q", kind, j.Name, j.Unit, j.Better)
			}
			if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the code %s [%s, %s]", kind, i, j.Name, j.Unit, j.Better, m.Name, m.Unit, m.Better)
			}
			switch {
			case bounded && (j.Bound == nil || *j.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the code, must be in (0, 0.25]", kind, j.Name, j.Bound, m.Bound)
			case !bounded && (j.Bound != nil || m.Bound != 0):
				t.Errorf("%s %s carries a bound", kind, j.Name)
			}
			if len(m.On) == 0 || m.Doc == "" || (m.Clock != clockHost && m.Clock != clockSim && m.Clock != clockCount) {
				t.Errorf("%s %s: registry entry is incomplete", kind, m.Name)
			}
		}
	}
	match("end_to_end", bj.EndToEnd, endToEnd, 16, true)
	match("per_layer", bj.PerLayer, perLayer, 128, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s [s, lower]")
	}
	for _, m := range endToEnd {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
		if len(m.On) != len(workloadNames) {
			t.Errorf("end-to-end metric %s is not produced by every workload", m.Name)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metric{Name: "lat_p50_us", Better: "lower", Bound: 0.10}
	higher := metric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		m    metric
		a, b []float64
		want string
	}{
		{"same", lower, []float64{100, 101, 99}, []float64{100, 100, 100}, verdictAgree},
		{"within the bound", lower, []float64{100, 100, 100}, []float64{108, 109, 107}, verdictAgree},
		{"slower beyond the bound", lower, []float64{100, 101, 99}, []float64{120, 125, 118}, verdictDisagree},
		{"faster beyond the bound is as much a disagreement", lower, []float64{120, 125, 118}, []float64{100, 101, 99}, verdictDisagree},
		{"throughput drop", higher, []float64{1000, 1010, 990}, []float64{800, 820, 790}, verdictDisagree},
		{"medians apart but pairs point both ways", lower, []float64{100, 140, 100, 141, 100}, []float64{139, 100, 140, 100, 138}, verdictUnresolved},
		{"one run each, apart", lower, []float64{100}, []float64{130}, verdictDisagree},
	} {
		if got, rel := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s (%.3f), want %s", c.name, got, rel, c.want)
		}
	}
}

func TestAgreeFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale map[string]float64) string {
		var runs []*result
		for _, w := range workloadNames {
			for i := 0; i < 3; i++ {
				r := &result{Workload: w, Correct: true, Metrics: make(map[string]float64)}
				for _, m := range endToEnd {
					r.Metrics[m.Name] = 100 * (1 + scale[m.Name]) * (1 + 0.001*float64(i))
				}
				runs = append(runs, r)
			}
		}
		path := filepath.Join(dir, name)
		if err := writeResults(path, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", nil)
	var out bytes.Buffer
	if err := agreeFiles(&out, a, write("b.json", map[string]float64{"lat_p50_us": 0.05})); err != nil {
		t.Errorf("sets within their bounds do not agree: %v\n%s", err, out.String())
	}
	out.Reset()
	err := agreeFiles(&out, a, write("c.json", map[string]float64{"lat_p50_us": 0.5, "ops_per_s": -0.3}))
	if err == nil || !strings.Contains(err.Error(), "demote") {
		t.Errorf("sets apart by more than their bounds: %v", err)
	}
	if s := out.String(); strings.Count(s, verdictDisagree) != 2*len(workloadNames) {
		t.Errorf("unexpected verdicts:\n%s", s)
	}
}
