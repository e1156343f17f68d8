package store_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/store"
	"ccnvm/internal/torture"
)

// overlapBase is where the overlap test writes its 16 lines: the start
// of the second page, so the first page's counter line stays cold.
const overlapBase = mem.Addr(mem.PageSize)

// coldStore writes 16 lines of every kind from overlapBase on the
// design, crashes and reboots the store, and writes one line at the end
// of the data region: that drops the boot verdict, so every read goes
// through the engine, whose metadata cache holds nothing of the 16
// lines' page.
func coldStore(t *testing.T, name string) *store.Store {
	t.Helper()
	opts := store.Options{Design: name, Capacity: 1 << 20, Params: engine.Params{UpdateLimit: 16, QueueEntries: 64}}
	st, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 16 {
		if err := st.Write(overlapBase+mem.Addr(i*mem.LineSize), requestLine(1, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.FlushEpoch(); err != nil {
		t.Fatal(err)
	}
	st, _, err = store.Reboot(st.Crash(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Write(mem.Addr(st.Capacity()-mem.LineSize), requestLine(2, 0, 2)); err != nil {
		t.Fatal(err)
	}
	return st
}

// coldRead makes one n-line read call from overlapBase on st — a
// ReadLines, or a Fetch whose lines an Opener opens — and returns the
// plaintext and the call's cycles.
func coldRead(t *testing.T, st *store.Store, fetch bool, a mem.Addr, n int) ([]byte, int64) {
	t.Helper()
	t0 := st.Now()
	if !fetch {
		pt, err := st.ReadLines(nil, a, n)
		if err != nil {
			t.Fatal(err)
		}
		return pt, st.Now() - t0
	}
	fetched, err := st.Fetch(nil, a, n)
	if err != nil {
		t.Fatal(err)
	}
	took := st.Now() - t0
	op := st.NewOpener()
	var pt []byte
	for i := range fetched {
		l, ok := op.Open(&fetched[i])
		if !ok {
			t.Fatalf("line %d failed authentication", i)
		}
		pt = append(pt, l[:]...)
	}
	return pt, took
}

// counts renders the counters of a flat stats struct that moved from
// before to after, in field order.
func counts(before, after any) string {
	b, a := reflect.ValueOf(before), reflect.ValueOf(after)
	var moved []string
	for i := range a.NumField() {
		var d int64
		switch f := a.Field(i); f.Kind() {
		case reflect.Uint64:
			d = int64(f.Uint() - b.Field(i).Uint())
		case reflect.Int64:
			d = f.Int() - b.Field(i).Int()
		}
		if d != 0 {
			moved = append(moved, fmt.Sprintf("%s=%d", a.Type().Field(i).Name, d))
		}
	}
	return strings.Join(moved, " ")
}

// overlapPin is one cold read call as the serial read path made it, one
// line issued at the completion of the line before: its cycles, and the
// engine, metadata-cache and controller counters it moved.
type overlapPin struct {
	serial          int64
	eng, meta, ctrl string
}

// overlapPins holds, by design, the cold 2-line and 16-line ReadLines,
// then the same two Fetch calls.
var overlapPins = map[string][4]overlapPin{
	"sc": {
		{1008, "Reads=2 HMACOps=6 AESOps=2", "Hits=1 Misses=1 Reads=2", "Reads=7 RequestHits=1"},
		{4648, "Reads=16 HMACOps=20 AESOps=16", "Hits=15 Misses=1 Reads=16", "Reads=24 RequestHits=12"},
		{1008, "Reads=2 HMACOps=6 AESOps=2", "Hits=1 Misses=1 Reads=2", "Reads=7 RequestHits=1"},
		{4648, "Reads=16 HMACOps=20 AESOps=16", "Hits=15 Misses=1 Reads=16", "Reads=24 RequestHits=12"},
	},
	"osiris": {
		{768, "Reads=2 HMACOps=3 AESOps=2", "Hits=1 Misses=1 Reads=2", "Reads=4 RequestHits=1"},
		{4408, "Reads=16 HMACOps=17 AESOps=16", "Hits=15 Misses=1 Reads=16", "Reads=21 RequestHits=12"},
		{768, "Reads=2 HMACOps=3 AESOps=2", "Hits=1 Misses=1 Reads=2", "Reads=4 RequestHits=1"},
		{4408, "Reads=16 HMACOps=17 AESOps=16", "Hits=15 Misses=1 Reads=16", "Reads=21 RequestHits=12"},
	},
	"ccnvm-wods": {
		{1008, "Reads=2 HMACOps=6 AESOps=2", "Hits=1 Misses=1 Reads=2", "Reads=7 RequestHits=1"},
		{4648, "Reads=16 HMACOps=20 AESOps=16", "Hits=15 Misses=1 Reads=16", "Reads=24 RequestHits=12"},
		{1008, "Reads=2 HMACOps=6 AESOps=2", "Hits=1 Misses=1 Reads=2", "Reads=7 RequestHits=1"},
		{4648, "Reads=16 HMACOps=20 AESOps=16", "Hits=15 Misses=1 Reads=16", "Reads=24 RequestHits=12"},
	},
	"ccnvm": {
		{1008, "Reads=2 HMACOps=6 AESOps=2", "Hits=1 Misses=1 Reads=2", "Reads=7 RequestHits=1"},
		{4648, "Reads=16 HMACOps=20 AESOps=16", "Hits=15 Misses=1 Reads=16", "Reads=24 RequestHits=12"},
		{1008, "Reads=2 HMACOps=6 AESOps=2", "Hits=1 Misses=1 Reads=2", "Reads=7 RequestHits=1"},
		{4648, "Reads=16 HMACOps=20 AESOps=16", "Hits=15 Misses=1 Reads=16", "Reads=24 RequestHits=12"},
	},
	"ccnvm-ext": {
		{1008, "Reads=2 HMACOps=6 AESOps=2", "Hits=1 Misses=1 Reads=2", "Reads=7 RequestHits=1"},
		{4648, "Reads=16 HMACOps=20 AESOps=16", "Hits=15 Misses=1 Reads=16", "Reads=24 RequestHits=12"},
		{1008, "Reads=2 HMACOps=6 AESOps=2", "Hits=1 Misses=1 Reads=2", "Reads=7 RequestHits=1"},
		{4648, "Reads=16 HMACOps=20 AESOps=16", "Hits=15 Misses=1 Reads=16", "Reads=24 RequestHits=12"},
	},
	"arsenal": {
		{968, "Reads=2 HMACOps=2 AESOps=2", "", "Reads=2"},
		{6624, "Reads=16 HMACOps=16 AESOps=16", "Hits=4 Misses=1 Reads=5", "Reads=20 RequestHits=1"},
		{968, "Reads=2 HMACOps=2 AESOps=2", "", "Reads=2"},
		{6624, "Reads=16 HMACOps=16 AESOps=16", "Hits=4 Misses=1 Reads=5", "Reads=20 RequestHits=1"},
	},
}

// TestReadCallOverlapsItsLines: on every KV design, a cold 2-line and a
// cold 16-line ReadLines, and the same two Fetch calls, return the
// written plaintext and move the engine, metadata-cache and controller
// counters exactly as the serial read path did, while their lines
// overlap under the core's miss window: the first eight issue at the
// call's start, the ninth at the earliest completion of the first eight,
// and the call takes fewer cycles than the serial path and no fewer than
// its slowest line read alone.
func TestReadCallOverlapsItsLines(t *testing.T) {
	for _, name := range torture.KVDesigns() {
		t.Run(name, func(t *testing.T) {
			var alone [16]int64
			for i := range alone {
				_, alone[i] = coldRead(t, coldStore(t, name), false, overlapBase+mem.Addr(i*mem.LineSize), 1)
			}
			pins := overlapPins[name]
			k := 0
			for _, fetch := range []bool{false, true} {
				for _, n := range []int{2, 16} {
					st := coldStore(t, name)
					var issue, done []int64
					store.ObserveReads(st, func(i, d int64) { issue, done = append(issue, i), append(done, d) })
					e0, m0, c0, t0 := st.Engine().Stats(), st.Engine().MetaStats(), st.CtrlStats(), st.Now()
					pt, took := coldRead(t, st, fetch, overlapBase, n)
					got := overlapPin{took,
						counts(e0, st.Engine().Stats()), counts(m0, st.Engine().MetaStats()), counts(c0, st.CtrlStats())}
					call := fmt.Sprintf("fetch=%v n=%d", fetch, n)
					for i := range n {
						if want := requestLine(1, i, i); string(pt[i*mem.LineSize:][:mem.LineSize]) != string(want[:]) {
							t.Fatalf("%s: line %d reads %x, want %x", call, i, pt[i*mem.LineSize:][:8], want[:8])
						}
					}
					want := pins[k]
					k++
					if got.eng != want.eng || got.meta != want.meta || got.ctrl != want.ctrl {
						t.Fatalf("%s: counters moved\n  engine %s\n  meta   %s\n  ctrl   %s\nwant\n  engine %s\n  meta   %s\n  ctrl   %s",
							call, got.eng, got.meta, got.ctrl, want.eng, want.meta, want.ctrl)
					}
					if len(issue) != n {
						t.Fatalf("%s: the engine read %d lines", call, len(issue))
					}
					for i := range min(n, engine.MSHRs) {
						if issue[i] != t0 {
							t.Fatalf("%s: line %d issued at %d, want the call's start %d", call, i, issue[i], t0)
						}
					}
					if n > engine.MSHRs {
						if first := slices.Min(done[:engine.MSHRs]); issue[engine.MSHRs] != first {
							t.Fatalf("%s: line %d issued at %d, want %d, the earliest completion of the first %d",
								call, engine.MSHRs, issue[engine.MSHRs], first, engine.MSHRs)
						}
					}
					slowest := slices.Max(alone[:n])
					if took >= want.serial || took < slowest {
						t.Fatalf("%s: took %d cycles; want fewer than the serial %d and no fewer than the slowest line alone, %d",
							call, took, want.serial, slowest)
					}
				}
			}
		})
	}
}
