package store_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/store"
)

// requestLine is the content of the i-th line of a test call: zero,
// compressible (Arsenal packs it) or incompressible, by kind.
func requestLine(step, i, kind int) mem.Line {
	var l mem.Line
	switch kind % 3 {
	case 1:
		l[0], l[9] = byte(step)|1, byte(i)
	case 2:
		for k := range l {
			l[k] = byte(mem.Mix64(uint64(step<<24 | i<<8 | k)))
		}
	}
	return l
}

// sameDevice fails unless the two stores' devices hold the same lines.
func sameDevice(t *testing.T, step int, a, b *store.Store) {
	t.Helper()
	end := mem.Addr(a.Layout().TotalBytes())
	la, lb := a.Device().Range(0, end), b.Device().Range(0, end)
	if len(la) != len(lb) {
		t.Fatalf("step %d: the devices hold %d and %d lines", step, len(la), len(lb))
	}
	for i, x := range la {
		if lb[i] != x {
			t.Fatalf("step %d: line %d of the devices is at %#x and %#x", step, i, uint64(x), uint64(lb[i]))
		}
		ca, _ := a.Device().Peek(x)
		cb, _ := b.Device().Peek(x)
		if ca != cb {
			t.Fatalf("step %d: the devices differ at %#x", step, uint64(x))
		}
	}
}

// TestRequestWritesHMACLineOnce: for every design, one n-line
// WriteLines leaves the device lines, plaintext and engine work of n
// one-line Writes, and writes exactly its request merges fewer data-HMAC
// lines to the device. A write merges only into the queued entry of the
// HMAC line the line written before it (in the request) wrote too, so
// there are at most as many merges as such repeats; how many of them
// find the entry still queued is the WPQ's timing. A line Arsenal
// packed carries its HMAC inline and writes no HMAC line. One-line
// Writes of distinct lines merge nothing, and under a fault model
// WriteLines merges nothing either: it writes the lines the one-line
// Writes do.
func TestRequestWritesHMACLineOnce(t *testing.T) {
	var merges uint64
	var ws []store.LineWrite
	for i := range 26 {
		ws = append(ws, store.LineWrite{Addr: mem.Addr(i+2) * mem.LineSize, Line: requestLine(1, i, i)})
	}
	params := engine.Params{UpdateLimit: 8, QueueEntries: 64}
	for _, name := range design.Names() {
		t.Run(name, func(t *testing.T) {
			open := func(faults *nvm.FaultModel) *store.Store {
				st, err := store.Open(store.Options{Design: name, Capacity: 1 << 20, Params: params, Faults: faults})
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			one, many := open(nil), open(nil)
			faulted := open(&nvm.FaultModel{Seed: 1, TornWrites: true, ADRBudget: 1})
			for _, w := range ws {
				if err := one.Write(w.Addr, w.Line); err != nil {
					t.Fatal(err)
				}
			}
			for _, st := range []*store.Store{many, faulted} {
				if k, err := st.WriteLines(ws); k != len(ws) || err != nil {
					t.Fatalf("WriteLines accepted %d of %d lines: %v", k, len(ws), err)
				}
			}
			sameDevice(t, 0, one, many)
			sameDevice(t, 0, one, faulted)
			if one.Engine().Stats() != many.Engine().Stats() ||
				!reflect.DeepEqual(one.Engine().MetaStats(), many.Engine().MetaStats()) {
				t.Fatalf("engine work differs:\n  %+v %+v\n  %+v %+v", one.Engine().Stats(),
					one.Engine().MetaStats(), many.Engine().Stats(), many.Engine().MetaStats())
			}
			for _, st := range []*store.Store{one, many} {
				got, err := st.ReadLines(nil, ws[0].Addr, len(ws))
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range ws {
					if string(got[i*mem.LineSize:][:mem.LineSize]) != string(w.Line[:]) {
						t.Fatalf("line %#x reads back other than written", uint64(w.Addr))
					}
				}
			}

			packed := many.Crash().Sideband
			repeated, unpacked, prev := uint64(0), uint64(0), mem.Addr(0)
			for _, w := range ws {
				if packed[w.Addr] == engine.TagPacked {
					continue
				}
				unpacked++
				if ha, _ := many.Layout().HMACLineOf(w.Addr); ha == prev {
					repeated++
				} else {
					prev = ha
				}
			}
			if repeated == 0 {
				t.Fatal("the lines repeat no HMAC line; the test shows nothing")
			}
			w1, w := one.Device().Writes(), many.Device().Writes()
			m1, m := one.CtrlStats().RequestMerges, many.CtrlStats().RequestMerges
			if m1 != 0 || m > repeated {
				t.Fatalf("request merges: %d over one-line Writes, %d over WriteLines; want 0 and at most %d", m1, m, repeated)
			}
			merges += m
			if w1.HMAC-w.HMAC != m || w1.Data != w.Data || w1.Counter != w.Counter || w1.Tree != w.Tree {
				t.Fatalf("device writes %v over one-line Writes, %v over WriteLines; want %d HMAC-line writes fewer",
					w1, w, m)
			}
			if c1, c := one.CtrlStats().Writes, many.CtrlStats().Writes; c1 != c {
				t.Fatalf("the controller accepted %d writes over one-line Writes, %d over WriteLines", c1, c)
			}
			if wf, m := faulted.Device().Writes(), faulted.CtrlStats().RequestMerges; wf != w1 || m != 0 || wf.HMAC != unpacked {
				t.Fatalf("under a fault model WriteLines made %d merges and device writes %v, want 0 and %v with %d HMAC-line writes",
					m, wf, w1, unpacked)
			}
		})
	}
	if merges == 0 {
		t.Fatal("no design merged a write; the test shows nothing")
	}
}

// FuzzRequestKeepsImage drives two stores of one design with the same
// calls: one makes each call as written (a WriteLines of many lines, a
// ReadLines, a ReclaimRange), the other replays it as one-line calls
// (Writes, Reads, one-line reclaims in address order). The request
// buffer may only save device reads and writes: after every call the
// devices must hold identical lines, reads and reclaim counts must
// agree, and the first store must not have read or written more lines
// on the device. The calls write zero, compressible (packed on Arsenal)
// and incompressible lines,
// and one form writes a single line up to 256 times in one call, so a
// minor counter overflows and the page is re-encrypted inside a
// request.
func FuzzRequestKeepsImage(f *testing.F) {
	// A design, then four bytes a call: kind, line, count, content. On
	// every design: line 5 written 131 times (an overflow), eight lines
	// from line 3, a read of 16 lines and a reclaim of 9.
	for d := range len(design.Names()) {
		f.Add([]byte{byte(d), 1, 5, 130, byte(d), 0, 3, 7, 1, 2, 0, 15, 0, 3, 4, 9, 0})
	}
	f.Add([]byte{0, 0, 0, 7, 1, 0, 4, 7, 2, 2, 0, 15, 0, 3, 3, 2, 2})
	f.Add([]byte{6, 0, 8, 7, 2, 1, 9, 200, 2, 2, 4, 15, 0, 3, 6, 13, 0, 0, 8, 3, 1})
	names := design.Names()
	params := engine.Params{UpdateLimit: 16, QueueEntries: 64}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		name := names[int(data[0])%len(names)]
		data = data[1:]
		open := func() *store.Store {
			st, err := store.Open(store.Options{Design: name, Capacity: 1 << 20, Params: params})
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		req, one := open(), open()
		for step := 0; len(data) >= 4 && step < 32; step, data = step+1, data[4:] {
			kind, a, n, c := data[0]%4, mem.Addr(data[1])*mem.LineSize, int(data[2]), int(data[3])
			switch kind {
			case 0, 1: // n%8+1 consecutive lines from a, or line a n+1 times
				count, stride := n%8+1, mem.LineSize
				if kind == 1 {
					count, stride = n+1, 0
				}
				var ws []store.LineWrite
				for i := range count {
					ws = append(ws, store.LineWrite{Addr: a + mem.Addr(i*stride), Line: requestLine(step, i, c+i)})
				}
				if k, err := req.WriteLines(ws); k != len(ws) || err != nil {
					t.Fatalf("step %d: WriteLines accepted %d of %d lines: %v", step, k, len(ws), err)
				}
				for _, w := range ws {
					if err := one.Write(w.Addr, w.Line); err != nil {
						t.Fatalf("step %d: Write: %v", step, err)
					}
				}
			case 2: // n%16+1 lines from a
				got, err := req.ReadLines(nil, a, n%16+1)
				if err != nil {
					t.Fatalf("step %d: ReadLines: %v", step, err)
				}
				var want []byte
				for i := range n%16 + 1 {
					l, err := one.Read(a + mem.Addr(i)*mem.LineSize)
					if err != nil {
						t.Fatalf("step %d: Read: %v", step, err)
					}
					want = append(want, l[:]...)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d: ReadLines(%#x, %d) differs from its Reads", step, uint64(a), n%16+1)
				}
			case 3: // the n%16 lines from a
				hi := a + mem.Addr(n%16)*mem.LineSize
				got, err := req.ReclaimRange(a, hi)
				if err != nil {
					t.Fatalf("step %d: ReclaimRange: %v", step, err)
				}
				want := 0
				for x := a; x < hi; x += mem.LineSize {
					k, err := one.ReclaimRange(x, x+mem.LineSize)
					if err != nil {
						t.Fatalf("step %d: one-line ReclaimRange: %v", step, err)
					}
					want += k
				}
				if got != want {
					t.Fatalf("step %d: ReclaimRange(%#x, %#x) reclaimed %d lines, one-line reclaims %d",
						step, uint64(a), uint64(hi), got, want)
				}
			}
			sameDevice(t, step, req, one)
			if r, r1 := req.Device().Reads(), one.Device().Reads(); r > r1 {
				t.Fatalf("step %d: requests read %d lines from the device, one-line calls only %d", step, r, r1)
			}
			if w, w1 := req.Device().Writes(), one.Device().Writes(); w.Total() > w1.Total() {
				t.Fatalf("step %d: requests wrote %v to the device, one-line calls only %v", step, w, w1)
			}
		}
	})
}

// TestWriteLinesStrikesLikeWrites: an armed crash counts every line of a
// WriteLines, so for every n the crash image after ArmCrash(n) and one
// WriteLines is the image after ArmCrash(n) and the same lines written
// one Write at a time, on every design.
func TestWriteLinesStrikesLikeWrites(t *testing.T) {
	var ws []store.LineWrite
	for i := range 10 {
		ws = append(ws, store.LineWrite{Addr: mem.Addr(i+2) * mem.LineSize, Line: requestLine(1, i, i)})
	}
	ws = append(ws, store.LineWrite{Addr: 3 * mem.LineSize, Line: requestLine(2, 0, 2)})
	params := engine.Params{UpdateLimit: 8, QueueEntries: 64}
	for _, name := range design.Names() {
		t.Run(name, func(t *testing.T) {
			image := func(n int, lines bool) []byte {
				st, err := store.Open(store.Options{Design: name, Capacity: 1 << 20, Params: params})
				if err != nil {
					t.Fatal(err)
				}
				st.ArmCrash(n)
				k := 0
				if lines {
					k, err = st.WriteLines(ws)
				} else {
					for ; k < len(ws); k++ {
						if err = st.Write(ws[k].Addr, ws[k].Line); err != nil {
							break
						}
					}
				}
				if want := min(n, len(ws)); k != want || (k < len(ws)) != errors.Is(err, store.ErrCrashed) {
					t.Fatalf("ArmCrash(%d): %d lines accepted (%v), want %d", n, k, err, want)
				}
				b, err := store.EncodeImage(st.Crash())
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			for n := 0; n <= len(ws); n++ {
				if !bytes.Equal(image(n, true), image(n, false)) {
					t.Fatalf("ArmCrash(%d): WriteLines and Writes leave different crash images", n)
				}
			}
		})
	}
}
