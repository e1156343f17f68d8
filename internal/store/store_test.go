package store_test

import (
	"reflect"
	"testing"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/store"
)

// The mixed image the read tests share: every second line of the first
// mixedLines written, compressible (packed on Arsenal) and
// incompressible in turn, the rest never written, and one written line
// tampered on the device.
const mixedLines = 96

var mixedTampered = mem.Addr(38 * mem.LineSize)

func buildMixed(t *testing.T, name string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Design: name, Capacity: 1 << 20,
		Params: engine.Params{UpdateLimit: 8, QueueEntries: 64}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mixedLines; i += 2 {
		var l mem.Line
		if i%4 == 0 {
			l[0] = byte(i) // compressible
		} else {
			for k := range l {
				l[k] = byte(mem.Mix64(uint64(i*mem.LineSize + k)))
			}
		}
		if err := st.Write(mem.Addr(i*mem.LineSize), l); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.FlushEpoch(); err != nil {
		t.Fatal(err)
	}
	ct, _ := st.Device().Peek(mixedTampered)
	ct[3] ^= 1
	if err := st.Device().Write(mixedTampered, ct); err != nil {
		t.Fatal(err)
	}
	return st
}

// sameEngineWork fails unless a and b made the same engine work: engine
// and metadata-cache statistics, and one integrity violation each for
// the tampered line.
func sameEngineWork(t *testing.T, a, b *store.Store) {
	t.Helper()
	if v := a.Engine().Stats().IntegrityViolations; v != 1 {
		t.Fatalf("counted %d violations for one tampered line", v)
	}
	if a.Engine().Stats() != b.Engine().Stats() ||
		!reflect.DeepEqual(a.Engine().MetaStats(), b.Engine().MetaStats()) {
		t.Fatalf("engine work differs:\n  %+v %+v\n  %+v %+v",
			a.Engine().Stats(), a.Engine().MetaStats(), b.Engine().Stats(), b.Engine().MetaStats())
	}
}

// TestFetchThenOpenIsRead: for every design, Fetch followed by an
// Opener — the split the KV reopen scan runs, the open on a crypto
// engine of its own — returns what one ReadLines of the same lines
// returns and leaves the store's clock, the controller's counters and
// the engine and metadata-cache statistics where ReadLines leaves them,
// over the mixed image, whose tampered line both count as one integrity
// violation.
func TestFetchThenOpenIsRead(t *testing.T) {
	for _, name := range design.Names() {
		t.Run(name, func(t *testing.T) {
			read, split := buildMixed(t, name), buildMixed(t, name)
			want, err := read.ReadLines(nil, 0, mixedLines)
			if err != nil {
				t.Fatal(err)
			}
			fetched, err := split.Fetch(nil, 0, mixedLines)
			if err != nil {
				t.Fatal(err)
			}
			op := split.NewOpener()
			for i := range fetched {
				got, ok := op.Open(&fetched[i])
				if mem.Addr(i*mem.LineSize) != mixedTampered && !ok {
					t.Fatalf("line %d failed authentication", i)
				}
				if w := want[i*mem.LineSize:][:mem.LineSize]; string(got[:]) != string(w) {
					t.Fatalf("line %d: Fetch+Open %x, ReadLines %x", i, got[:8], w[:8])
				}
			}
			sameEngineWork(t, read, split)
			if read.Now() != split.Now() || read.CtrlStats() != split.CtrlStats() {
				t.Fatalf("ReadLines: now %d %+v; Fetch+Open: now %d %+v",
					read.Now(), read.CtrlStats(), split.Now(), split.CtrlStats())
			}
		})
	}
}

// TestRequestReadsHMACLineOnce: for every design, one n-line ReadLines
// returns what n one-line Reads return, with the same engine work, and
// reads from the device exactly the repeated data-HMAC lines fewer: each
// line whose HMAC line the line read before it (in the request) read
// too. The controller counts each of them as a request hit. A line
// Arsenal packed carries its HMAC inline and reads no HMAC line.
func TestRequestReadsHMACLineOnce(t *testing.T) {
	for _, name := range design.Names() {
		t.Run(name, func(t *testing.T) {
			one, many := buildMixed(t, name), buildMixed(t, name)
			var got []byte
			for i := range mixedLines {
				l, err := one.Read(mem.Addr(i * mem.LineSize))
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, l[:]...)
			}
			want, err := many.ReadLines(nil, 0, mixedLines)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatal("n Reads and one ReadLines return different plaintext")
			}
			sameEngineWork(t, one, many)

			packed := buildMixed(t, name).Crash().Sideband
			repeated := uint64(0)
			prev := mem.Addr(0)
			lay := many.Layout()
			for i := range mixedLines {
				a := mem.Addr(i * mem.LineSize)
				if packed[a] == engine.TagPacked {
					continue
				}
				if ha, _ := lay.HMACLineOf(a); ha == prev {
					repeated++
				} else {
					prev = ha
				}
			}
			if repeated == 0 {
				t.Fatal("the image repeats no HMAC line; the test shows nothing")
			}
			if d := one.Device().Reads() - many.Device().Reads(); d != repeated {
				t.Fatalf("ReadLines read %d lines fewer from the device, want %d (the repeated HMAC lines)", d, repeated)
			}
			if d := one.CtrlStats().Reads - many.CtrlStats().Reads; d != repeated {
				t.Fatalf("ReadLines made %d controller reads fewer, want %d", d, repeated)
			}
			if h0, h := one.CtrlStats().RequestHits, many.CtrlStats().RequestHits; h0 != 0 || h != repeated {
				t.Fatalf("request hits: %d over one-line Reads, %d over ReadLines; want 0 and %d", h0, h, repeated)
			}
		})
	}
}
