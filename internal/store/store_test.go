package store_test

import (
	"reflect"
	"testing"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/store"
)

// TestFetchThenOpenIsRead: for every design, Fetch followed by an
// Opener — the split the KV reopen scan runs, the open on a crypto
// engine of its own — returns what Read returns and leaves the store's
// clock, engine statistics and metadata-cache statistics where Read
// leaves them, over never-written, compressible (packed on Arsenal) and
// incompressible lines, and a line tampered on the device, which both
// count as one integrity violation.
func TestFetchThenOpenIsRead(t *testing.T) {
	const lines = 96
	tampered := mem.Addr(38 * mem.LineSize)
	build := func(t *testing.T, name string) *store.Store {
		st, err := store.Open(store.Options{Design: name, Capacity: 1 << 20,
			Params: engine.Params{UpdateLimit: 8, QueueEntries: 64}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < lines; i += 2 {
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
		ct, _ := st.Device().Peek(tampered)
		ct[3] ^= 1
		if err := st.Device().Write(tampered, ct); err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, name := range design.Names() {
		t.Run(name, func(t *testing.T) {
			read, split := build(t, name), build(t, name)
			var want []mem.Line
			for i := 0; i < lines; i++ {
				l, err := read.Read(mem.Addr(i * mem.LineSize))
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, l)
			}
			fetched, err := split.Fetch(nil, 0, lines)
			if err != nil {
				t.Fatal(err)
			}
			op := split.NewOpener()
			for i := range fetched {
				got, ok := op.Open(&fetched[i])
				if mem.Addr(i*mem.LineSize) != tampered && !ok {
					t.Fatalf("line %d failed authentication", i)
				}
				if got != want[i] {
					t.Fatalf("line %d: Fetch+Open %x, Read %x", i, got[:8], want[i][:8])
				}
			}
			if v := read.Engine().Stats().IntegrityViolations; v != 1 {
				t.Fatalf("Read counted %d violations for one tampered line", v)
			}
			if read.Now() != split.Now() || read.Engine().Stats() != split.Engine().Stats() ||
				!reflect.DeepEqual(read.Engine().MetaStats(), split.Engine().MetaStats()) {
				t.Fatalf("Read: now %d %+v %+v; Fetch+Open: now %d %+v %+v",
					read.Now(), read.Engine().Stats(), read.Engine().MetaStats(),
					split.Now(), split.Engine().Stats(), split.Engine().MetaStats())
			}
		})
	}
}
