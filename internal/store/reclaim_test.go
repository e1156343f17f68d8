package store_test

import (
	"errors"
	"testing"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/store"
	"ccnvm/internal/torture"
)

// reclaimLine is the non-zero content of the i-th write of a reclaim
// test; salt keeps raw HostWrite content apart from engine writes.
func reclaimLine(i, salt int) mem.Line {
	var l mem.Line
	for k := range l {
		l[k] = byte(mem.Mix64(uint64(salt<<40 | i<<8 | k)))
	}
	l[0] |= 1
	return l
}

// reclaimReads runs ReclaimRange over [lo, hi) and returns the count it
// reports and the data lines the engine read meanwhile.
func reclaimReads(t *testing.T, st *store.Store, lo, hi mem.Addr) (int, uint64) {
	t.Helper()
	before := st.Engine().Stats().Reads
	n, err := st.ReclaimRange(lo, hi)
	if err != nil {
		t.Fatalf("ReclaimRange(%#x, %#x): %v", uint64(lo), uint64(hi), err)
	}
	return n, st.Engine().Stats().Reads - before
}

// TestRebootedStoreKnowsNoLine: a store zeroes the lines it wrote
// non-zero itself without reading them, but a rebooted store knows no
// line, so its reclaim reads every written line of the range first.
// Both reclaim the same lines.
func TestRebootedStoreKnowsNoLine(t *testing.T) {
	const lines = 40
	params := engine.Params{UpdateLimit: 16, QueueEntries: 64}
	for _, name := range torture.KVDesigns() {
		t.Run(name, func(t *testing.T) {
			open := func() *store.Store {
				st, err := store.Open(store.Options{Design: name, Capacity: 1 << 20, Params: params})
				if err != nil {
					t.Fatal(err)
				}
				for i := range lines {
					l := reclaimLine(i, 0)
					if i%4 == 3 {
						l = mem.Line{}
					}
					if err := st.Write(mem.Addr(i)*mem.LineSize, l); err != nil {
						t.Fatal(err)
					}
				}
				return st
			}
			end := mem.Addr(lines) * mem.LineSize

			live := open()
			n, reads := reclaimReads(t, live, 0, end)
			if want := lines - lines/4; n != want || reads != lines/4 {
				t.Fatalf("same session: reclaimed %d lines with %d reads, want %d with %d (the zero lines only)",
					n, reads, want, lines/4)
			}

			rb, _, err := store.Reboot(open().Crash(), store.Options{Params: params})
			if err != nil {
				t.Fatal(err)
			}
			n2, reads := reclaimReads(t, rb, 0, end)
			if n2 != n || reads != lines {
				t.Fatalf("rebooted: reclaimed %d lines with %d reads, want %d with %d (every line)", n2, reads, n, lines)
			}
			for i := range lines {
				if l, err := rb.Read(mem.Addr(i) * mem.LineSize); err != nil || l != (mem.Line{}) {
					t.Fatalf("line %d after reclaim: %x, %v", i, l[:8], err)
				}
			}
		})
	}
}

// TestPowerFailStopsReads: once an armed crash has struck a write, a
// read, a fetch and a reclaim fail with ErrCrashed and put nothing on
// the device. They used to run the engine, whose metadata fills on
// cc-NVM start eviction-triggered drains: reads over 64–128 MiB after
// one write per page over the first 16 MiB wrote 24 metadata lines
// after the power cut.
func TestPowerFailStopsReads(t *testing.T) {
	st, err := store.Open(store.Options{Capacity: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := range (16 << 20) / mem.PageSize {
		if err := st.Write(mem.Addr(i)*mem.PageSize, reclaimLine(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	st.ArmCrash(0)
	if err := st.Write(0, reclaimLine(0, 1)); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("struck write: %v, want ErrCrashed", err)
	}
	writes := st.Device().Writes()
	for a := mem.Addr(64 << 20); a < 128<<20; a += mem.PageSize {
		if _, err := st.Read(a); !errors.Is(err, store.ErrCrashed) {
			t.Fatalf("Read(%#x) after the power cut: %v, want ErrCrashed", uint64(a), err)
		}
	}
	if _, err := st.Fetch(nil, 64<<20, 64); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("Fetch after the power cut: %v, want ErrCrashed", err)
	}
	if _, err := st.ReclaimRange(0, 16<<20); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("ReclaimRange after the power cut: %v, want ErrCrashed", err)
	}
	if got := st.Device().Writes(); got != writes {
		t.Fatalf("the device took writes after the power cut: %v, then %v", writes, got)
	}
}

// FuzzReclaimKnown drives a store with zero and non-zero writes, raw
// HostWrites, struck writes (each followed by a reboot) and reclaims of
// random ranges, against a shadow of every line's plaintext. Each
// reclaim must report the lines of its range that were not zero, read
// through the engine exactly the written lines this session did not
// itself write non-zero — none that it did — and leave every line of
// the range reading zero. Every line outside the reclaims reads back its
// shadow at the end.
func FuzzReclaimKnown(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 0, 4, 0, 1, 2, 0, 5, 0, 0, 6})
	f.Add([]byte{3, 0, 7, 0, 2, 8, 0, 1, 9, 0, 4, 1, 0, 4, 0, 0, 0, 20})
	f.Add([]byte{5, 0, 2, 0, 1, 3, 0, 3, 0, 0, 5, 0, 90})
	f.Add([]byte{1, 0, 10, 0, 2, 11, 0, 3, 0, 0, 4, 0, 8, 0, 12, 0, 5, 9, 0})
	names := torture.KVDesigns()
	params := engine.Params{UpdateLimit: 16, QueueEntries: 64}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		name := names[int(data[0])%len(names)]
		data = data[1:]
		st, err := store.Open(store.Options{Design: name, Capacity: 1 << 20, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		plain := map[mem.Addr]mem.Line{} // engine-written lines
		raw := map[mem.Addr]bool{}       // HostWrite content: no plaintext
		known := map[mem.Addr]bool{}     // written non-zero this session
		for step := 0; len(data) >= 3 && step < 64; step, data = step+1, data[3:] {
			op, a, v := data[0]%6, mem.Addr(data[1])*mem.LineSize, int(data[2])
			switch op {
			case 0, 1, 2: // a write, zero one time in three
				l := reclaimLine(step, 0)
				if op == 2 {
					l = mem.Line{}
				}
				if err := st.Write(a, l); err != nil {
					t.Fatal(err)
				}
				plain[a], known[a] = l, l != mem.Line{}
				delete(raw, a)
			case 3: // a raw write below the engine
				st.HostWrite(st.Now(), a, reclaimLine(step, 1))
				raw[a] = true
				delete(plain, a)
				delete(known, a)
			case 4: // a struck write, then one reboot
				st.ArmCrash(0)
				if err := st.Write(a, reclaimLine(step, 0)); !errors.Is(err, store.ErrCrashed) {
					t.Fatalf("struck write: %v", err)
				}
				if _, err := st.ReclaimRange(0, 1<<20); !errors.Is(err, store.ErrCrashed) {
					t.Fatalf("ReclaimRange after the power cut: %v", err)
				}
				// Raw lines fail recovery's authentication, so they end
				// the input here.
				if len(raw) > 0 {
					return
				}
				if st, _, err = store.Reboot(st.Crash(), store.Options{Params: params}); err != nil {
					t.Fatal(err)
				}
				clear(known)
			case 5: // a reclaim of up to 95 lines from a
				hi := a + mem.Addr(v%96)*mem.LineSize
				wantN, wantReads := 0, uint64(0)
				for _, x := range st.Device().Range(a, hi) {
					switch {
					case raw[x]:
						// A raw line fails authentication; it counts when
						// the engine reads it as other than zero.
						if l, err := st.Read(x); err != nil {
							t.Fatal(err)
						} else if l != (mem.Line{}) {
							wantN++
						}
					case plain[x] != mem.Line{}:
						wantN++
					}
					if !known[x] {
						wantReads++
					}
				}
				n, reads := reclaimReads(t, st, a, hi)
				if n != wantN || reads != wantReads {
					t.Fatalf("step %d: ReclaimRange(%#x, %#x) reclaimed %d lines with %d reads, want %d with %d",
						step, uint64(a), uint64(hi), n, reads, wantN, wantReads)
				}
				for x := a; x < hi; x += mem.LineSize {
					if l, err := st.Read(x); err != nil || l != (mem.Line{}) {
						t.Fatalf("step %d: line %#x after reclaim: %x, %v", step, uint64(x), l[:8], err)
					}
					if _, ok := plain[x]; ok || raw[x] {
						plain[x] = mem.Line{}
					}
					delete(raw, x)
					delete(known, x)
				}
			}
		}
		for x, want := range plain {
			if l, err := st.Read(x); err != nil || l != want {
				t.Fatalf("line %#x: %x, %v, want %x", uint64(x), l[:8], err, want[:8])
			}
		}
	})
}
