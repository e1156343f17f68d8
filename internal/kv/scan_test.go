package kv

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/store"
)

// scanOutcome is everything a log scan leaves behind: the DB state it
// rebuilt, its error, and the engine-visible state of the store.
type scanOutcome struct {
	idx        map[string]valRef
	seq        uint64
	head       mem.Addr
	liveBytes  uint64
	err        string
	violations uint64
	now        int64
}

func outcomeOf(db *DB, err error) scanOutcome {
	o := scanOutcome{idx: db.idx, seq: db.seq, head: db.addr(db.head), liveBytes: db.liveBytes,
		violations: db.st.Engine().Stats().IntegrityViolations, now: db.st.Now()}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// scanDB is a DB as Open leaves it just before the scan, over a store
// that never compacted.
func scanDB(st *store.Store) *DB {
	hb := arenaHalf(st.Capacity())
	return &DB{st: st, idx: make(map[string]valRef), halfBytes: hb, ringBytes: 2 * hb}
}

// serialScan is the scan's specification on one goroutine: walk the
// header chain from the tail to its end — going on at the arena's
// first line once, if that holds the next frame — fetching every
// frame's lines after its header (a first line in an earlier build's
// format is the error); join each payload from its header line's head
// and those lines, open and checksum the payloads in log order up to
// the first failed checksum, which ends the log; decode and append the
// sealed frames up to the first malformed one, which is the error. A
// read error counts only if the log had not ended before it.
func serialScan(db *DB) error {
	op := db.st.NewOpener()
	ring := db.ringBytes
	lap := db.tail - db.tail%ring + ring
	last, at := db.seq, db.tail
	var err error
	ended, checking := false, true
	for {
		addr := db.addr(at)
		hl, rerr := db.st.Read(addr)
		if rerr != nil {
			if !ended {
				err = fmt.Errorf("kv: log scan read %#x: %w", uint64(addr), rerr)
			}
			break
		}
		h, perr := parseHeader(hl)
		if f := legacyFormat(&hl); perr != nil && at == db.tail && f != "" {
			err = fmt.Errorf("kv: log at %#x is in the %s frame format, which this build does not read", uint64(addr), f)
			break
		}
		need := uint64(frameLines(h.n)) * mem.LineSize
		if perr != nil || h.seq != last+1 || at%ring+need > ring || at+need > db.tail+ring {
			if at%ring == 0 || at >= lap {
				break
			}
			at = lap
			continue
		}
		lines, ferr := db.st.Fetch(nil, addr+mem.LineSize, payloadLines(h.n))
		if ferr != nil {
			if !ended {
				err = fmt.Errorf("kv: log scan payload at %#x: %w", uint64(addr+mem.LineSize), ferr)
			}
			break
		}
		if checking {
			payload := slices.Clone(h.head[:min(headLen, h.n)])
			for j := range lines {
				pt, _ := op.Open(&lines[j])
				payload = append(payload, pt[:min(mem.LineSize, h.n-headLen-j*mem.LineSize)]...)
			}
			switch recs, derr := decodePayload(nil, payload, h.count); {
			case mem.Checksum(payload) != h.ck:
				checking, ended = false, true
			case ended:
			case derr != nil:
				err, ended = fmt.Errorf("kv: log frame seq %d at %#x is malformed: %w", h.seq, uint64(addr), derr), true
			default:
				db.appended(at, addr, payload, recs)
			}
		}
		last, at = h.seq, at+need
	}
	return err
}

// scanImage writes frames batches of four 64 B puts, some of them
// overwrites, crashes and reboots the store, and returns it with the
// header address of every frame.
func scanImage(t *testing.T, frames int) (*store.Store, []mem.Addr) {
	t.Helper()
	st := compactStore(t, 1<<20)
	db := compactDB(t, st)
	val := bytes.Repeat([]byte{'v'}, 64)
	var addrs []mem.Addr
	for i := range frames {
		ops := make([]Op, 4)
		for j := range ops {
			ops[j] = Op{Kind: OpPut, Key: []byte(fmt.Sprintf("k%05d", (i*len(ops)+j)%(3*frames))), Val: val}
		}
		addrs = append(addrs, db.addr(db.head))
		if err := db.Batch(ops); err != nil {
			t.Fatal(err)
		}
	}
	st, _, err := store.Reboot(db.Crash(), store.Options{Params: engine.Params{UpdateLimit: 16, QueueEntries: 64}})
	if err != nil {
		t.Fatal(err)
	}
	return st, addrs
}

// tamperRaw flips one bit of the written line a on the store's device,
// below the engine: the adversary's edit of a running machine's DIMM.
func tamperRaw(t *testing.T, st *store.Store, a mem.Addr) {
	t.Helper()
	l, ok := st.Device().Peek(a)
	if !ok {
		t.Fatalf("line %#x never written", uint64(a))
	}
	l[5] ^= 1
	if err := st.Device().Write(a, l); err != nil {
		t.Fatal(err)
	}
}

// TestScanPipelineIdentity: the three-stage scan rebuilds what the
// serial specification rebuilds — keymap, seq, head, live bytes, error —
// and leaves the store's clock and integrity-violation count where the
// specification leaves them, with every chunk size and queue depth from
// one frame and one chunk up to the defaults, on a clean log, on the
// three ways a log goes wrong inside the header chain, and on the
// data-HMAC or counter line under a payload tampered on the device
// inside the boot verdict's window, whose outcomes are pinned. The log
// spans several default chunks, and every damaged frame has frames
// after it.
func TestScanPipelineIdentity(t *testing.T) {
	const frames, bad = 300, 130
	rewrite := func(t *testing.T, st *store.Store, a mem.Addr, edit func(*mem.Line)) {
		l, err := st.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		edit(&l)
		if err := st.Write(a, l); err != nil {
			t.Fatal(err)
		}
		if err := st.FlushEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		damage func(t *testing.T, st *store.Store, frame mem.Addr)
		check  func(t *testing.T, o scanOutcome, frame mem.Addr)
	}{
		{"clean", nil, func(t *testing.T, o scanOutcome, _ mem.Addr) {
			if o.err != "" || o.seq != frames || o.violations != 0 {
				t.Fatalf("clean log: seq %d, %d violations, error %q", o.seq, o.violations, o.err)
			}
		}},
		{"malformed sealed frame", func(t *testing.T, st *store.Store, frame mem.Addr) {
			rewrite(t, st, frame, func(l *mem.Line) {
				h, err := parseHeader(*l)
				if err != nil {
					t.Fatal(err)
				}
				h.count++
				*l = h.encode()
			})
		}, func(t *testing.T, o scanOutcome, frame mem.Addr) {
			want := fmt.Sprintf("kv: log frame seq %d at %#x is malformed", bad, uint64(frame))
			if len(o.err) < len(want) || o.err[:len(want)] != want || o.violations != 0 {
				t.Fatalf("error %q with %d violations, want %q", o.err, o.violations, want)
			}
		}},
		{"payload checksum", func(t *testing.T, st *store.Store, frame mem.Addr) {
			rewrite(t, st, frame+2*mem.LineSize, func(l *mem.Line) { l[5] ^= 1 })
		}, func(t *testing.T, o scanOutcome, frame mem.Addr) {
			if o.err != "" || o.seq != bad-1 || o.head != frame || o.violations != 0 {
				t.Fatalf("seq %d head %#x, %d violations, error %q; want the log to end at frame %d (%#x)",
					o.seq, uint64(o.head), o.violations, o.err, bad, uint64(frame))
			}
		}},
		{"payload tampered after reboot", func(t *testing.T, st *store.Store, frame mem.Addr) {
			a := frame + 2*mem.LineSize
			ct, ok := st.Device().Peek(a)
			if !ok {
				t.Fatalf("payload line %#x never written", uint64(a))
			}
			ct[5] ^= 1
			if err := st.Device().Write(a, ct); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, o scanOutcome, frame mem.Addr) {
			if o.err != "" || o.seq != bad-1 || o.head != frame || o.violations != 1 {
				t.Fatalf("seq %d head %#x, %d violations, error %q; want one violation and the log to end at frame %d (%#x)",
					o.seq, uint64(o.head), o.violations, o.err, bad, uint64(frame))
			}
		}},
		{"HMAC line tampered after reboot", func(t *testing.T, st *store.Store, frame mem.Addr) {
			ha, _ := st.Layout().HMACLineOf(frame + 2*mem.LineSize)
			tamperRaw(t, st, ha)
		}, func(t *testing.T, o scanOutcome, _ mem.Addr) {
			// A conventional block that fails its HMAC still decrypts, so
			// the payload checksum passes and the log runs to its end.
			if o.err != "" || o.seq != frames || o.head != 0x1c280 || o.violations != 1 || len(o.idx) != 900 {
				t.Fatalf("seq %d head %#x, %d violations, %d keys, error %q; want seq %d head 0x1c280, one violation, 900 keys",
					o.seq, uint64(o.head), o.violations, len(o.idx), o.err, frames)
			}
		}},
		{"counter line tampered after reboot", func(t *testing.T, st *store.Store, frame mem.Addr) {
			tamperRaw(t, st, st.Layout().CounterLineOf(frame+2*mem.LineSize))
		}, func(t *testing.T, o scanOutcome, _ mem.Addr) {
			// The page's first frame decrypts under the wrong counter: the
			// log ends before it.
			if o.err != "" || o.seq != 127 || o.head != 0xbf00 || o.violations != 4 || len(o.idx) != 508 {
				t.Fatalf("seq %d head %#x, %d violations, %d keys, error %q; want seq 127 head 0xbf00, 4 violations, 508 keys",
					o.seq, uint64(o.head), o.violations, len(o.idx), o.err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(scan func(*DB) error) (scanOutcome, mem.Addr) {
				st, addrs := scanImage(t, frames)
				if tc.damage != nil {
					tc.damage(t, st, addrs[bad-1])
				}
				db := scanDB(st)
				return outcomeOf(db, scan(db)), addrs[bad-1]
			}
			want, frame := run(serialScan)
			tc.check(t, want, frame)
			defer func(s struct{ chunk, depth int }) { scanShape = s }(scanShape)
			for _, shape := range []struct{ chunk, depth int }{{1, 1}, {scanChunk, scanDepth}} {
				scanShape = shape
				got, _ := run((*DB).scan)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("chunk %d depth %d: seq %d head %#x live %d keys %d err %q violations %d now %d; serial: seq %d head %#x live %d keys %d err %q violations %d now %d",
						shape.chunk, shape.depth, got.seq, uint64(got.head), got.liveBytes, len(got.idx), got.err, got.violations, got.now,
						want.seq, uint64(want.head), want.liveBytes, len(want.idx), want.err, want.violations, want.now)
				}
			}
		})
	}
}
