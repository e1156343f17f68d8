package memctrl

import (
	"reflect"
	"testing"

	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
)

// FuzzOwedQueue runs one decoded operation string on a controller that
// opens requests and on a twin that never does, on a faultless device
// and under a fault model that tears the WPQ at a crash. Each byte is
// one operation: its low three bits pick Read, ReadBypass, Write (two
// codes), a cycle advance, an epoch-window toggle, a request toggle or
// Crash; the next two bits pick one of two data-HMAC lines or two data
// lines, and an advance moves the clock by the top five bits times 100
// cycles (one line drains per 400). Requests may only make reads
// cheaper and device writes fewer: every read returns what the twin's
// does, Stats().Writes is the twin's, the device never holds more
// writes than the twin's, and after every EndRequest and Crash the two
// devices hold the same four lines and the same fault log. A window
// takes at most WriteQueue-1 writes, the most a drainer may hold (more
// wedges the WPQ).
func FuzzOwedQueue(f *testing.F) {
	// Op codes: 0 Read, 1 ReadBypass, 2 and 3 Write, 4 advance, 5 epoch
	// window, 6 request, 7 Crash; addresses 0 and 1 are HMAC lines.
	op := func(kind, addr byte) byte { return addr<<3 | kind }
	f.Add([]byte{op(6, 0), op(0, 0), op(2, 0), op(3, 0), op(5, 0), op(2, 0), op(5, 0), op(6, 0)})
	f.Add([]byte{op(6, 0), op(1, 1), op(2, 2), op(2, 1), op(4, 2), op(2, 1), op(0, 0), op(2, 1), op(7, 0), op(6, 0)})
	f.Add([]byte{op(6, 0), op(0, 0), op(2, 0), op(2, 3), op(4, 3), op(4, 3), op(3, 0), op(5, 0), op(2, 0), op(7, 0)})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, faults := range []*nvm.FaultModel{nil, {Seed: 1, TornWrites: true, ADRBudget: 1}} {
			ctrls := [2]*Controller{}
			for i := range ctrls {
				ctrls[i] = ctrl(t, Config{Banks: 1, WriteQueue: 8})
				ctrls[i].Device().SetFaultModel(faults)
			}
			req, twin := ctrls[0], ctrls[1]
			h := req.Device().Layout().HMACBase
			addrs := [4]mem.Addr{h, h + mem.LineSize, 0, mem.LineSize}
			same := func(i int, what string) {
				t.Helper()
				for _, a := range addrs {
					l1, ok1 := req.Device().Peek(a)
					l2, ok2 := twin.Device().Peek(a)
					if l1 != l2 || ok1 != ok2 {
						t.Fatalf("op %d, after %s: line %#x is %x/%v with requests, %x/%v without",
							i, what, uint64(a), l1[:1], ok1, l2[:1], ok2)
					}
				}
				if f1, f2 := req.TakeFaultLog(), twin.TakeFaultLog(); !reflect.DeepEqual(f1, f2) {
					t.Fatalf("op %d, after %s: fault logs differ: %+v with requests, %+v without", i, what, f1, f2)
				}
			}
			now := int64(0)
			for i, b := range ops {
				a := addrs[b>>3&3]
				switch b & 7 {
				case 0, 1:
					read := (*Controller).Read
					if b&7 == 1 {
						read = (*Controller).ReadBypass
					}
					l1, ok1, _ := read(req, now, a)
					l2, ok2, _ := read(twin, now, a)
					if l1 != l2 || ok1 != ok2 {
						t.Fatalf("op %d: read of %#x is %x/%v with requests, %x/%v without", i, uint64(a), l1[:1], ok1, l2[:1], ok2)
					}
				case 2, 3:
					if req.inDrain && len(req.held) >= req.cfg.WriteQueue-1 {
						continue
					}
					req.Write(now, a, line(byte(i)))
					twin.Write(now, a, line(byte(i)))
				case 4:
					now += int64(b>>3) * 100
				case 5:
					for _, c := range ctrls {
						if c.inDrain {
							if _, err := c.EndEpochDrain(now); err != nil {
								t.Fatal(err)
							}
						} else if err := c.BeginEpochDrain(); err != nil {
							t.Fatal(err)
						}
					}
				case 6:
					if !req.inReq {
						req.BeginRequest()
						continue
					}
					req.EndRequest()
					same(i, "EndRequest")
				case 7:
					req.Crash()
					twin.Crash()
					same(i, "Crash")
				}
				if w1, w2 := req.Device().Writes().Total(), twin.Device().Writes().Total(); w1 > w2 {
					t.Fatalf("op %d: %d device writes with requests, %d without", i, w1, w2)
				}
				if w1, w2 := req.Stats().Writes, twin.Stats().Writes; w1 != w2 {
					t.Fatalf("op %d: Stats().Writes %d with requests, %d without", i, w1, w2)
				}
			}
			for _, c := range ctrls {
				if err := c.Err(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
