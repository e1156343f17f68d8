package core

import (
	"testing"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
)

// Address patterns of the write path's two regimes. Sequential append
// is a log: consecutive lines, a new counter line every 64 write-backs,
// drains at the update limit. Hot overwrite is a handful of lines on
// scattered pages rewritten in turn: the same few counter lines and
// paths in every epoch.
func appendAddr(i int) mem.Addr { return mem.Addr(i%4096) * mem.LineSize }
func hotAddr(i int) mem.Addr    { return mem.Addr(i%8) * 37 * mem.PageSize }

var wbPatterns = []struct {
	name string
	addr func(int) mem.Addr
}{{"append", appendAddr}, {"hot", hotAddr}}

// warm runs the pattern over its whole working set twice, so every
// line, metadata page and scratch buffer the steady state touches
// exists, and closes the epoch.
func warm(c *CCNVM, addr func(int) mem.Addr) int64 {
	now := int64(0)
	for i := 0; i < 2*4096; i++ {
		now = c.WriteBack(now, addr(i), fill(byte(i))) + 10
	}
	return c.Settle(now)
}

// TestWritePathAllocatesNothing is the allocation gate: on a warmed
// engine a write-back over an already-written working set — drains at
// the update limit included — and the settle that closes its epoch run
// entirely in memory the engine owns.
func TestWritePathAllocatesNothing(t *testing.T) {
	for _, variant := range []string{"ccnvm", "ccnvm-wods"} {
		for _, p := range wbPatterns {
			c := rig(t, engine.Params{}, variant)
			now := warm(c, p.addr)
			i := 0
			if n := testing.AllocsPerRun(2000, func() {
				now = c.WriteBack(now, p.addr(i), fill(byte(i))) + 10
				i++
			}); n != 0 {
				t.Errorf("%s/%s: WriteBack allocates %v times per call", variant, p.name, n)
			}
			if n := testing.AllocsPerRun(200, func() {
				for k := 0; k < 7; k++ { // an epoch the size of a KV batch frame
					now = c.WriteBack(now, p.addr(i), fill(byte(i))) + 10
					i++
				}
				now = c.Settle(now)
			}); n != 0 {
				t.Errorf("%s/%s: 7 write-backs and a Settle allocate %v times", variant, p.name, n)
			}
			if c.Stats().Drains < 100 {
				t.Fatalf("%s/%s: only %d drains: the gate did not cover the drain", variant, p.name, c.Stats().Drains)
			}
		}
	}
}

// benchEpochs times one op of wbs write-backs, closed by a Settle when
// settle is set, on a warmed cc-NVM engine.
func benchEpochs(b *testing.B, addr func(int) mem.Addr, wbs int, settle bool) {
	c := rig(b, engine.Params{}, "ccnvm")
	now := warm(c, addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < wbs; k++ {
			now = c.WriteBack(now, addr(i*wbs+k), fill(byte(i))) + 10
		}
		if settle {
			now = c.Settle(now)
		}
	}
}

// BenchmarkCCNVMWriteBack times one write-back, with the drains its own
// triggers fire (update limit, queue full) amortized in.
func BenchmarkCCNVMWriteBack(b *testing.B) {
	for _, p := range wbPatterns {
		b.Run(p.name, func(b *testing.B) { benchEpochs(b, p.addr, 1, false) })
	}
}

// BenchmarkCCNVMSettle times what a KV batch frame costs the engine:
// seven write-backs and the Settle that closes their epoch.
func BenchmarkCCNVMSettle(b *testing.B) {
	for _, p := range wbPatterns {
		b.Run(p.name, func(b *testing.B) { benchEpochs(b, p.addr, 7, true) })
	}
}
