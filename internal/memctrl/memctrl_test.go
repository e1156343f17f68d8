package memctrl

import (
	"errors"
	"testing"

	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
)

func ctrl(t testing.TB, cfg Config) *Controller {
	t.Helper()
	dev := nvm.NewDevice(mem.MustLayout(64<<20), nvm.Timing{ReadCycles: 100, WriteCycles: 400})
	return New(cfg, dev)
}

func line(b byte) mem.Line {
	var l mem.Line
	l[0] = b
	return l
}

func TestReadTiming(t *testing.T) {
	c := ctrl(t, Config{Banks: 1})
	_, _, done := c.Read(10, 0)
	if done != 110 {
		t.Fatalf("read done at %d, want 110", done)
	}
	// Second read on the same single bank queues behind the first.
	_, _, done2 := c.Read(10, 64)
	if done2 != 210 {
		t.Fatalf("second read done at %d, want 210", done2)
	}
}

func TestBankParallelism(t *testing.T) {
	c := ctrl(t, Config{Banks: 2})
	_, _, d0 := c.Read(0, 0)  // bank 0
	_, _, d1 := c.Read(0, 64) // bank 1
	if d0 != 100 || d1 != 100 {
		t.Fatalf("parallel banks: done = %d,%d, want 100,100", d0, d1)
	}
}

func TestWriteDurableAtAcceptance(t *testing.T) {
	c := ctrl(t, Config{})
	accept := c.Write(5, 0, line(7))
	if accept != 5 {
		t.Fatalf("accept = %d, want 5 (free slot)", accept)
	}
	got, ok := c.Device().Peek(0)
	if !ok || got != line(7) {
		t.Fatal("ADR write not durable at acceptance")
	}
}

func TestWPQBackpressure(t *testing.T) {
	c := ctrl(t, Config{Banks: 1, WriteQueue: 2})
	// Two writes fill the queue; service times 400 and 800 on one bank.
	c.Write(0, 0, line(1))
	c.Write(0, 64, line(2))
	accept := c.Write(0, 128, line(3))
	if accept != 400 {
		t.Fatalf("third write accepted at %d, want 400 (first retire)", accept)
	}
	st := c.Stats()
	if st.WPQFullStalls != 1 || st.WPQStallCycles != 400 {
		t.Fatalf("stall stats = %+v", st)
	}
}

func TestWPQSlotsReclaimedByTime(t *testing.T) {
	c := ctrl(t, Config{Banks: 1, WriteQueue: 1})
	c.Write(0, 0, line(1)) // finishes at 400
	accept := c.Write(500, 64, line(2))
	if accept != 500 {
		t.Fatalf("accept = %d, want 500 (slot already free)", accept)
	}
	if c.Stats().WPQFullStalls != 0 {
		t.Fatal("unexpected stall")
	}
}

func TestEpochDrainHoldsUntilEnd(t *testing.T) {
	c := ctrl(t, Config{Banks: 1})
	c.BeginEpochDrain()
	c.Write(0, 0, line(9))
	if _, ok := c.Device().Peek(0); ok {
		t.Fatal("held epoch write became durable before end signal")
	}
	if c.HeldEntries() != 1 {
		t.Fatalf("held = %d, want 1", c.HeldEntries())
	}
	last, err := c.EndEpochDrain(100)
	if err != nil {
		t.Fatal(err)
	}
	if last != 500 {
		t.Fatalf("drain background completion = %d, want 500", last)
	}
	got, ok := c.Device().Peek(0)
	if !ok || got != line(9) {
		t.Fatal("epoch write not durable after end signal")
	}
}

func TestEpochDrainForwarding(t *testing.T) {
	c := ctrl(t, Config{})
	c.Write(0, 0, line(1))
	c.BeginEpochDrain()
	c.Write(10, 0, line(2))
	got, ok, done := c.Read(20, 0)
	if !ok || got != line(2) {
		t.Fatal("read did not forward held entry")
	}
	if done != 20 {
		t.Fatalf("forwarded read took bank time: done=%d", done)
	}
	c.EndEpochDrain(30)
}

func TestCrashDropsHeldEntriesOnly(t *testing.T) {
	c := ctrl(t, Config{})
	c.Write(0, 0, line(1)) // durable
	c.BeginEpochDrain()
	c.Write(10, 64, line(2)) // held
	c.Crash()
	if _, ok := c.Device().Peek(64); ok {
		t.Fatal("held entry survived crash without end signal")
	}
	if got, ok := c.Device().Peek(0); !ok || got != line(1) {
		t.Fatal("durable entry lost in crash")
	}
	if c.Stats().DroppedOnCrash != 1 {
		t.Fatalf("DroppedOnCrash = %d, want 1", c.Stats().DroppedOnCrash)
	}
	if c.InDrain() {
		t.Fatal("controller still in drain after crash")
	}
}

func TestCrashAfterEndKeepsEntries(t *testing.T) {
	c := ctrl(t, Config{})
	c.BeginEpochDrain()
	c.Write(0, 64, line(2))
	c.EndEpochDrain(10)
	c.Crash()
	if got, ok := c.Device().Peek(64); !ok || got != line(2) {
		t.Fatal("end-signalled entry lost in crash (ADR should flush it)")
	}
}

func TestNestedBeginReturnsTypedError(t *testing.T) {
	c := ctrl(t, Config{})
	if err := c.BeginEpochDrain(); err != nil {
		t.Fatal(err)
	}
	if err := c.BeginEpochDrain(); !errors.Is(err, ErrNestedDrain) {
		t.Fatalf("nested BeginEpochDrain returned %v, want ErrNestedDrain", err)
	}
	if !errors.Is(c.Err(), ErrNestedDrain) {
		t.Fatalf("sticky Err() = %v, want ErrNestedDrain", c.Err())
	}
}

func TestEndWithoutBeginReturnsTypedError(t *testing.T) {
	c := ctrl(t, Config{})
	if _, err := c.EndEpochDrain(0); !errors.Is(err, ErrNoDrain) {
		t.Fatalf("EndEpochDrain without begin returned %v, want ErrNoDrain", err)
	}
}

func TestWedgedWPQReturnsTypedError(t *testing.T) {
	c := ctrl(t, Config{WriteQueue: 1})
	c.BeginEpochDrain()
	c.Write(0, 0, line(1))
	c.Write(0, 64, line(2))
	if !errors.Is(c.Err(), ErrWPQWedged) {
		t.Fatalf("wedged WPQ recorded %v, want ErrWPQWedged", c.Err())
	}
}

func TestEpochWriteCounting(t *testing.T) {
	c := ctrl(t, Config{})
	c.Write(0, 0, line(1))
	c.BeginEpochDrain()
	c.Write(0, 64, line(2))
	c.Write(0, 128, line(3))
	c.EndEpochDrain(0)
	st := c.Stats()
	if st.Writes != 3 || st.EpochWrites != 2 {
		t.Fatalf("stats = %+v, want 3 writes / 2 epoch", st)
	}
}

func TestDefaultConfig(t *testing.T) {
	c := ctrl(t, Config{})
	if len(c.readBanks) != 24 || c.cfg.WriteQueue != 64 || c.cfg.ReadQueue != 32 {
		t.Fatalf("defaults not applied: %+v banks=%d", c.cfg, len(c.readBanks))
	}
}

func TestFluidBacklogProperty(t *testing.T) {
	// Property: acceptance never precedes the request, occupancy never
	// exceeds the queue, and forward progress always happens.
	c := ctrl(t, Config{Banks: 2, WriteQueue: 8})
	now := int64(0)
	rng := int64(12345)
	for i := 0; i < 5000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		a := mem.Addr((rng>>33)&0xFFFF) * 64
		if a >= mem.Addr(32<<20) {
			a %= 32 << 20
		}
		accept := c.Write(now, a, line(byte(i)))
		if accept < now {
			t.Fatalf("acceptance %d before request %d", accept, now)
		}
		if c.backlog > float64(c.cfg.WriteQueue) {
			t.Fatalf("backlog %v exceeds queue %d", c.backlog, c.cfg.WriteQueue)
		}
		now = accept + rng%7&3
	}
}

func TestReadBypassForwardsHeld(t *testing.T) {
	c := ctrl(t, Config{})
	c.BeginEpochDrain()
	c.Write(0, 64, line(5))
	l, ok, done := c.ReadBypass(10, 64)
	if !ok || l != line(5) || done != 10 {
		t.Fatal("bypass read did not forward held entry instantly")
	}
	c.EndEpochDrain(20)
	// Normal bypass charges pure latency.
	_, _, done = c.ReadBypass(100, 64)
	if done != 200 {
		t.Fatalf("bypass read done at %d, want 200", done)
	}
}

// TestEndEpochDrainRounding pins the fluid-drain completion semantics:
// when the backlog divides the drain rate exactly, the returned cycle is
// exactly backlog*WriteCycles/Banks; when it does not, the completion
// truncates to the cycle at which less than one line remains in flight
// (advance's ceiling keeps that final sub-line entry occupying a WPQ
// slot until it is fully pushed, so nothing retires early).
func TestEndEpochDrainRounding(t *testing.T) {
	// Exact division: 2 lines at 1 line per 400 cycles.
	c := ctrl(t, Config{Banks: 1})
	c.BeginEpochDrain()
	c.Write(0, 0, line(1))
	c.Write(0, 64, line(2))
	done, err := c.EndEpochDrain(0)
	if err != nil {
		t.Fatal(err)
	}
	if done != 800 {
		t.Fatalf("exact drain done at %d, want 800", done)
	}

	// Fractional division: 5 lines at 3 lines per 400 cycles is
	// 666.67 cycles; the completion truncates, and the final sub-line
	// must still hold its slot at that cycle.
	c = ctrl(t, Config{Banks: 3})
	c.BeginEpochDrain()
	for i := 0; i < 5; i++ {
		c.Write(0, mem.Addr(i*64), line(byte(i+1)))
	}
	done, err = c.EndEpochDrain(0)
	if err != nil {
		t.Fatal(err)
	}
	rate := 3.0 / 400.0
	if lo := float64(done) * rate; lo < 4 {
		t.Fatalf("drain done at %d covers only %.3f of 5 lines", done, lo)
	}
	if hi := float64(done+1) * rate; hi < 5 {
		t.Fatalf("drain done at %d: even the next cycle drains only %.3f of 5 lines", done, hi)
	}
	if float64(done)*rate >= 5 {
		t.Fatalf("drain done at %d over-waits the fluid backlog", done)
	}
}

// TestCrashMidDrainAfterPartialEnd crashes while the backlog of an
// already end-signalled epoch is still draining, under an ADR energy
// budget smaller than the backlog: the first ADRBudget entries flush
// whole, the rest drop, and the suspects manifest names exactly the
// dropped lines.
func TestCrashMidDrainAfterPartialEnd(t *testing.T) {
	dev := nvm.NewDevice(mem.MustLayout(64<<20), nvm.Timing{ReadCycles: 100, WriteCycles: 400})
	dev.SetFaultModel(&nvm.FaultModel{Seed: 7, ADRBudget: 2})
	c := New(Config{Banks: 1}, dev)

	// Durable base content, fully serviced long before the drain.
	for i := 0; i < 4; i++ {
		c.Write(0, mem.Addr(i*64), line(byte(10+i)))
	}
	t0 := int64(1 << 20) // far past the base writes' service time
	if err := c.BeginEpochDrain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.Write(t0, mem.Addr(i*64), line(byte(20+i)))
	}
	if _, err := c.EndEpochDrain(t0); err != nil {
		t.Fatal(err)
	}
	c.Crash() // power fails before the four-entry backlog drains

	for i := 0; i < 2; i++ {
		if got, _ := c.Device().Peek(mem.Addr(i * 64)); got != line(byte(20+i)) {
			t.Fatalf("entry %d inside the ADR budget did not flush", i)
		}
	}
	for i := 2; i < 4; i++ {
		if got, _ := c.Device().Peek(mem.Addr(i * 64)); got != line(byte(10+i)) {
			t.Fatalf("entry %d past the ADR budget did not revert to its pre-drain content", i)
		}
	}
	log := c.TakeFaultLog()
	if log == nil || log.Flushed != 2 {
		t.Fatalf("fault log = %+v, want Flushed 2", log)
	}
	if len(log.Suspects) != 2 || log.Suspects[0] != 128 || log.Suspects[1] != 192 {
		t.Fatalf("suspects = %v, want the two dropped lines [128 192]", log.Suspects)
	}
	if got := c.Stats().DroppedByADR; got != 2 {
		t.Fatalf("DroppedByADR = %d, want 2", got)
	}
}

// TestReadOnlyRefusesEpochsButNotOwedOnes: an exhausted spare pool parks
// a new epoch with a typed refusal, yet an owed epoch (a counter
// overflow's, whose re-encrypted data is already on the media) still
// opens, holds and commits.
func TestReadOnlyRefusesEpochsButNotOwedOnes(t *testing.T) {
	c := ctrl(t, Config{})
	c.Device().SetFaultModel(&nvm.FaultModel{Seed: 1, SpareLines: 1})
	if err := c.Device().Remap(0, false); err != nil {
		t.Fatal(err)
	}
	if c.Health() != HealthReadOnly {
		t.Fatalf("health = %v with the one spare consumed, want read-only", c.Health())
	}
	var exhausted *nvm.SpareExhaustedError
	if err := c.BeginEpochDrain(); !errors.As(err, &exhausted) {
		t.Fatalf("BeginEpochDrain in read-only = %v, want *nvm.SpareExhaustedError", err)
	}
	if c.InDrain() || c.Stats().RefusedEpochs != 1 {
		t.Fatalf("refused epoch left inDrain=%v RefusedEpochs=%d", c.InDrain(), c.Stats().RefusedEpochs)
	}
	if err := c.BeginOwedEpochDrain(); err != nil {
		t.Fatalf("owed epoch refused: %v", err)
	}
	c.Write(0, 64, line(7))
	if _, err := c.EndEpochDrain(0); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Device().Peek(64); got != line(7) || c.Stats().RefusedEpochs != 1 {
		t.Fatalf("owed epoch did not commit its line (got %v, RefusedEpochs %d)", got[0], c.Stats().RefusedEpochs)
	}
}
