package memctrl

import (
	"reflect"
	"testing"

	"ccnvm/internal/mem"
)

// TestEventTapStream pins the tap's event taxonomy against a scripted
// write/drain sequence: non-epoch accepts, the begin signal, held
// entries, the commit point, and the post-commit ADR flushes in order.
func TestEventTapStream(t *testing.T) {
	c := ctrl(t, Config{})
	var got []Event
	c.SetEventTap(func(ev Event) { got = append(got, ev) })

	c.Write(0, 0, line(1))
	if err := c.BeginEpochDrain(); err != nil {
		t.Fatal(err)
	}
	c.Write(0, 64, line(2))
	c.Write(0, 128, line(3))
	if _, err := c.EndEpochDrain(10); err != nil {
		t.Fatal(err)
	}
	c.Write(20, 192, line(4))

	want := []Event{
		{EvWriteAccept, 0},
		{EvEpochBegin, 0},
		{EvEpochHold, 64},
		{EvEpochHold, 128},
		{EvEpochCommit, 0},
		{EvADRFlush, 64},
		{EvADRFlush, 128},
		{EvWriteAccept, 192},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event stream = %v, want %v", got, want)
	}
}

// TestEventTapObservational proves installing a tap changes nothing:
// timings, stats and device content match a tapless twin run.
func TestEventTapObservational(t *testing.T) {
	run := func(tap bool) (int64, Stats, mem.Line) {
		c := ctrl(t, Config{Banks: 1})
		if tap {
			c.SetEventTap(func(Event) {})
		}
		now := c.Write(0, 0, line(9))
		c.BeginEpochDrain()
		c.Write(now, 64, line(8))
		end, _ := c.EndEpochDrain(now + 5)
		got, _ := c.Device().Peek(64)
		return end, c.Stats(), got
	}
	e1, s1, l1 := run(false)
	e2, s2, l2 := run(true)
	if e1 != e2 || s1 != s2 || l1 != l2 {
		t.Fatalf("tap changed behavior: (%d,%+v,%v) vs (%d,%+v,%v)", e1, s1, l1, e2, s2, l2)
	}
}
