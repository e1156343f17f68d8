package engine

import (
	"encoding/binary"
	"testing"
)

// refWindow is the simulator core's miss window as its memory read kept
// it before the window moved into this package: the completion cycles
// in a slice, the earliest swapped out for the last when a read finds
// all MSHRs taken.
type refWindow struct {
	now         int64
	outstanding []int64
}

// read issues one read completing delay cycles after it issues and
// returns its issue cycle. A dependent read stalls the core until it
// completes and takes no MSHR.
func (c *refWindow) read(delay int64, dep bool) int64 {
	if len(c.outstanding) >= 8 {
		earliest, ei := c.outstanding[0], 0
		for i, t := range c.outstanding {
			if t < earliest {
				earliest, ei = t, i
			}
		}
		if earliest > c.now {
			c.now = earliest
		}
		last := len(c.outstanding) - 1
		c.outstanding[ei] = c.outstanding[last]
		c.outstanding = c.outstanding[:last]
	}
	issue, done := c.now, c.now+delay
	if dep {
		if done > c.now {
			c.now = done
		}
	} else {
		c.outstanding = append(c.outstanding, done)
	}
	return issue
}

// FuzzMSHRWindow drives a core through Window and through refWindow
// with the same reads — each 4 input bytes a gap before the read, its
// completion delay and whether it is a dependent load — and requires
// the same issue cycle for every read, never more than MSHRs reads in
// flight, and the same cycle once every read has drained.
func FuzzMSHRWindow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0x80, 0, 0, 1, 0x40, 0, 0, 2, 0x20, 0, 0, 3, 0x10, 0, 0, 4, 0x08, 0,
		0, 5, 0x04, 0, 0, 6, 0x02, 0, 0, 7, 0x01, 0, 0, 8, 0x00, 0, 0, 9, 0x05, 1, 3, 0, 0x01, 0})
	f.Add([]byte{9, 0xff, 0xff, 0, 0, 0, 0, 0, 1, 0x10, 0, 1, 2, 0x20, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		var w Window
		var ref refWindow
		now := int64(0)
		for i := 0; i+4 <= len(in); i += 4 {
			gap := int64(in[i] & 0x3f)
			delay := int64(binary.LittleEndian.Uint16(in[i+1:]))
			dep := in[i+3]&1 == 1
			now += gap
			ref.now += gap
			want := ref.read(delay, dep)
			now = w.Issue(now)
			if now != want {
				t.Fatalf("read %d issued at %d, the reference at %d", i/4, now, want)
			}
			if done := now + delay; dep {
				now = max(now, done)
			} else {
				w.Add(done)
			}
			if w.n > MSHRs || w.n != len(ref.outstanding) || now != ref.now {
				t.Fatalf("read %d: %d in flight at cycle %d, the reference %d at %d",
					i/4, w.n, now, len(ref.outstanding), ref.now)
			}
		}
		for _, d := range ref.outstanding {
			ref.now = max(ref.now, d)
		}
		if got := w.Drain(now); got != ref.now || w.n != 0 {
			t.Fatalf("drained at %d with %d in flight, the reference at %d", got, w.n, ref.now)
		}
	})
}
