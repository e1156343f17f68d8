package engine

// MSHRs is how many memory reads the paper's out-of-order core keeps in
// flight: independent misses overlap up to this bound.
const MSHRs = 8

// Window is the core's outstanding-miss window: the completion cycles
// of the memory reads in flight, at most MSHRs of them. The simulator's
// core keeps one across a run; the storage-engine facade opens one per
// call, whose lines' addresses are all known before the first issues.
// The zero Window is empty.
type Window struct {
	out [MSHRs]int64
	n   int
}

// Issue returns the cycle at which a read wanted at now issues: now
// while an MSHR is free, else no earlier than the earliest completion
// in flight, whose MSHR it frees. A read recorded with Add takes the
// freed MSHR; a dependent load, which stalls the core until its value
// arrives, takes none.
func (w *Window) Issue(now int64) int64 {
	if w.n < MSHRs {
		return now
	}
	ei := 0
	for i := 1; i < w.n; i++ {
		if w.out[i] < w.out[ei] {
			ei = i
		}
	}
	now = max(now, w.out[ei])
	w.n--
	w.out[ei] = w.out[w.n]
	return now
}

// Add records a read that Issue issued as in flight until done.
func (w *Window) Add(done int64) {
	w.out[w.n] = done
	w.n++
}

// Drain returns the cycle at which every read in flight has completed,
// no earlier than now, and empties the window.
func (w *Window) Drain(now int64) int64 {
	for _, t := range w.out[:w.n] {
		now = max(now, t)
	}
	w.n = 0
	return now
}
