package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"ccnvm/internal/kv"
	"ccnvm/internal/store"
)

// getFunc reads one key from the namespace under verification.
type getFunc func(key string) (val string, found bool, err error)

// checkState verifies a recovered namespace against the model: every
// acknowledged key holds its last acknowledged value, and every batch
// is visible as a whole or not at all.
func checkState(get getFunc, acked map[string]string, groups [][]string) error {
	for k, want := range acked {
		got, found, err := get(k)
		switch {
		case err != nil:
			return fmt.Errorf("verify: get %q: %w", k, err)
		case !found:
			return fmt.Errorf("verify: acknowledged key %q is missing", k)
		case got != want:
			return fmt.Errorf("verify: key %q holds a value that was never its last acknowledged one", k)
		}
	}
	for _, g := range groups {
		visible := 0
		for _, k := range g {
			_, found, err := get(k)
			if err != nil {
				return fmt.Errorf("verify: get %q: %w", k, err)
			}
			if found {
				visible++
			}
		}
		if visible != 0 && visible != len(g) {
			return fmt.Errorf("verify: batch of %d keys starting at %q is partially visible (%d)", len(g), g[0], visible)
		}
	}
	return nil
}

func dbGet(db *kv.DB) getFunc {
	return func(k string) (string, bool, error) {
		v, found, err := db.Get([]byte(k))
		return string(v), found, err
	}
}

// recovery is the timings of the crash-to-serving path, one entry per
// repeat, in milliseconds: the whole path corrected for the host's
// speed and as measured, and its parts as measured.
type recovery struct {
	total, measured, load, reboot, open []float64
}

// recoverAgain says whether to restart from the image once more: the
// fixed count always, and a restart of a few milliseconds more often
// than that, so that its median is as steady as a long one's.
func (z sizes) recoverAgain(done int, start time.Time) bool {
	return done < z.recoveries || (done < 5*z.recoveries && time.Since(start) < z.recoverFor)
}

// freshProcess stands in for the process a restart happens in: what
// the crashed one held is collected and its pages go back to the
// operating system, outside the timer. Restarting on top of the old
// heap would leave the peak memory to the collector's timing.
func freshProcess() { debug.FreeOSMemory() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// crashAndRecover cuts the power on a quiescent stack, persists the
// crash image once under dir, and then repeats the restart path
// ccnvm-kvd -image takes: LoadImage -> Reboot -> kv.Open -> first
// verified Get, each repeat's total corrected for the host's speed over
// it when sp is not nil. The last reopened namespace is checked in full
// against the model.
func crashAndRecover(s *stack, dir string, z sizes, sp *speedometer, in *input) (recovery, error) {
	var rec recovery
	// The load pass's garbage goes first: how far the collector had got
	// would otherwise decide how high the image is piled on top of it.
	runtime.GC()
	acked, groups := in.model()
	var probe string
	for k := range acked {
		probe = k
		break
	}
	path := filepath.Join(dir, "crash.img")
	if err := store.SaveImage(path, s.db.Crash()); err != nil {
		return rec, err
	}
	var db *kv.DB
	for i, start := 0, time.Now(); z.recoverAgain(i, start); i++ {
		db = nil
		freshProcess()
		// The host's speed is read between the steps, outside their
		// timers: a restart of a second is too long to correct in one.
		sp.since()
		t0 := time.Now()
		img, err := store.LoadImage(path)
		if err != nil {
			return rec, err
		}
		load, loadSlow := ms(time.Since(t0)), sp.since()
		t1 := time.Now()
		st, rep, err := store.Reboot(img, store.Options{Params: engineParams})
		if err != nil {
			return rec, fmt.Errorf("recovery refused the image: %w", err)
		}
		if !rep.Clean() {
			return rec, fmt.Errorf("recovery report is not clean")
		}
		reboot, rebootSlow := ms(time.Since(t1)), sp.since()
		t2 := time.Now()
		if db, err = kv.Open(st, kv.Options{}); err != nil {
			return rec, err
		}
		if v, found, err := db.Get([]byte(probe)); err != nil || !found || string(v) != acked[probe] {
			return rec, fmt.Errorf("verify: first get after recovery: found=%v err=%v", found, err)
		}
		open, openSlow := ms(time.Since(t2)), sp.since()
		rec.load = append(rec.load, load)
		rec.reboot = append(rec.reboot, reboot)
		rec.open = append(rec.open, open)
		rec.measured = append(rec.measured, load+reboot+open)
		rec.total = append(rec.total, load/loadSlow+reboot/rebootSlow+open/openSlow)
	}
	if err := checkState(dbGet(db), acked, groups); err != nil {
		return rec, err
	}
	if n := db.Store().Engine().Stats().IntegrityViolations; n != 0 {
		return rec, fmt.Errorf("verify: %d integrity violations reading the recovered namespace", n)
	}
	return rec, nil
}
