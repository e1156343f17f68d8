package recovery_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/recovery"
	"ccnvm/internal/store"
	"ccnvm/internal/torture"
)

// TestSplitWalkReportIdentical holds the split counter-recovery walk to
// the serial one: every crash image a slice of the torture matrix hands
// to recovery — clean, attacked, torn, stuck, spare-pool and half-applied
// images with an active journal — recovers to the same Report at 1, 2, 3
// and 7 parts, byte for byte in its exported fields and deeply in the
// walk result Apply reuses. Cells run one at a time: SetWalkParts is
// package state.
func TestSplitWalkReportIdentical(t *testing.T) {
	opts := torture.MatrixOpts{
		Designs:    []string{"ccnvm", "ccnvm-ext", "osiris"},
		Workloads:  []string{"hot", "hammer"},
		Attacks:    []string{"none", "spoof", "counter-replay"},
		Seeds:      1,
		Ops:        160,
		CrashPts:   2,
		FaultSeeds: 3,
		Reboots:    2,
		Spares:     2,
	}
	cells := append(torture.EnumerateCells(opts), torture.RegressionCells...)

	var seen struct{ clean, tampered, faults, stuck, spares, resumed, wide int }
	r := torture.DefaultRunner()
	r.Recover = func(img *engine.CrashImage) *recovery.Report {
		pages := map[mem.Addr]bool{}
		lay := img.Image.Layout
		for _, a := range img.Image.Store.Range(lay.Bounds(mem.RegionData)) {
			pages[lay.CounterLineOf(a)] = true
		}
		var want *recovery.Report
		var wantJSON []byte
		for _, parts := range []int{1, 2, 3, 7} {
			restore := recovery.SetWalkParts(parts)
			got := recovery.Recover(cloneImage(img))
			restore()
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if parts == 1 {
				want, wantJSON = got, gotJSON
				continue
			}
			if string(gotJSON) != string(wantJSON) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s image: %d-part walk report differs from the serial one:\n%s\nvs\n%s",
					img.Design, parts, gotJSON, wantJSON)
			}
		}
		switch {
		case want.Clean() && want.Lossless():
			seen.clean++
		case len(want.Tampered) > 0:
			seen.tampered++
		}
		if img.MediaFaults {
			seen.faults++
		}
		if len(img.Image.Stuck) > 0 {
			seen.stuck++
		}
		if len(img.Image.RemapTable) > 0 {
			seen.spares++
		}
		if want.Resumed {
			seen.resumed++
		}
		if len(pages) >= 7 {
			seen.wide++
		}
		restore := recovery.SetWalkParts(1)
		defer restore()
		return recovery.Recover(img)
	}
	for _, c := range cells {
		if c.RefusalReason() != "" {
			continue
		}
		if f := r.RunCell(c); f != nil {
			t.Fatalf("cell failed under the equivalence seam: %v", f)
		}
	}
	t.Logf("images: %+v", seen)
	if seen.clean == 0 || seen.tampered == 0 || seen.faults == 0 || seen.stuck == 0 ||
		seen.spares == 0 || seen.resumed == 0 || seen.wide == 0 {
		t.Fatalf("the slice missed an image class: %+v", seen)
	}
}

// BenchmarkCounterWalk times recovery of a clean cc-NVM crash image with
// the given number of data lines, serial and split in two: the
// measurement behind splitWalkMin.
func BenchmarkCounterWalk(b *testing.B) {
	for _, lines := range []int{512, 1024, 2048, 4096, 16384} {
		img := walkImage(b, lines)
		for _, parts := range []int{1, 2} {
			b.Run(fmt.Sprintf("lines=%d/parts=%d", lines, parts), func(b *testing.B) {
				restore := recovery.SetWalkParts(parts)
				defer restore()
				for i := 0; i < b.N; i++ {
					if rep := recovery.Recover(img); !rep.Clean() {
						b.Fatal("benchmark image does not recover clean")
					}
				}
			})
		}
	}
}

// walkImage crashes a cc-NVM store after writing n consecutive data
// lines once each.
func walkImage(b *testing.B, n int) *engine.CrashImage {
	st, err := store.Open(store.Options{Capacity: 64 << 20, Params: engine.Params{UpdateLimit: 16, QueueEntries: 64}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a := mem.Addr(i * mem.LineSize)
		if err := st.Write(a, pattern(a, byte(i))); err != nil {
			b.Fatal(err)
		}
	}
	return st.Crash()
}
