package trace

import (
	"testing"
	"testing/quick"

	"ccnvm/internal/mem"
)

func TestAllProfilesValid(t *testing.T) {
	for _, name := range Benchmarks() {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
	}
}

func TestBenchmarksMatchPaperOrder(t *testing.T) {
	want := []string{"leslie3d", "libquantum", "gcc", "lbm", "soplex", "hmmer", "milc", "namd"}
	got := Benchmarks()
	if len(got) != len(want) {
		t.Fatalf("got %d benchmarks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("benchmark[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestUnknownProfile(t *testing.T) {
	if _, err := ProfileByName("mcf"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good, _ := ProfileByName("gcc")
	cases := []func(*Profile){
		func(p *Profile) { p.FootprintPages = 0 },
		func(p *Profile) { p.HotPages = 0 },
		func(p *Profile) { p.HotPages = p.FootprintPages + 1 },
		func(p *Profile) { p.HotFraction = 1.5 },
		func(p *Profile) { p.SeqRun = 0 },
		func(p *Profile) { p.AccessesPerLine = -1 },
		func(p *Profile) { p.StoreFraction = -0.1 },
		func(p *Profile) { p.MeanGap = -1 },
		func(p *Profile) { p.DepFraction = 2 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	p, _ := ProfileByName("lbm")
	a := Collect(MustGenerator(p, 7), 5000)
	b := Collect(MustGenerator(p, 7), 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs for same seed", i)
		}
	}
	c := Collect(MustGenerator(p, 8), 5000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	for _, name := range Benchmarks() {
		p, _ := ProfileByName(name)
		g := MustGenerator(p, 1)
		limit := mem.Addr(uint64(p.FootprintPages) * mem.PageSize)
		for i := 0; i < 20000; i++ {
			op := g.Next()
			if op.Addr >= limit {
				t.Fatalf("%s: address %#x beyond footprint %#x", name, uint64(op.Addr), uint64(limit))
			}
			if op.Addr%mem.LineSize != 0 {
				t.Fatalf("%s: unaligned address %#x", name, uint64(op.Addr))
			}
		}
	}
}

func TestStoreFractionApproximatelyHonored(t *testing.T) {
	p, _ := ProfileByName("lbm") // 0.50 stores
	g := MustGenerator(p, 3)
	stores := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if g.Next().Kind == Store {
			stores++
		}
	}
	frac := float64(stores) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("store fraction %.3f, want ~0.50", frac)
	}
}

func TestMeanGapApproximatelyHonored(t *testing.T) {
	p, _ := ProfileByName("namd") // MeanGap 14
	g := MustGenerator(p, 4)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(g.Next().Gap)
	}
	mean := sum / n
	if mean < 11 || mean > 17 {
		t.Fatalf("mean gap %.2f, want ~14", mean)
	}
}

func TestSpatialLocalityOfStreamers(t *testing.T) {
	// Streaming profiles must produce mostly sequential line transitions.
	p, _ := ProfileByName("libquantum")
	g := MustGenerator(p, 5)
	prev := g.Next().Addr
	seq, moves := 0, 0
	for i := 0; i < 30000; i++ {
		op := g.Next()
		if op.Addr != prev {
			moves++
			if op.Addr == prev+mem.LineSize {
				seq++
			}
			prev = op.Addr
		}
	}
	if ratio := float64(seq) / float64(moves); ratio < 0.9 {
		t.Fatalf("libquantum sequential transition ratio %.2f, want >= 0.9", ratio)
	}
}

func TestAccessesPerLineClustering(t *testing.T) {
	p, _ := ProfileByName("libquantum") // APL 4
	g := MustGenerator(p, 6)
	prev := g.Next().Addr
	run, runs, total := 1, 0, 0
	for i := 0; i < 30000; i++ {
		op := g.Next()
		if op.Addr == prev {
			run++
		} else {
			runs++
			total += run
			run = 1
			prev = op.Addr
		}
	}
	mean := float64(total) / float64(runs)
	if mean < 3 || mean > 5 {
		t.Fatalf("mean same-line run %.2f, want ~4", mean)
	}
}

func TestDepOnlyOnLoads(t *testing.T) {
	f := func(seed int64) bool {
		p, _ := ProfileByName("gcc")
		g := MustGenerator(p, seed)
		for i := 0; i < 2000; i++ {
			op := g.Next()
			if op.Kind == Store && op.Dep {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHotSetConcentration(t *testing.T) {
	p, _ := ProfileByName("hmmer") // 95% to 48 hot pages
	g := MustGenerator(p, 9)
	hotLimit := mem.Addr(uint64(p.HotPages) * mem.PageSize)
	hot := 0
	const n = 30000
	for i := 0; i < n; i++ {
		if g.Next().Addr < hotLimit {
			hot++
		}
	}
	if frac := float64(hot) / n; frac < 0.85 {
		t.Fatalf("hot-set fraction %.2f, want >= 0.85", frac)
	}
}

// TestPointerChaseAllLoadsDep pins the generator's dependent-load
// path: with DepFraction 1 every load feeds the next address.
func TestPointerChaseAllLoadsDep(t *testing.T) {
	g := MustGenerator(Profile{
		Name: "p", FootprintPages: 64, HotPages: 64, SeqRun: 1,
		StoreFraction: 0.02, MeanGap: 4, DepFraction: 1,
	}, 2)
	for i := 0; i < 2000; i++ {
		op := g.Next()
		if op.Kind == Load && !op.Dep {
			t.Fatal("pointer chase produced a non-dependent load")
		}
	}
}

// TestStreamIsSequential pins the generator's unit-stride path: long
// sequential runs over a cold footprint move one line at a time.
func TestStreamIsSequential(t *testing.T) {
	g := MustGenerator(Profile{
		Name: "s", FootprintPages: 2048, HotPages: 1, SeqRun: 512,
		AccessesPerLine: 4, StoreFraction: 0.5, MeanGap: 6, DepFraction: 0.1,
	}, 3)
	prev := g.Next().Addr
	seq, moves := 0, 0
	for i := 0; i < 20000; i++ {
		op := g.Next()
		if op.Addr != prev {
			moves++
			if op.Addr == prev+mem.LineSize {
				seq++
			}
			prev = op.Addr
		}
	}
	if float64(seq)/float64(moves) < 0.95 {
		t.Fatalf("stream sequential ratio %.2f too low", float64(seq)/float64(moves))
	}
}
