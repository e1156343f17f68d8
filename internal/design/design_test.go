package design_test

import (
	"reflect"
	"testing"

	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/memctrl"
	"ccnvm/internal/metacache"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/seccrypto"
)

const capacity = 1 << 30

// TestDescriptorsComplete asserts every registered descriptor is fully
// usable: non-empty unique name and label, a constructor that builds an
// engine answering to the registered name, and a real crash image that
// recovers under the design's capabilities.
func TestDescriptorsComplete(t *testing.T) {
	all := design.All()
	if len(all) == 0 {
		t.Fatal("no designs registered")
	}
	labels := map[string]string{}
	for _, d := range all {
		if d.Name == "" || d.Label == "" {
			t.Fatalf("descriptor %+v has an empty name or label", d)
		}
		if prev, dup := labels[d.Label]; dup {
			t.Fatalf("designs %s and %s share the label %q", prev, d.Name, d.Label)
		}
		labels[d.Label] = d.Name
		if d.New == nil {
			t.Fatalf("%s registered without a constructor", d.Name)
		}
		if got := design.Label(d.Name); got != d.Label {
			t.Fatalf("Label(%s) = %q, want %q", d.Name, got, d.Label)
		}

		lay := mem.MustLayout(capacity)
		dev := nvm.NewDevice(lay, nvm.PCMTiming(3))
		ctrl := memctrl.New(memctrl.Config{}, dev)
		e := d.New(lay, seccrypto.DefaultKeys(), ctrl, metacache.Config{}, engine.Params{UpdateLimit: 4})
		if e == nil {
			t.Fatalf("%s constructor returned nil", d.Name)
		}
		if e.Name() != d.Name {
			t.Fatalf("%s constructor built an engine calling itself %q", d.Name, e.Name())
		}

		// Recovery round-trip: drive a few write-backs, crash, recover.
		// The report must carry the design name, and every design that
		// does not cry wolf must recover a clean un-attacked image.
		now := int64(0)
		for i, a := range []mem.Addr{0, 64, 4096, 64 << 10} {
			for v := 0; v < 3; v++ {
				var l mem.Line
				for j := range l {
					l[j] = byte(i + v + j)
				}
				now = e.WriteBack(now, a, l) + 50
			}
		}
		img := e.Crash()
		rep := recovery.Recover(img)
		if rep.Design != d.Name {
			t.Fatalf("%s: recovery report names design %q", d.Name, rep.Design)
		}
		if !d.Caps.TamperOnCrash && !rep.Clean() {
			t.Fatalf("%s claims crash consistency but a clean crash recovered dirty: %+v", d.Name, rep)
		}
		if d.Caps.ZeroRetryRecovery && rep.Nretry != 0 {
			t.Fatalf("%s claims zero-retry recovery but needed %d retries", d.Name, rep.Nretry)
		}
	}
	// The paper designs are the in-figure prefix of the full list, and
	// the baseline is one of them.
	names, paper := design.Names(), design.PaperNames()
	if !reflect.DeepEqual(names[:len(paper)], paper) {
		t.Fatalf("PaperNames %v is not a prefix of Names %v", paper, names)
	}
	base := design.BaselineName()
	if d := design.MustLookup(base); !d.InFigures {
		t.Fatalf("baseline %s is not an in-figures design", base)
	}
}

// TestCapabilitiesMatchPreRegistryBehaviour cross-checks the declarative
// capability matrix against the hard-coded per-design behaviour the
// scattered switches encoded before the registry existed. Each map below
// is a literal transcription of a pre-refactor switch statement; if a
// catalog edit drifts from them, this test names the disagreement.
func TestCapabilitiesMatchPreRegistryBehaviour(t *testing.T) {
	oldLabels := map[string]string{
		"wocc":       "w/o CC",
		"sc":         "SC",
		"osiris":     "Osiris Plus",
		"ccnvm-wods": "cc-NVM w/o DS",
		"ccnvm":      "cc-NVM",
		"ccnvm-ext":  "cc-NVM+Ext",
		"arsenal":    "Arsenal",
	}
	oldAll := []string{"wocc", "sc", "osiris", "ccnvm-wods", "ccnvm", "ccnvm-ext", "arsenal"}
	oldPaper := []string{"wocc", "sc", "osiris", "ccnvm-wods", "ccnvm"}
	// torture.treePersisting: designs whose crash image must verify
	// against exactly one root register (epoch-atomic drains).
	oldTreePersisting := map[string]bool{"sc": true, "ccnvm": true, "ccnvm-wods": true, "ccnvm-ext": true}
	// recovery step 1 ran for every design except osiris — and arsenal,
	// whose own recovery path never ran it: its tree is on chip only.
	oldStep1Skipped := map[string]bool{"osiris": true, "arsenal": true}
	// recovery step 3 switch arms.
	oldNwbWindow := map[string]bool{"ccnvm": true}
	oldPerLinePage := map[string]bool{"ccnvm-ext": true}
	// the rebuilt-root comparison arms (arsenal's lived in its own path).
	oldRootCompare := map[string]bool{"osiris": true, "ccnvm-wods": true, "sc": true, "arsenal": true}
	// oracle special cases: sc expects zero retries, wocc is exempt from
	// clean-recovery/attack-caught (cries wolf on every crash).
	oldZeroRetry := map[string]bool{"sc": true}
	oldCryWolf := map[string]bool{"wocc": true}
	// experiments normalized everything against wocc.
	oldBaseline := "wocc"

	if got := design.Names(); !reflect.DeepEqual(got, oldAll) {
		t.Fatalf("Names() = %v, pre-refactor AllDesigns was %v", got, oldAll)
	}
	if got := design.PaperNames(); !reflect.DeepEqual(got, oldPaper) {
		t.Fatalf("PaperNames() = %v, pre-refactor Designs was %v", got, oldPaper)
	}
	if got := design.BaselineName(); got != oldBaseline {
		t.Fatalf("BaselineName() = %q, pre-refactor baseline was %q", got, oldBaseline)
	}
	for _, d := range design.All() {
		if d.Label != oldLabels[d.Name] {
			t.Errorf("%s: label %q, pre-refactor DesignLabel said %q", d.Name, d.Label, oldLabels[d.Name])
		}
		if d.Caps.EpochAtomic != oldTreePersisting[d.Name] {
			t.Errorf("%s: EpochAtomic=%v, pre-refactor treePersisting said %v",
				d.Name, d.Caps.EpochAtomic, oldTreePersisting[d.Name])
		}
		if d.Caps.TreePersisted == oldStep1Skipped[d.Name] {
			t.Errorf("%s: TreePersisted=%v, but recovery step 1 %s run for it before the registry",
				d.Name, d.Caps.TreePersisted, map[bool]string{true: "did not", false: "did"}[oldStep1Skipped[d.Name]])
		}
		if got := d.Caps.Replay == design.ReplayNwbWindow; got != oldNwbWindow[d.Name] {
			t.Errorf("%s: NwbWindow=%v, pre-refactor step 3 said %v", d.Name, got, oldNwbWindow[d.Name])
		}
		if got := d.Caps.Replay == design.ReplayPerLinePage; got != oldPerLinePage[d.Name] {
			t.Errorf("%s: PerLinePage=%v, pre-refactor step 3 said %v", d.Name, got, oldPerLinePage[d.Name])
		}
		if got := d.Caps.Replay == design.ReplayRootCompare; got != oldRootCompare[d.Name] {
			t.Errorf("%s: RootCompare=%v, pre-refactor root comparison said %v", d.Name, got, oldRootCompare[d.Name])
		}
		if d.Caps.ZeroRetryRecovery != oldZeroRetry[d.Name] {
			t.Errorf("%s: ZeroRetryRecovery=%v, pre-refactor SC oracle said %v",
				d.Name, d.Caps.ZeroRetryRecovery, oldZeroRetry[d.Name])
		}
		if d.Caps.TamperOnCrash != oldCryWolf[d.Name] {
			t.Errorf("%s: TamperOnCrash=%v, pre-refactor wocc exemptions said %v",
				d.Name, d.Caps.TamperOnCrash, oldCryWolf[d.Name])
		}
	}
}

// TestForImageFallback pins the conservative behaviour Recover applies
// to crash images of unregistered designs — the same path hand-built
// test images took before the registry existed: tree verified in step 1,
// no replay-window claim.
func TestForImageFallback(t *testing.T) {
	d := design.ForImage("experimental-thing")
	if !d.Caps.TreePersisted {
		t.Fatal("fallback must verify the tree in step 1, as pre-registry Recover did for any non-osiris name")
	}
	if d.Caps.Replay != design.ReplayUndetectable {
		t.Fatalf("fallback replay detection = %v, want none", d.Caps.Replay)
	}
	reg, ok := design.Lookup("ccnvm")
	got := design.ForImage("ccnvm")
	if !ok || got.Name != reg.Name || got.Caps != reg.Caps {
		t.Fatal("ForImage must return the registered descriptor for registered names")
	}
}

// TestDesignLabels pins Label's lookup for the paper's five designs
// and its fallback for an unregistered name: the name itself.
func TestDesignLabels(t *testing.T) {
	want := map[string]string{
		"wocc": "w/o CC", "sc": "SC", "osiris": "Osiris Plus",
		"ccnvm-wods": "cc-NVM w/o DS", "ccnvm": "cc-NVM", "other": "other",
	}
	for d, l := range want {
		if got := design.Label(d); got != l {
			t.Errorf("Label(%s) = %q, want %q", d, got, l)
		}
	}
}

// TestUnknownErrorListsNames asserts the CLI-facing error names every
// registered design, so a flag typo is self-fixing.
func TestUnknownErrorListsNames(t *testing.T) {
	err := design.UnknownError("cc-nvm")
	for _, n := range design.Names() {
		if !contains(err.Error(), n) {
			t.Fatalf("UnknownError output %q does not list %q", err, n)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
