package design_test

import (
	"os"
	"strings"
	"testing"

	"ccnvm/internal/design"
)

// TestReadmeDesignTable renders the README's design table from the
// registry and fails if the committed markdown has drifted. The table
// lives between the designs:begin/end markers; regenerate it by
// pasting this test's "want" output on mismatch.
func TestReadmeDesignTable(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	const begin, end = "<!-- designs:begin -->", "<!-- designs:end -->"
	text := string(raw)
	i := strings.Index(text, begin)
	j := strings.Index(text, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README.md lacks the %s / %s markers", begin, end)
	}
	got := strings.TrimSpace(text[i+len(begin) : j])
	want := strings.TrimSpace(renderDesignTable())
	if got != want {
		t.Errorf("README design table is out of date.\n--- README has ---\n%s\n--- registry renders ---\n%s", got, want)
	}
}

// renderDesignTable is the single rendering of the registry the README
// commits to. Everything in it derives from the Descriptor fields.
func renderDesignTable() string {
	var b strings.Builder
	b.WriteString("| design | paper label | role | capabilities |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, d := range design.All() {
		role := "extra"
		switch {
		case d.Baseline:
			role = "figures (baseline)"
		case d.InFigures:
			role = "figures"
		}
		b.WriteString("| `" + d.Name + "` | " + d.Label + " | " + role + " | " + capsWords(d.Caps) + " |\n")
	}
	return b.String()
}

func capsWords(c design.Capabilities) string {
	var parts []string
	if c.TamperOnCrash {
		parts = append(parts, "crash reads as tamper")
	} else {
		parts = append(parts, "crash-consistent")
	}
	if !c.TreePersisted {
		parts = append(parts, "volatile tree")
	}
	if c.EpochAtomic {
		parts = append(parts, "epoch-atomic")
	}
	if c.ZeroRetryRecovery {
		parts = append(parts, "zero-retry recovery")
	}
	switch c.Replay {
	case design.ReplayRootCompare:
		parts = append(parts, "replay: root compare")
	case design.ReplayNwbWindow:
		parts = append(parts, "replay: Nwb window")
	case design.ReplayPerLinePage:
		parts = append(parts, "replay: per-line page")
	default:
		parts = append(parts, "replay undetected")
	}
	return strings.Join(parts, "; ")
}
