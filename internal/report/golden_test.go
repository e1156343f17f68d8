package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTableGolden pins the exact fixed-width rendering — column
// alignment, separator width, mixed row kinds — against a golden file,
// so accidental layout drift in the evaluation tables is caught.
func TestTableGolden(t *testing.T) {
	tb := NewTable("Normalized IPC", "gcc", "mcf", "average")
	tb.AddRatios("w/o CC", 1, 1, 1)
	tb.AddRatios("cc-NVM", 0.95, 0.92, 0.934987)
	tb.AddRow("writes", "1000", "4000", "n/a")
	got := []byte(tb.String())

	path := filepath.Join("testdata", "table.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestTableGolden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("table rendering diverges from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
