package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("bench", "A", "BB")
	tab.AddRow("x", "1", "2")
	tab.AddRatios("longer-label", 0.5, 1.25)
	s := tab.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "bench") || !strings.Contains(lines[0], "BB") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[3], "0.500") || !strings.Contains(lines[3], "1.250") {
		t.Fatalf("float row wrong: %q", lines[3])
	}
	// Columns align: every data line has the same width.
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("misaligned rows:\n%s", s)
	}
	// An undefined ratio (<= 0) prints as n/a, never as a number.
	tab = NewTable("r", "A", "B", "C")
	tab.AddRatios("x", 0, -1, 2)
	if got := strings.Fields(strings.Split(tab.String(), "\n")[2]); strings.Join(got, " ") != "x n/a n/a 2.000" {
		t.Fatalf("ratio row = %q, want x n/a n/a 2.000", got)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean(1,4) = %v, want 2", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
	if got := GeoMean([]float64{1, 0, 4, -1}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean(1,0,4,-1) = %v, want 2: non-positive values are left out", got)
	}
	if m, n := GeoMeanDefined([]float64{1, 0, 4, -1}); math.Abs(m-2) > 1e-12 || n != 2 {
		t.Fatalf("GeoMeanDefined(1,0,4,-1) = %v, %d; want 2, 2", m, n)
	}
	if m, n := GeoMeanDefined([]float64{0, 0}); m != 0 || n != 2 {
		t.Fatalf("GeoMeanDefined(0,0) = %v, %d; want 0, 2", m, n)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}
