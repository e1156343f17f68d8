// Package report renders the evaluation's tables: fixed-width text
// tables of absolute and normalized metrics, matching the rows and
// series of the paper's figures.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple fixed-width table with one label column.
type Table struct {
	Title   string
	Columns []string // value column headers
	rows    []row
}

type row struct {
	label  string
	values []string
}

// NewTable creates a table with the given title and value columns.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of pre-formatted values.
func (t *Table) AddRow(label string, values ...string) {
	t.rows = append(t.rows, row{label, values})
}

// AddRatios appends a row of normalized ratios formatted to three
// decimals; a ratio <= 0 is undefined (see GeoMeanDefined) and reads
// n/a.
func (t *Table) AddRatios(label string, values ...float64) {
	s := make([]string, len(values))
	for i, v := range values {
		s[i] = "n/a"
		if v > 0 {
			s[i] = fmt.Sprintf("%.3f", v)
		}
	}
	t.AddRow(label, s...)
}

// String renders the table.
func (t *Table) String() string {
	labelW := len(t.Title)
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	colW := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colW[i] = len(c)
	}
	for _, r := range t.rows {
		for i, v := range r.values {
			if i < len(colW) && len(v) > colW[i] {
				colW[i] = len(v)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", labelW, t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "  %*s", colW[i], c)
	}
	b.WriteByte('\n')
	total := labelW
	for _, w := range colW {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", labelW, r.label)
		for i, v := range r.values {
			if i < len(colW) {
				fmt.Fprintf(&b, "  %*s", colW[i], v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// GeoMean returns the geometric mean of the positive values; the
// paper's "average" bars over normalized metrics are geometric means.
// GeoMeanDefined also says how many values it left out.
func GeoMean(values []float64) float64 {
	m, _ := GeoMeanDefined(values)
	return m
}

// GeoMeanDefined returns the geometric mean of the positive values and
// how many values it left out: a normalized ratio <= 0 is undefined (a
// zero baseline) and takes no part. The mean is 0, itself undefined,
// when no value is positive.
func GeoMeanDefined(values []float64) (mean float64, leftOut int) {
	logSum := 0.0
	for _, v := range values {
		if v <= 0 {
			leftOut++
			continue
		}
		logSum += math.Log(v)
	}
	if n := len(values) - leftOut; n > 0 {
		mean = math.Exp(logSum / float64(n))
	}
	return mean, leftOut
}

// Mean returns the arithmetic mean.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}
