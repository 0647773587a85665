// Package metrics provides the numeric aggregation and plain-text table
// rendering used by the experiment harness: means, geometric means of
// speedups, per-category grouping and aligned report tables.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMeanSpeedup aggregates relative gains (0.10 = +10%) multiplicatively:
// the geometric mean of (1+x), minus one. This is the standard way to
// average per-application speedups.
func GeoMeanSpeedup(gains []float64) float64 {
	if len(gains) == 0 {
		return 0
	}
	logSum := 0.0
	for _, g := range gains {
		f := 1 + g
		if f <= 0 {
			// A ≥100% slowdown cannot go through logs; clamp near zero.
			f = 1e-6
		}
		logSum += math.Log(f)
	}
	return math.Exp(logSum/float64(len(gains))) - 1
}

// Min and Max return the extrema (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Table renders aligned plain-text tables for experiment reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped, missing
// cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Pct formats a ratio as a signed percentage ("+14.4%").
func Pct(x float64) string {
	return fmt.Sprintf("%+.1f%%", 100*x)
}

// Pct0 formats a ratio as an unsigned percentage ("54.7%").
func Pct0(x float64) string {
	return fmt.Sprintf("%.1f%%", 100*x)
}
