package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// mathFloat64bits/mathFloat64frombits are tiny indirections over math so the
// atomic Gauge code reads clearly; they exist in this file to keep counter.go
// free of the math import.
func mathFloat64bits(f float64) uint64     { return math.Float64bits(f) }
func mathFloat64frombits(b uint64) float64 { return math.Float64frombits(b) }

// Table is a simple column-aligned results table: sim reports and
// `dabr` print their rows with it.
// The zero value is not usable; construct with NewTable.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	h := make([]string, len(headers))
	copy(h, headers)
	return &Table{title: title, headers: h}
}

// AddRow appends a row. Cells are formatted with %v; float64 cells are
// rendered with three significant decimals, the precision the paper plots.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			if v == math.Trunc(v) && math.Abs(v) < 1e9 {
				row[i] = fmt.Sprintf("%.1f", v)
			} else {
				row[i] = fmt.Sprintf("%.3f", v)
			}
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table as aligned ASCII art.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string, for tests and logs.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}
