// Package report renders experiment results as aligned text tables, CSV,
// and JSON — the output formats of the cmd/experiments binary, the bench
// harness, and the hmemd service's job results.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of string cells.
type Table struct {
	Title   string     `json:"title"`
	Note    string     `json:"note,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// New returns a table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; missing cells render empty, extras are kept.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, w := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// WriteCSV emits the table as CSV (headers first).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return fmt.Errorf("report: writing CSV header: %w", err)
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("report: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// F formats a float with prec decimals.
func F(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// X formats a ratio as "1.63x".
func X(v float64) string { return fmt.Sprintf("%.2fx", v) }

// Pct formats a fraction as "12.3%".
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Int formats an integer.
func Int(v int) string { return fmt.Sprintf("%d", v) }
