// Package report renders experiment results as plain-text tables and CSV
// series for the figure regenerations.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v unless already strings.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// formatFloat renders floats compactly: 4 significant decimals, trimmed.
func formatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 4, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(t.Headers) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return fmt.Sprintf("report: %v", err)
	}
	return b.String()
}

// Percent formats a ratio as a percentage with one decimal, the paper's
// table style ("30.8 %").
func Percent(ratio float64) string {
	return fmt.Sprintf("%.1f%%", ratio*100)
}

// CSV is a minimal float-series CSV writer for figure data.
type CSV struct {
	w       io.Writer
	err     error
	columns int
}

// NewCSV writes the header row and returns the writer.
func NewCSV(w io.Writer, headers ...string) *CSV {
	c := &CSV{w: w, columns: len(headers)}
	_, c.err = fmt.Fprintln(w, strings.Join(headers, ","))
	return c
}

// Row writes one row of values; a column-count mismatch is recorded as an
// error surfaced by Err.
func (c *CSV) Row(values ...float64) {
	if c.err != nil {
		return
	}
	if len(values) != c.columns {
		c.err = fmt.Errorf("report: CSV row has %d values, want %d", len(values), c.columns)
		return
	}
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	_, c.err = fmt.Fprintln(c.w, strings.Join(parts, ","))
}

// Err returns the first write error.
func (c *CSV) Err() error { return c.err }
