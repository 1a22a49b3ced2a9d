package stats

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table used by the experiment harness
// to print the data series behind each figure of the paper.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v, floats with 4
// significant digits.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = formatNumber(x)
		case float32:
			row[i] = formatNumber(float64(x))
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
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
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
	}
	b.WriteString("\n")
	for i := range t.Columns {
		fmt.Fprintf(&b, "%-*s", widths[i]+2, strings.Repeat("-", widths[i]))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		for i, cell := range row {
			w := 8
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w+2, cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func formatNumber(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
