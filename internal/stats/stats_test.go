package stats

import (
	"strings"
	"testing"
)

func TestTable(t *testing.T) {
	tb := NewTable("Figure 5", "N", "APU", "CCSVM")
	tb.AddRow(16, 1.5, 0.001)
	tb.AddRow(1024, 0.25, 0.3)
	s := tb.String()
	if !strings.Contains(s, "Figure 5") || !strings.Contains(s, "CCSVM") {
		t.Fatalf("table missing header:\n%s", s)
	}
	if !strings.Contains(s, "1024") || !strings.Contains(s, "0.001") {
		t.Fatalf("table missing data:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), s)
	}
}
