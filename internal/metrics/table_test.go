package metrics

import (
	"strings"
	"testing"
)

func TestTableRenderAlignment(t *testing.T) {
	tb := NewTable("Policies", "policy", "latency_ms")
	tb.AddRow("policy1", 31.0)
	tb.AddRow("policy2", 871.25)
	out := render(t, tb)
	if !strings.Contains(out, "Policies") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "policy1") || !strings.Contains(out, "871.250") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, rule, 2 rows -> 5? title+header+rule+2 = 5
		if len(lines) != 5 {
			t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
		}
	}
}

func TestTableIntegerFloatsRenderCompact(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(31.0)
	if out := render(t, tb); !strings.Contains(out, "31.0") {
		t.Fatalf("whole float should render as 31.0:\n%s", out)
	}
}

func render(t *testing.T, tb *Table) string {
	t.Helper()
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
