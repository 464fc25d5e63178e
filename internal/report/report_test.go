package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("Table 2", "Policy", "Normalized")
	tab.AddRow("Conv-DPM", "100%")
	tab.AddRow("FC-DPM", 0.308)
	out := tab.String()
	for _, want := range []string{"Table 2", "Policy", "Conv-DPM", "100%", "0.308"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns align: the header row and the first data row should place
	// the second column at the same offset.
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines:\n%s", out)
	}
	hIdx := strings.Index(lines[1], "Normalized")
	dIdx := strings.Index(lines[3], "100%")
	if hIdx != dIdx {
		t.Errorf("columns misaligned: header at %d, data at %d\n%s", hIdx, dIdx, out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tab := NewTable("", "A")
	tab.AddRow(1)
	if strings.HasPrefix(tab.String(), "\n") {
		t.Error("empty title should not emit a blank line")
	}
}

func TestFormatFloatTrims(t *testing.T) {
	tab := NewTable("", "X")
	tab.AddRow(1.5)
	if !strings.Contains(tab.String(), "1.5\n") {
		t.Errorf("trailing zeros not trimmed: %q", tab.String())
	}
	tab2 := NewTable("", "X")
	tab2.AddRow(2.0)
	if !strings.Contains(tab2.String(), "2\n") {
		t.Errorf("integral float not trimmed: %q", tab2.String())
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.308); got != "30.8%" {
		t.Fatalf("Percent = %q", got)
	}
	if got := Percent(1); got != "100.0%" {
		t.Fatalf("Percent = %q", got)
	}
}

func TestCSV(t *testing.T) {
	var buf bytes.Buffer
	c := NewCSV(&buf, "t", "if")
	c.Row(0, 1.2)
	c.Row(0.5, 0.53)
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	want := "t,if\n0,1.2\n0.5,0.53\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestCSVColumnMismatch(t *testing.T) {
	var buf bytes.Buffer
	c := NewCSV(&buf, "a", "b")
	c.Row(1)
	if c.Err() == nil {
		t.Fatal("column mismatch not reported")
	}
	// Subsequent rows are suppressed after an error.
	before := buf.Len()
	c.Row(1, 2)
	if buf.Len() != before {
		t.Error("rows written after error")
	}
}
