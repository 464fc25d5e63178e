package report

import (
	"strings"
	"testing"
)

func TestChartRendersSeries(t *testing.T) {
	c := NewChart("test", "t (s)", "I (A)")
	if err := c.Step("load", '#', []float64{0, 10, 20}, []float64{0.2, 1.2, 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Line("flat", '*', []float64{0, 20}, []float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	out := c.String()
	for _, want := range []string{"test", "t (s)", "I (A)", "#=load", "*=flat", "#", "*", "+--"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// The flat series occupies a single row.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.ContainsRune(line, '*') && !strings.Contains(line, "*=flat") {
			rows++
		}
	}
	if rows != 1 {
		t.Errorf("flat series spans %d rows, want 1:\n%s", rows, out)
	}
}

func TestChartStepVsLine(t *testing.T) {
	s := chartSeries{xs: []float64{0, 10}, ys: []float64{0, 10}, step: true}
	if got := s.valueAt(5); got != 0 {
		t.Errorf("step valueAt(5) = %v, want 0 (hold)", got)
	}
	s.step = false
	if got := s.valueAt(5); got != 5 {
		t.Errorf("line valueAt(5) = %v, want 5", got)
	}
	if got := s.valueAt(-1); got != 0 {
		t.Errorf("below-domain = %v", got)
	}
	if got := s.valueAt(99); got != 10 {
		t.Errorf("above-domain = %v", got)
	}
}

func TestChartErrors(t *testing.T) {
	c := NewChart("", "", "")
	if err := c.Line("bad", 'x', []float64{0, 1}, []float64{0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := c.Line("bad", 'x', nil, nil); err == nil {
		t.Error("empty series accepted")
	}
	if err := c.Line("bad", 'x', []float64{1, 0}, []float64{0, 1}); err == nil {
		t.Error("unsorted xs accepted")
	}
	empty := NewChart("", "", "")
	if !strings.Contains(empty.String(), "no series") {
		t.Error("empty chart should report no series")
	}
}

func TestChartConstantSeries(t *testing.T) {
	c := NewChart("const", "x", "y")
	if err := c.Line("c", 'o', []float64{0, 1}, []float64{5, 5}); err != nil {
		t.Fatal(err)
	}
	out := c.String()
	if !strings.Contains(out, "o") {
		t.Fatalf("constant series not drawn:\n%s", out)
	}
}

// TestChartBelowMinimumRefused: a plot area under 16×4 characters is an
// error, not a chart silently drawn at the minimum.
func TestChartBelowMinimumRefused(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {MinChartWidth - 1, 16}, {MinChartWidth, 3}, {MinChartWidth, 4}} {
		c := NewChart("", "", "")
		c.Width, c.Height = dim[0], dim[1]
		if err := c.Line("s", '.', []float64{0, 1}, []float64{0, 1}); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		err := c.Render(&b)
		if ok := dim[0] >= MinChartWidth && dim[1] >= 4; ok != (err == nil) {
			t.Fatalf("%d×%d chart: err = %v, want error %v", dim[0], dim[1], err, !ok)
		}
		if err == nil && !strings.Contains(b.String(), ".") {
			t.Fatalf("minimum chart unusable:\n%s", b.String())
		}
	}
}
