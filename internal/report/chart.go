package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// The smallest plot area Render draws, in characters.
const (
	MinChartWidth  = 16
	minChartHeight = 4
)

// Chart renders one or more (x, y) step series as an ASCII chart — enough
// to eyeball the Fig 7 current profiles or the Fig 2/3 curves in a
// terminal without leaving the CLI.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	// Width and Height are the plot-area dimensions in characters
	// (default 72×16, at least MinChartWidth×4).
	Width, Height int
	series        []chartSeries
}

type chartSeries struct {
	name   string
	glyph  byte
	xs, ys []float64
	step   bool
}

// NewChart creates an empty chart.
func NewChart(title, xLabel, yLabel string) *Chart {
	return &Chart{Title: title, XLabel: xLabel, YLabel: yLabel, Width: 72, Height: 16}
}

// Line adds a series drawn with linear interpolation between points.
func (c *Chart) Line(name string, glyph byte, xs, ys []float64) error {
	return c.add(name, glyph, xs, ys, false)
}

// Step adds a series drawn as a staircase (value holds until the next x) —
// the natural rendering for piecewise-constant current profiles.
func (c *Chart) Step(name string, glyph byte, xs, ys []float64) error {
	return c.add(name, glyph, xs, ys, true)
}

func (c *Chart) add(name string, glyph byte, xs, ys []float64, step bool) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("report: series %q: %d xs vs %d ys", name, len(xs), len(ys))
	}
	if len(xs) == 0 {
		return fmt.Errorf("report: series %q is empty", name)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return fmt.Errorf("report: series %q xs not sorted at %d", name, i)
		}
	}
	c.series = append(c.series, chartSeries{name: name, glyph: glyph, xs: xs, ys: ys, step: step})
	return nil
}

// valueAt evaluates a series at x (step-hold or linear).
func (s *chartSeries) valueAt(x float64) float64 {
	n := len(s.xs)
	if x <= s.xs[0] {
		return s.ys[0]
	}
	if x >= s.xs[n-1] {
		return s.ys[n-1]
	}
	// Linear scan is fine at chart resolution.
	i := 1
	for i < n && s.xs[i] <= x {
		i++
	}
	if s.step {
		return s.ys[i-1]
	}
	x0, x1 := s.xs[i-1], s.xs[i]
	if x1 == x0 {
		return s.ys[i]
	}
	t := (x - x0) / (x1 - x0)
	return s.ys[i-1]*(1-t) + s.ys[i]*t
}

// Render writes the chart to w.
func (c *Chart) Render(w io.Writer) error {
	if len(c.series) == 0 {
		return fmt.Errorf("report: chart has no series")
	}
	width, height := c.Width, c.Height
	if width < MinChartWidth || height < minChartHeight {
		return fmt.Errorf("report: a %d×%d chart is below the %d×%d minimum",
			width, height, MinChartWidth, minChartHeight)
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.series {
		xmin = math.Min(xmin, s.xs[0])
		xmax = math.Max(xmax, s.xs[len(s.xs)-1])
		for _, y := range s.ys {
			ymin = math.Min(ymin, y)
			ymax = math.Max(ymax, y)
		}
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	// A little headroom so the top glyphs are visible.
	pad := (ymax - ymin) * 0.05
	ymin -= pad
	ymax += pad

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range c.series {
		for col := 0; col < width; col++ {
			x := xmin + (xmax-xmin)*float64(col)/float64(width-1)
			y := s.valueAt(x)
			row := int((ymax - y) / (ymax - ymin) * float64(height-1))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = s.glyph
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	legend := make([]string, 0, len(c.series))
	for _, s := range c.series {
		legend = append(legend, fmt.Sprintf("%c=%s", s.glyph, s.name))
	}
	fmt.Fprintf(&b, "%s  [%s]\n", c.YLabel, strings.Join(legend, ", "))
	for r, row := range grid {
		yTop := ymax - (ymax-ymin)*float64(r)/float64(height-1)
		fmt.Fprintf(&b, "%8.3f |%s\n", yTop, string(row))
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%8s  %-*g%*g  (%s)\n", "", width/2, xmin, width-width/2-1, xmax, c.XLabel)
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the chart to a string, or an error message.
func (c *Chart) String() string {
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		return fmt.Sprintf("report: %v", err)
	}
	return b.String()
}
