package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// SVGChart renders step/line series as a standalone SVG document — the
// publication-quality counterpart of the ASCII Chart, used by `fcdpm
// figures` to emit Fig 2/3/7 as vector figures. Only the stdlib is used:
// the SVG is assembled as text.
type SVGChart struct {
	Title          string
	XLabel, YLabel string
	// Width and Height are the document dimensions in pixels (default
	// 720×400).
	Width, Height int
	series        []svgSeries
}

type svgSeries struct {
	name   string
	color  string
	xs, ys []float64
	step   bool
}

// svgPalette cycles through distinguishable stroke colors.
var svgPalette = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"}

// NewSVGChart creates an empty SVG chart.
func NewSVGChart(title, xLabel, yLabel string) *SVGChart {
	return &SVGChart{Title: title, XLabel: xLabel, YLabel: yLabel, Width: 720, Height: 400}
}

// Line adds a linearly interpolated series.
func (c *SVGChart) Line(name string, xs, ys []float64) error { return c.add(name, xs, ys, false) }

// Step adds a staircase series (value holds until the next x).
func (c *SVGChart) Step(name string, xs, ys []float64) error { return c.add(name, xs, ys, true) }

func (c *SVGChart) add(name string, xs, ys []float64, step bool) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("report: svg series %q: %d xs vs %d ys", name, len(xs), len(ys))
	}
	if len(xs) == 0 {
		return fmt.Errorf("report: svg series %q is empty", name)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return fmt.Errorf("report: svg series %q xs not sorted at %d", name, i)
		}
	}
	color := svgPalette[len(c.series)%len(svgPalette)]
	c.series = append(c.series, svgSeries{name: name, color: color, xs: xs, ys: ys, step: step})
	return nil
}

// Render writes the SVG document to w.
func (c *SVGChart) Render(w io.Writer) error {
	if len(c.series) == 0 {
		return fmt.Errorf("report: svg chart has no series")
	}
	width, height := c.Width, c.Height
	if width < 200 {
		width = 200
	}
	if height < 120 {
		height = 120
	}
	const (
		marginL = 64
		marginR = 16
		marginT = 40
		marginB = 48
	)
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)

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
	pad := (ymax - ymin) * 0.06
	ymin -= pad
	ymax += pad

	px := func(x float64) float64 { return float64(marginL) + (x-xmin)/(xmax-xmin)*plotW }
	py := func(y float64) float64 { return float64(marginT) + (ymax-y)/(ymax-ymin)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	if c.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="24" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n",
			marginL, svgEscape(c.Title))
	}
	// Axes box and gridlines with tick labels.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.0f" height="%.0f" fill="none" stroke="#333"/>`+"\n",
		marginL, marginT, plotW, plotH)
	const ticks = 5
	for i := 0; i <= ticks; i++ {
		fx := xmin + (xmax-xmin)*float64(i)/ticks
		fy := ymin + (ymax-ymin)*float64(i)/ticks
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n",
			px(fx), marginT, px(fx), float64(marginT)+plotH)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n",
			marginL, py(fy), float64(marginL)+plotW, py(fy))
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			px(fx), float64(height-marginB)+16, svgNum(fx))
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, py(fy)+4, svgNum(fy))
	}
	// Axis labels.
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
		float64(marginL)+plotW/2, height-10, svgEscape(c.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%.1f" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`+"\n",
		float64(marginT)+plotH/2, float64(marginT)+plotH/2, svgEscape(c.YLabel))

	// Series polylines.
	for _, s := range c.series {
		var pts strings.Builder
		for i := range s.xs {
			if s.step && i > 0 {
				// Horizontal run to the new x at the old y.
				fmt.Fprintf(&pts, "%.1f,%.1f ", px(s.xs[i]), py(s.ys[i-1]))
			}
			fmt.Fprintf(&pts, "%.1f,%.1f ", px(s.xs[i]), py(s.ys[i]))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.6"/>`+"\n",
			strings.TrimSpace(pts.String()), s.color)
	}
	// Legend.
	for i, s := range c.series {
		lx := marginL + 10
		ly := marginT + 16 + i*16
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			lx, ly-4, lx+18, ly-4, s.color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			lx+24, ly, svgEscape(s.name))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// svgNum formats a tick value compactly.
func svgNum(v float64) string {
	if v == 0 {
		return "0"
	}
	a := math.Abs(v)
	switch {
	case a >= 100:
		return fmt.Sprintf("%.0f", v)
	case a >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// svgEscape escapes XML-special characters in labels.
func svgEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
