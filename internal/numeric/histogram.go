package numeric

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bin histogram over [Lo, Hi]; values outside the
// range are clamped into the edge bins.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int
}

// NewHistogram builds a histogram of xs with the given number of bins over
// [lo, hi]. A non-positive bin count or an empty range is an *InputError —
// both can come straight from user-supplied trace statistics.
func NewHistogram(xs []float64, bins int, lo, hi float64) (*Histogram, error) {
	if bins < 1 {
		return nil, &InputError{Fn: "NewHistogram", Detail: fmt.Sprintf("bins %d < 1", bins)}
	}
	if hi <= lo || math.IsNaN(lo) || math.IsNaN(hi) {
		return nil, &InputError{Fn: "NewHistogram", Detail: fmt.Sprintf("range [%v, %v] empty", lo, hi)}
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	for _, x := range xs {
		h.Add(x)
	}
	return h, nil
}

// Add records one value.
func (h *Histogram) Add(x float64) {
	bins := len(h.Counts)
	i := int(math.Floor((x - h.Lo) / (h.Hi - h.Lo) * float64(bins)))
	if i < 0 {
		i = 0
	}
	if i >= bins {
		i = bins - 1
	}
	h.Counts[i]++
	h.N++
}

// BinRange returns the [lo, hi) interval of bin i.
func (h *Histogram) BinRange(i int) (lo, hi float64) {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64(i)*w, h.Lo + float64(i+1)*w
}

// Render draws the histogram as ASCII bars, one line per bin, with the bar
// width scaled so the fullest bin spans width characters.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		lo, hi := h.BinRange(i)
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&b, "[%7.2f, %7.2f) %s %d\n", lo, hi, strings.Repeat("#", bar), c)
	}
	return b.String()
}
