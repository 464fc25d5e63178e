package numeric

import (
	"errors"
	"fmt"
	"sort"
)

// Table is a piecewise-linear interpolation table over strictly increasing
// abscissae. It is the representation used for measured curves such as the
// fuel-cell polarization curve and the DC-DC converter efficiency map.
type Table struct {
	xs, ys []float64
}

// NewTable builds a table from parallel x/y slices. The xs must be strictly
// increasing and both slices must have the same length >= 2.
func NewTable(xs, ys []float64) (*Table, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("numeric: table length mismatch: %d xs vs %d ys", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return nil, errors.New("numeric: table needs at least 2 points")
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("numeric: table xs not strictly increasing at index %d", i)
		}
	}
	t := &Table{xs: make([]float64, len(xs)), ys: make([]float64, len(ys))}
	copy(t.xs, xs)
	copy(t.ys, ys)
	return t, nil
}

// MustTable is NewTable that panics on error; for package-level curve
// literals whose validity is a compile-time fact.
func MustTable(xs, ys []float64) *Table {
	t, err := NewTable(xs, ys)
	if err != nil {
		panic(err)
	}
	return t
}

// At evaluates the table at x with linear interpolation, clamping to the end
// values outside the domain.
func (t *Table) At(x float64) float64 {
	if x <= t.xs[0] {
		return t.ys[0]
	}
	n := len(t.xs)
	if x >= t.xs[n-1] {
		return t.ys[n-1]
	}
	i := sort.SearchFloat64s(t.xs, x)
	// xs[i-1] < x <= xs[i]
	x0, x1 := t.xs[i-1], t.xs[i]
	y0, y1 := t.ys[i-1], t.ys[i]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// Domain returns the abscissa range covered by the table.
func (t *Table) Domain() (lo, hi float64) { return t.xs[0], t.xs[len(t.xs)-1] }

// Knot returns the i-th (x, y) pair.
func (t *Table) Knot(i int) (x, y float64) { return t.xs[i], t.ys[i] }
