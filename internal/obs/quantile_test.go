package obs

import (
	"math"
	"testing"
)

// TestHistogramQuantileTable pins the bounded-bucket interpolation on a
// hand-computable layout: bounds {1, 2, 4}, so buckets are
// (-inf,1], (1,2], (2,4], (4,+inf).
func TestHistogramQuantileTable(t *testing.T) {
	build := func(obs ...float64) *Histogram {
		h := newHistogram([]float64{1, 2, 4})
		for _, v := range obs {
			h.Observe(v)
		}
		return h
	}

	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want float64
	}{
		// 10 observations in (1,2]: rank q·10 interpolates linearly
		// across that bucket.
		{"uniform-mid-p50", build(1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5), 0.5, 1.5},
		{"uniform-mid-p90", build(1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5), 0.9, 1.9},
		{"uniform-mid-p100", build(1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5), 1.0, 2},
		// 4 observations, one per bucket: cum counts 1,2,3,4.
		// p25 → rank 1, top of bucket 0 → 1. p75 → rank 3, top of
		// bucket (2,4] → 4.
		{"spread-p25", build(0.5, 1.5, 3, 9), 0.25, 1},
		{"spread-p75", build(0.5, 1.5, 3, 9), 0.75, 4},
		// Rank halfway into bucket (2,4]: 2 + (2.5-2)/1 · 2 = 3.
		{"spread-p625", build(0.5, 1.5, 3, 9), 0.625, 3},
		// Overflow bucket clamps to the top finite bound.
		{"overflow-clamps", build(9, 9, 9), 0.99, 4},
		// First bucket interpolates up from zero.
		{"first-bucket-p50", build(0.2, 0.4), 0.5, 0.5},
		// q clamps.
		// Rank 0 resolves to the first bucket's upper edge (its count is
		// zero, so there is nothing to interpolate inside it).
		{"q-clamped-low", build(1.5, 1.5), -3, 1},
		{"q-clamped-high", build(9), 7, 4},
		// Empty histogram reports zero.
		{"empty", build(), 0.5, 0},
	}
	for _, tc := range cases {
		got := tc.h.Quantiles(tc.q)[0]
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestHistogramQuantileLowEdge: rank 0 lands in the first occupied
// bucket at its lower edge.
func TestHistogramQuantileLowEdge(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	h.Observe(3)
	h.Observe(3)
	// q=0 → rank 0 → first bucket has count 0 → estimator reports that
	// empty bucket's upper bound walk-through: counts {0,0,2,0}, rank 0
	// ≤ cum 0 in bucket 0 → c == 0 → returns hi = 1.
	if got := h.Quantiles(0)[0]; got != 1 {
		t.Fatalf("Quantile(0) = %v, want 1 (lower resolution bound)", got)
	}
	if got := h.Quantiles(1)[0]; got != 4 {
		t.Fatalf("Quantile(1) = %v, want 4", got)
	}
}

// TestHistogramQuantilesConsistent verifies the multi-quantile form is
// monotone over one snapshot.
func TestHistogramQuantilesConsistent(t *testing.T) {
	h := newHistogram(DurationBuckets)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i%100) / 250.0) // 0 .. 0.396
	}
	qs := h.Quantiles(0.5, 0.95, 0.99)
	if len(qs) != 3 {
		t.Fatalf("Quantiles returned %d values", len(qs))
	}
	if !(qs[0] <= qs[1] && qs[1] <= qs[2]) {
		t.Fatalf("quantiles not monotone: %v", qs)
	}
	if qs[0] <= 0 || qs[2] > 1 {
		t.Fatalf("quantiles out of plausible range: %v", qs)
	}
}

// TestHistogramQuantileNil: the nil-safe contract every obs instrument
// keeps.
func TestHistogramQuantileNil(t *testing.T) {
	var h *Histogram
	if got := h.Quantiles(0.5)[0]; got != 0 {
		t.Fatalf("nil Quantile = %v, want 0", got)
	}
	if got := h.Quantiles(0.5, 0.9); got[0] != 0 || got[1] != 0 {
		t.Fatalf("nil Quantiles = %v, want zeros", got)
	}
}
