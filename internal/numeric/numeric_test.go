package numeric

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(5, 25)
		if v < 5 || v >= 25 {
			t.Fatalf("Uniform(5,25) out of range: %v", v)
		}
	}
}

func TestRNGUniformMean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Uniform(5, 25)
	}
	mean := sum / n
	if math.Abs(mean-15) > 0.1 {
		t.Fatalf("Uniform(5,25) mean = %v, want ~15", mean)
	}
}

func TestRNGUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(hi<lo) did not panic")
		}
	}()
	NewRNG(1).Uniform(2, 1)
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) only produced %d distinct values", len(seen))
	}
}

func TestRNGNorm(t *testing.T) {
	r := NewRNG(5)
	var sum, ss float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		ss += v * v
	}
	mean := sum / n
	variance := ss/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Norm mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("Norm stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestGoldenMinQuadratic(t *testing.T) {
	x := GoldenMin(func(x float64) float64 { return (x - 3) * (x - 3) }, -10, 10, 1e-10)
	if math.Abs(x-3) > 1e-8 {
		t.Fatalf("GoldenMin = %v, want 3", x)
	}
}

func TestGoldenMinReversedBounds(t *testing.T) {
	x := GoldenMin(func(x float64) float64 { return (x - 3) * (x - 3) }, 10, -10, 1e-10)
	if math.Abs(x-3) > 1e-8 {
		t.Fatalf("GoldenMin with reversed bounds = %v, want 3", x)
	}
}

func TestGoldenMinBoundary(t *testing.T) {
	// Monotone decreasing on the interval: minimum at the right edge.
	x := GoldenMin(func(x float64) float64 { return -x }, 0, 5, 1e-10)
	if math.Abs(x-5) > 1e-6 {
		t.Fatalf("GoldenMin boundary = %v, want 5", x)
	}
}

func TestBisect(t *testing.T) {
	x, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-math.Sqrt2) > 1e-10 {
		t.Fatalf("Bisect = %v, want sqrt(2)", x)
	}
}

func TestBisectNoBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-10); err != ErrNoBracket {
		t.Fatalf("err = %v, want ErrNoBracket", err)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	x, err := Bisect(func(x float64) float64 { return x }, 0, 1, 1e-10)
	if err != nil || x != 0 {
		t.Fatalf("Bisect endpoint root = %v, %v; want 0, nil", x, err)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{0.5, 0.1, 1.2, 0.5},
		{0.05, 0.1, 1.2, 0.1},
		{1.5, 0.1, 1.2, 1.2},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

// Property: GoldenMin on a shifted quadratic recovers the vertex anywhere in
// the bracket.
func TestGoldenMinProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		v := r.Uniform(-50, 50)
		got := GoldenMin(func(x float64) float64 { return (x - v) * (x - v) }, -60, 60, 1e-11)
		return math.Abs(got-v) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableInterpolation(t *testing.T) {
	tab := MustTable([]float64{0, 1, 2}, []float64{0, 10, 0})
	cases := []struct{ x, want float64 }{
		{0, 0}, {0.5, 5}, {1, 10}, {1.5, 5}, {2, 0},
		{-1, 0}, // clamp left
		{3, 0},  // clamp right
		{0.25, 2.5},
	}
	for _, c := range cases {
		if got := tab.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestTableErrors(t *testing.T) {
	if _, err := NewTable([]float64{0, 1}, []float64{0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewTable([]float64{0}, []float64{0}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := NewTable([]float64{0, 0}, []float64{0, 1}); err == nil {
		t.Error("non-increasing xs accepted")
	}
}

func TestTableDomainAndKnots(t *testing.T) {
	tab := MustTable([]float64{0.1, 1.2}, []float64{1, 2})
	lo, hi := tab.Domain()
	if lo != 0.1 || hi != 1.2 {
		t.Fatalf("Domain = (%v,%v)", lo, hi)
	}
	if x, y := tab.Knot(1); x != 1.2 || y != 2 {
		t.Fatalf("Knot(1) = (%v,%v)", x, y)
	}
}

func TestMustTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustTable did not panic on bad input")
		}
	}()
	MustTable([]float64{1}, []float64{1})
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 {
		t.Fatalf("Summarize basic stats wrong: %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("Stddev = %v, want sqrt(2.5)", s.Stddev)
	}
	if s.Sum != 15 {
		t.Fatalf("Sum = %v", s.Sum)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty Summarize = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	if q, err := Quantile(sorted, 0); err != nil || q != 1 {
		t.Fatalf("q0 = %v, %v", q, err)
	}
	if q, err := Quantile(sorted, 1); err != nil || q != 4 {
		t.Fatalf("q1 = %v, %v", q, err)
	}
	if q, err := Quantile(sorted, 0.5); err != nil || math.Abs(q-2.5) > 1e-12 {
		t.Fatalf("q0.5 = %v, %v, want 2.5", q, err)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("empty sample accepted")
	}
}

func TestErrorMetrics(t *testing.T) {
	pred := []float64{1, 2, 3}
	actual := []float64{1, 3, 5}
	if mae, err := MeanAbsError(pred, actual); err != nil || math.Abs(mae-1) > 1e-12 {
		t.Fatalf("MAE = %v, %v, want 1", mae, err)
	}
	if rmse, err := RootMeanSquareError(pred, actual); err != nil || math.Abs(rmse-math.Sqrt(5.0/3)) > 1e-12 {
		t.Fatalf("RMSE = %v, %v", rmse, err)
	}
	if _, err := MeanAbsError(pred, actual[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := RootMeanSquareError(nil, nil); err == nil {
		t.Fatal("empty sample accepted")
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1.0, 1.0+1e-12, 1e-9) {
		t.Error("near-identical values not equal")
	}
	if AlmostEqual(1.0, 2.0, 1e-9) {
		t.Error("distinct values reported equal")
	}
	if !AlmostEqual(1e9, 1e9+1, 1e-6) {
		t.Error("relative tolerance not applied")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{0.5, 1.5, 1.6, 2.5, -1, 99}, 3, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Bins: [0,1): {0.5, clamped -1} = 2; [1,2): {1.5, 1.6} = 2;
	// [2,3): {2.5, clamped 99} = 2.
	for i, want := range []int{2, 2, 2} {
		if h.Counts[i] != want {
			t.Errorf("bin %d = %d, want %d", i, h.Counts[i], want)
		}
	}
	if h.N != 6 {
		t.Fatalf("N = %d", h.N)
	}
	lo, hi := h.BinRange(1)
	if lo != 1 || hi != 2 {
		t.Fatalf("bin 1 range [%v, %v)", lo, hi)
	}
	out := h.Render(12)
	if !strings.Contains(out, "#") {
		t.Fatalf("render missing bars:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 3 {
		t.Fatalf("render lines wrong:\n%s", out)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h, err := NewHistogram(nil, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out := h.Render(10); strings.Contains(out, "#") {
		t.Fatal("empty histogram drew bars")
	}
}

func TestHistogramRejectsBadConfig(t *testing.T) {
	for name, f := range map[string]func() (*Histogram, error){
		"bins":  func() (*Histogram, error) { return NewHistogram(nil, 0, 0, 1) },
		"range": func() (*Histogram, error) { return NewHistogram(nil, 2, 1, 1) },
	} {
		if _, err := f(); err == nil {
			t.Errorf("%s: bad histogram accepted", name)
		}
	}
}
