package predict

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestExpAverageEq14(t *testing.T) {
	// Paper Eq 14 with ρ=0.5: T'(k) = 0.5·T'(k-1) + 0.5·T(k-1).
	p := MustExpAverage(0.5, 10)
	if p.Predict() != 10 {
		t.Fatalf("initial prediction = %v", p.Predict())
	}
	p.Observe(20)
	if got := p.Predict(); got != 15 {
		t.Fatalf("after 20: %v, want 15", got)
	}
	p.Observe(5)
	if got := p.Predict(); got != 10 {
		t.Fatalf("after 5: %v, want 10", got)
	}
}

func TestExpAverageRhoExtremes(t *testing.T) {
	frozen := MustExpAverage(1, 7)
	frozen.Observe(100)
	if frozen.Predict() != 7 {
		t.Error("rho=1 should never move")
	}
	follower := MustExpAverage(0, 7)
	follower.Observe(100)
	if follower.Predict() != 100 {
		t.Error("rho=0 should equal last value")
	}
}

func TestExpAverageConvergesToConstant(t *testing.T) {
	p := MustExpAverage(0.5, 0)
	for i := 0; i < 60; i++ {
		p.Observe(12)
	}
	if math.Abs(p.Predict()-12) > 1e-9 {
		t.Fatalf("did not converge: %v", p.Predict())
	}
}

func TestExpAverageReset(t *testing.T) {
	p := MustExpAverage(0.5, 3)
	p.Observe(100)
	p.Reset()
	if p.Predict() != 3 {
		t.Fatalf("reset prediction = %v", p.Predict())
	}
}

// TestExpAverageBadRhoIsTypedError is the typed-error regression test for
// the constructor sweep: an out-of-range rho must come back as a
// *ConfigError, not a panic (the pre-fix behavior).
func TestExpAverageBadRhoIsTypedError(t *testing.T) {
	for _, rho := range []float64{-0.1, 1.5, math.NaN()} {
		p, err := NewExpAverage(rho, 0)
		if p != nil || err == nil {
			t.Fatalf("rho=%v: expected construction error, got (%v, %v)", rho, p, err)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Param != "rho" {
			t.Fatalf("rho=%v: error %v is not a rho ConfigError", rho, err)
		}
	}
	if _, err := NewMovingAverage(0, 1); err == nil {
		t.Fatal("moving-average window 0 accepted")
	}
	if _, err := NewRegression(1, 1); err == nil {
		t.Fatal("regression window 1 accepted")
	}
}

// TestMustConstructorsPanic pins the Must* contract: construction errors
// on fixed literals are programmer errors and still panic.
func TestMustConstructorsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustExpAverage(1.5) did not panic")
		}
	}()
	MustExpAverage(1.5, 0)
}

func TestLastValue(t *testing.T) {
	p := NewLastValue(4)
	if p.Predict() != 4 {
		t.Fatal("initial")
	}
	p.Observe(9)
	if p.Predict() != 9 {
		t.Fatal("after observe")
	}
	p.Reset()
	if p.Predict() != 4 {
		t.Fatal("after reset")
	}
}

func TestRegressionExtrapolatesTrend(t *testing.T) {
	p := MustRegression(5, 0)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		p.Observe(v)
	}
	if got := p.Predict(); math.Abs(got-6) > 1e-9 {
		t.Fatalf("trend prediction = %v, want 6", got)
	}
}

func TestRegressionWindowSlides(t *testing.T) {
	p := MustRegression(3, 0)
	for _, v := range []float64{100, 100, 1, 2, 3} { // old values leave the window
		p.Observe(v)
	}
	if got := p.Predict(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("windowed prediction = %v, want 4", got)
	}
}

func TestRegressionFewObservations(t *testing.T) {
	p := MustRegression(4, 7)
	if p.Predict() != 7 {
		t.Fatal("empty history should return initial")
	}
	p.Observe(3)
	if p.Predict() != 3 {
		t.Fatal("single observation should be returned as-is")
	}
}

func TestRegressionNeverNegative(t *testing.T) {
	p := MustRegression(3, 0)
	for _, v := range []float64{9, 5, 1} { // steep downward trend
		p.Observe(v)
	}
	if got := p.Predict(); got < 0 {
		t.Fatalf("negative period predicted: %v", got)
	}
}

func TestMovingAverage(t *testing.T) {
	p := MustMovingAverage(3, 2)
	if p.Predict() != 2 {
		t.Fatal("initial")
	}
	p.Observe(3)
	p.Observe(6)
	if got := p.Predict(); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("mean of 2 = %v", got)
	}
	p.Observe(9)
	p.Observe(12) // 3 leaves the window
	if got := p.Predict(); math.Abs(got-9) > 1e-12 {
		t.Fatalf("windowed mean = %v, want 9", got)
	}
}

func TestOracle(t *testing.T) {
	p := NewOracle([]float64{5, 7, 9}, 1)
	for _, want := range []float64{5, 7, 9} {
		if got := p.Predict(); got != want {
			t.Fatalf("oracle = %v, want %v", got, want)
		}
		p.Observe(want)
	}
	if got := p.Predict(); got != 1 {
		t.Fatalf("exhausted oracle = %v, want fallback 1", got)
	}
	p.Reset()
	if p.Predict() != 5 {
		t.Fatal("reset oracle should start over")
	}
}

func mustEval(t *testing.T, p Predictor, series []float64) Accuracy {
	t.Helper()
	acc, err := Evaluate(p, series)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestOracleIsPerfect(t *testing.T) {
	series := []float64{8, 12, 20, 9, 15, 11}
	acc := mustEval(t, NewOracle(series, 0), series)
	if acc.MAE != 0 || acc.RMSE != 0 || acc.OverRate != 0 {
		t.Fatalf("oracle accuracy = %+v, want perfect", acc)
	}
}

func TestEvaluateOrdering(t *testing.T) {
	// On a noisy-but-stationary series, exp-average should beat last-value
	// (it averages the noise); oracle beats everything.
	series := make([]float64, 200)
	x := uint64(12345)
	for i := range series {
		x = x*6364136223846793005 + 1442695040888963407
		series[i] = 14 + float64(x%600)/100 - 3 // 11..17
	}
	expAcc := mustEval(t, MustExpAverage(0.5, 14), series)
	lastAcc := mustEval(t, NewLastValue(14), series)
	if expAcc.RMSE >= lastAcc.RMSE {
		t.Errorf("exp-average RMSE %v should beat last-value %v on noise", expAcc.RMSE, lastAcc.RMSE)
	}
}

func TestEvaluateErrorsOnEmpty(t *testing.T) {
	if _, err := Evaluate(NewLastValue(0), nil); err == nil {
		t.Fatal("empty series accepted")
	}
}

func TestTreeLearnsPeriodicPattern(t *testing.T) {
	// Alternating 8, 20, 8, 20... — a learning tree nails this; an
	// exponential average hovers at 14.
	series := make([]float64, 400)
	for i := range series {
		if i%2 == 0 {
			series[i] = 8
		} else {
			series[i] = 20
		}
	}
	tree := MustTree(8, 2, 5, 25, 14)
	treeAcc := mustEval(t, tree, series)
	expAcc := mustEval(t, MustExpAverage(0.5, 14), series)
	if treeAcc.MAE >= expAcc.MAE {
		t.Fatalf("tree MAE %v should beat exp-average %v on periodic input",
			treeAcc.MAE, expAcc.MAE)
	}
	// After training, prediction error should be within one quantization
	// bin (2.5 here).
	if treeAcc.RMSE > 6 {
		t.Fatalf("tree RMSE %v too high", treeAcc.RMSE)
	}
}

func TestTreeQuantizeBounds(t *testing.T) {
	tree := MustTree(4, 1, 0, 8, 0)
	if tree.quantize(-5) != 0 {
		t.Error("below-range value should map to level 0")
	}
	if tree.quantize(100) != 3 {
		t.Error("above-range value should map to top level")
	}
	if tree.quantize(8) != 3 {
		t.Error("hi boundary should map to top level")
	}
	for l := 0; l < 4; l++ {
		v := tree.dequantize(l)
		if tree.quantize(v) != l {
			t.Errorf("dequantize/quantize not inverse at level %d (v=%v)", l, v)
		}
	}
}

func TestTreeColdStart(t *testing.T) {
	tree := MustTree(4, 2, 0, 10, 5)
	if tree.Predict() != 5 {
		t.Fatal("cold tree should return initial")
	}
	tree.Observe(2)
	if tree.Predict() != 5 {
		t.Fatal("tree with short context should return initial")
	}
}

func TestTreeReset(t *testing.T) {
	tree := MustTree(4, 1, 0, 10, 5)
	tree.Observe(2)
	tree.Observe(2)
	tree.Reset()
	if tree.Predict() != 5 {
		t.Fatal("reset tree should return initial")
	}
}

func TestTreeConstructorTypedErrors(t *testing.T) {
	cases := map[string]struct {
		param string
		f     func() (*Tree, error)
	}{
		"levels": {"levels", func() (*Tree, error) { return NewTree(1, 1, 0, 10, 5) }},
		"depth":  {"depth", func() (*Tree, error) { return NewTree(4, 0, 0, 10, 5) }},
		"hi":     {"hi", func() (*Tree, error) { return NewTree(4, 1, 10, 0, 5) }},
		// 8^21 contexts leave no room for the key's digit offset in an
		// int; 20 digits is the deepest context that fits.
		"depth past the key": {"depth", func() (*Tree, error) { return NewTree(8, 21, 0, 10, 5) }},
	}
	for name, c := range cases {
		tr, err := c.f()
		if tr != nil || err == nil {
			t.Errorf("%s: invalid tree accepted", name)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Param != c.param {
			t.Errorf("%s: error %v is not the expected ConfigError", name, err)
		}
	}
	if _, err := NewTree(8, 20, 0, 10, 5); err != nil {
		t.Errorf("depth 20 at 8 levels rejected: %v", err)
	}
}

func TestNames(t *testing.T) {
	for _, p := range []Predictor{
		MustExpAverage(0.5, 0), NewLastValue(0), MustRegression(3, 0),
		MustMovingAverage(3, 0), NewOracle(nil, 0), MustTree(4, 1, 0, 10, 5),
	} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

// Property: exponential average stays within the convex hull of the initial
// prediction and all observations.
func TestExpAverageHullProperty(t *testing.T) {
	f := func(seed uint64) bool {
		x := seed
		p := MustExpAverage(0.5, 10)
		lo, hi := 10.0, 10.0
		for i := 0; i < 50; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			v := float64(x % 1000)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			p.Observe(v)
			if p.Predict() < lo-1e-9 || p.Predict() > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMarkovColdStart(t *testing.T) {
	m := MustMarkov(4, 0, 20, 7)
	if m.Predict() != 7 {
		t.Fatalf("cold prediction = %v, want initial", m.Predict())
	}
}

func TestMarkovLearnsAlternation(t *testing.T) {
	// Alternating 5, 15: after seeing a 5, predict near 15, and vice
	// versa.
	m := MustMarkov(4, 0, 20, 10)
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			m.Observe(5)
		} else {
			m.Observe(15)
		}
	}
	// Last observation was 15 (i=99): next should be ~5.
	if p := m.Predict(); math.Abs(p-5) > 3 {
		t.Fatalf("after 15, predicted %v, want ≈5", p)
	}
	m.Observe(5)
	if p := m.Predict(); math.Abs(p-15) > 3 {
		t.Fatalf("after 5, predicted %v, want ≈15", p)
	}
}

func TestMarkovBeatsExpAverageOnAlternation(t *testing.T) {
	series := make([]float64, 300)
	for i := range series {
		if i%2 == 0 {
			series[i] = 5
		} else {
			series[i] = 15
		}
	}
	mAcc := mustEval(t, MustMarkov(8, 0, 20, 10), series)
	eAcc := mustEval(t, MustExpAverage(0.5, 10), series)
	if mAcc.MAE >= eAcc.MAE {
		t.Fatalf("markov MAE %v should beat exp-average %v on alternation", mAcc.MAE, eAcc.MAE)
	}
}

func TestMarkovMarginalFallback(t *testing.T) {
	m := MustMarkov(4, 0, 20, 10)
	// Train only low values, then land in an unseen state via a high
	// observation: the unseen row falls back to the marginal.
	for i := 0; i < 10; i++ {
		m.Observe(2)
	}
	m.Observe(19) // bin 3's row has no outgoing counts
	p := m.Predict()
	// Marginal is dominated by bin 0 (centre 2.5).
	if p > 6 {
		t.Fatalf("fallback prediction = %v, want near the marginal mean", p)
	}
}

func TestMarkovReset(t *testing.T) {
	m := MustMarkov(4, 0, 20, 10)
	m.Observe(5)
	m.Observe(15)
	m.Reset()
	if m.Predict() != 10 {
		t.Fatalf("reset prediction = %v", m.Predict())
	}
}

func TestMarkovConstructorTypedErrors(t *testing.T) {
	for name, f := range map[string]func() (*Markov, error){
		"levels": func() (*Markov, error) { return NewMarkov(1, 0, 10, 5) },
		"bounds": func() (*Markov, error) { return NewMarkov(4, 10, 0, 5) },
	} {
		m, err := f()
		if m != nil || err == nil {
			t.Errorf("%s: invalid markov accepted", name)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a ConfigError", name, err)
		}
	}
}
