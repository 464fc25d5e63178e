package fuelcell

import (
	"math"
	"testing"
	"testing/quick"

	"fcdpm/internal/numeric"
)

// TestPaperEq4 pins the paper's worked values of Eq 4:
// Ifc = 0.32·IF/(0.45 − 0.13·IF).
func TestPaperEq4(t *testing.T) {
	sys := PaperSystem()
	cases := []struct {
		iF, want, tol float64
	}{
		{1.2, 1.3, 0.01},        // §3.2 setting (a)/(b) active value "1.3 A"
		{0.2, 0.15, 0.002},      // §3.2 setting (b) idle value "0.15 A"
		{0.53333, 0.448, 0.001}, // §3.2 setting (c) "0.448 A"
	}
	for _, c := range cases {
		got := sys.StackCurrent(c.iF)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("StackCurrent(%v) = %v, want %v ± %v", c.iF, got, c.want, c.tol)
		}
	}
}

func TestPaperEq4Coefficient(t *testing.T) {
	sys := PaperSystem()
	// VF/ζ = 12/37.5 = 0.32 exactly.
	if got := sys.VF / sys.Zeta; math.Abs(got-0.32) > 1e-12 {
		t.Fatalf("VF/zeta = %v, want 0.32", got)
	}
}

func TestStackCurrentZeroAndNegative(t *testing.T) {
	sys := PaperSystem()
	if sys.StackCurrent(0) != 0 {
		t.Error("zero output should consume no fuel")
	}
	if sys.StackCurrent(-0.5) != 0 {
		t.Error("negative output should consume no fuel")
	}
}

func TestFuelIsCurrentTimesTime(t *testing.T) {
	sys := PaperSystem()
	want := sys.StackCurrent(0.6) * 30
	if got := sys.Fuel(0.6, 30); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Fuel = %v, want %v", got, want)
	}
}

func TestLinearEfficiencyValues(t *testing.T) {
	eff := PaperEfficiency()
	cases := []struct{ iF, want float64 }{
		{0.1, 0.437},
		{0.2, 0.424},
		{1.2, 0.294},
	}
	for _, c := range cases {
		if got := eff.Eta(c.iF); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Eta(%v) = %v, want %v", c.iF, got, c.want)
		}
	}
}

func TestLinearEfficiencyFloor(t *testing.T) {
	eff := LinearEfficiency{Alpha: 0.45, Beta: 0.13}
	if got := eff.Eta(100); got != 1e-3 {
		t.Fatalf("Eta far out of range = %v, want floor 1e-3", got)
	}
}

func TestConstantEfficiency(t *testing.T) {
	eff := ConstantEfficiency{Value: 0.37}
	if eff.Eta(0.1) != 0.37 || eff.Eta(1.2) != 0.37 {
		t.Error("ConstantEfficiency not constant")
	}
	if got := (ConstantEfficiency{Value: 0}).Eta(0.5); got != 1e-3 {
		t.Errorf("zero constant efficiency = %v, want floor", got)
	}
}

func TestFuelMapConvex(t *testing.T) {
	sys := PaperSystem()
	if !sys.IsConvexFuel(200) {
		t.Fatal("paper fuel map must be convex over the load-following range")
	}
}

func TestConstantEtaFuelMapLinearIsConvex(t *testing.T) {
	sys, err := NewSystem(12, 37.5, 0.1, 1.2, ConstantEfficiency{Value: 0.37})
	if err != nil {
		t.Fatal(err)
	}
	if !sys.IsConvexFuel(100) {
		t.Fatal("linear fuel map should pass convexity check")
	}
}

// TestJensenGap verifies the paper's central claim directly: for a convex
// fuel map, the flat profile consumes less fuel than any load-following
// split with the same average.
func TestJensenGap(t *testing.T) {
	sys := PaperSystem()
	f := func(seedA, seedB uint64) bool {
		// Two output levels within range and a mixing weight.
		a := 0.1 + float64(seedA%1000)/1000*1.1
		b := 0.1 + float64(seedB%1000)/1000*1.1
		w := float64(seedA%97) / 97
		avg := w*a + (1-w)*b
		flat := sys.StackCurrent(avg)
		split := w*sys.StackCurrent(a) + (1-w)*sys.StackCurrent(b)
		return flat <= split+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSystemClampAndInRange(t *testing.T) {
	sys := PaperSystem()
	if got := sys.Clamp(0.05); got != 0.1 {
		t.Errorf("Clamp(0.05) = %v", got)
	}
	if got := sys.Clamp(2.0); got != 1.2 {
		t.Errorf("Clamp(2.0) = %v", got)
	}
	if got := sys.Clamp(0.7); got != 0.7 {
		t.Errorf("Clamp(0.7) = %v", got)
	}
	if !sys.InRange(0.1) || !sys.InRange(1.2) || sys.InRange(1.3) || sys.InRange(0.05) {
		t.Error("InRange boundary behaviour wrong")
	}
}

func TestNewSystemValidation(t *testing.T) {
	eff := PaperEfficiency()
	if _, err := NewSystem(0, 37.5, 0.1, 1.2, eff); err == nil {
		t.Error("zero VF accepted")
	}
	if _, err := NewSystem(12, 0, 0.1, 1.2, eff); err == nil {
		t.Error("zero zeta accepted")
	}
	if _, err := NewSystem(12, 37.5, 1.2, 0.1, eff); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := NewSystem(12, 37.5, 0.1, 1.2, nil); err == nil {
		t.Error("nil efficiency model accepted")
	}
}

// TestEfficiencyCurve samples the paper system's η at 12 evenly spaced
// outputs across the load-following range: it strictly declines.
func TestEfficiencyCurve(t *testing.T) {
	sys := PaperSystem()
	const n = 12
	prev := math.Inf(1)
	for k := 0; k < n; k++ {
		iF := sys.MinOutput + (sys.MaxOutput-sys.MinOutput)*float64(k)/(n-1)
		eta := sys.Efficiency(iF)
		if eta >= prev {
			t.Errorf("efficiency not strictly declining at IF=%v: η=%v after %v", iF, eta, prev)
		}
		prev = eta
	}
}

func TestChainEfficiencyShape(t *testing.T) {
	chain, err := NewChainEfficiency(BCS20W(), NewPWMPFMConverter(12), ProportionalController())
	if err != nil {
		t.Fatal(err)
	}
	// The chain-derived system efficiency must decline with output current
	// over the load-following range (Fig 3(b) trend).
	if chain.Eta(1.0) >= chain.Eta(0.2) {
		t.Errorf("chain efficiency not declining: η(0.2)=%v η(1.0)=%v",
			chain.Eta(0.2), chain.Eta(1.0))
	}
	// And must be meaningfully positive inside the range.
	for _, iF := range []float64{0.1, 0.5, 1.0, 1.2} {
		if eta := chain.Eta(iF); eta < 0.05 || eta > 0.7 {
			t.Errorf("chain Eta(%v) = %v, implausible", iF, eta)
		}
	}
}

func TestChainMaxOutputCoversPaperRange(t *testing.T) {
	chain, err := NewChainEfficiency(BCS20W(), NewPWMPFMConverter(12), ProportionalController())
	if err != nil {
		t.Fatal(err)
	}
	if got := chain.MaxOutput(); got < 1.2 {
		t.Fatalf("chain max output %v A cannot cover the paper's 1.2 A range", got)
	}
}

func TestOnOffControllerNotch(t *testing.T) {
	ctrl := OnOffController()
	below := ctrl.Current(0.5)
	above := ctrl.Current(0.7)
	if above <= below {
		t.Error("cooling fan should raise controller draw above the threshold")
	}
}

func TestProportionalControllerScales(t *testing.T) {
	ctrl := ProportionalController()
	if ctrl.Current(1.0) <= ctrl.Current(0.1) {
		t.Error("proportional fan draw should grow with load")
	}
}

func TestConverterEfficiencies(t *testing.T) {
	pwm := NewPWMConverter(12)
	pfm := NewPWMPFMConverter(12)
	// PWM collapses at light load; PWM-PFM holds up (paper §2.1).
	if pwm.Efficiency(1.5) >= pfm.Efficiency(1.5) {
		t.Errorf("PWM light-load η %v should be below PWM-PFM %v",
			pwm.Efficiency(1.5), pfm.Efficiency(1.5))
	}
	// PWM-PFM ~85 % over the load range (1.5 W .. 16 W here).
	for _, p := range []float64{1.5, 5, 10, 16} {
		if eta := pfm.Efficiency(p); eta < 0.78 || eta > 0.97 {
			t.Errorf("PWM-PFM η(%v W) = %v, want roughly 0.85", p, eta)
		}
	}
	if got := pfm.Efficiency(0); got != 1 {
		t.Errorf("zero-load efficiency = %v, want 1 (moot)", got)
	}
	if pfm.OutputVoltage() != 12 {
		t.Error("output voltage not preserved")
	}
}

func TestTableEfficiency(t *testing.T) {
	chain, err := NewChainEfficiency(BCS20W(), NewPWMPFMConverter(12), ProportionalController())
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the chain through a measurement table.
	pts := make([]float64, 0, 20)
	etas := make([]float64, 0, 20)
	for k := 0; k < 20; k++ {
		iF := 0.1 + 1.1*float64(k)/19
		pts = append(pts, iF)
		etas = append(etas, chain.Eta(iF))
	}
	tab := TableEfficiency{T: numeric.MustTable(pts, etas)}
	for _, iF := range []float64{0.15, 0.6, 1.1} {
		if math.Abs(tab.Eta(iF)-chain.Eta(iF)) > 0.01 {
			t.Errorf("table vs chain at %v: %v vs %v", iF, tab.Eta(iF), chain.Eta(iF))
		}
	}
}
