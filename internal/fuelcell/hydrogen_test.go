package fuelcell

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHydrogenMoles(t *testing.T) {
	h := PaperHydrogen()
	// 1 A for 2·F/20 seconds consumes exactly 1 mol of H2.
	fuel := 2 * FaradayConstant / 20
	if got := h.Moles(fuel); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Moles = %v, want 1", got)
	}
}

func TestHydrogenMassAndVolume(t *testing.T) {
	h := Hydrogen{Cells: 1}
	fuel := 2 * FaradayConstant // 1 mol
	if got := h.Grams(fuel); math.Abs(got-2.016) > 1e-9 {
		t.Errorf("Grams = %v, want 2.016", got)
	}
	if got := h.LitresSTP(fuel); math.Abs(got-22.711) > 1e-9 {
		t.Errorf("LitresSTP = %v, want 22.711", got)
	}
}

func TestHydrogenEnergy(t *testing.T) {
	h := Hydrogen{Cells: 1}
	fuel := 2 * FaradayConstant // 1 mol = 2.016 g
	want := 2.016 * H2LHV
	if got := h.ChemicalEnergy(fuel); math.Abs(got-want) > 1e-6 {
		t.Fatalf("ChemicalEnergy = %v, want %v", got, want)
	}
}

func TestFuelForGramsRoundTrip(t *testing.T) {
	h := PaperHydrogen()
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		g := math.Abs(math.Mod(raw, 1000))
		back := h.Grams(h.FuelForGrams(g))
		return math.Abs(back-g) <= 1e-9*math.Max(1, g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCartridgeLifetime(t *testing.T) {
	h := PaperHydrogen()
	// A cartridge holding the fuel for 1000 A-s, drawn at 0.5 A, lasts
	// 2000 s.
	grams := h.Grams(1000)
	if got := h.CartridgeLifetime(grams, 0.5); math.Abs(got-2000) > 1e-6 {
		t.Fatalf("lifetime = %v, want 2000", got)
	}
	if got := h.CartridgeLifetime(grams, 0); !math.IsInf(got, 1) {
		t.Fatalf("zero-draw lifetime = %v, want +Inf", got)
	}
}

func TestEndToEndEfficiency(t *testing.T) {
	h := PaperHydrogen()
	// The system efficiency chain should land the end-to-end value in a
	// physically sensible band: delivering VF·IF·t J while burning
	// Ifc(IF)·t A-s of stack charge.
	sys := PaperSystem()
	iF := 0.5
	dt := 100.0
	delivered := sys.VF * iF * dt
	fuel := sys.Fuel(iF, dt)
	eta := h.EndToEndEfficiency(delivered, fuel)
	if eta < 0.1 || eta > 0.9 {
		t.Fatalf("end-to-end efficiency = %v, implausible", eta)
	}
	if got := h.EndToEndEfficiency(100, 0); got != 0 {
		t.Fatalf("zero-fuel efficiency = %v, want 0", got)
	}
}

// Property: all hydrogen measures are linear in fuel.
func TestHydrogenLinearity(t *testing.T) {
	h := PaperHydrogen()
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		q := math.Abs(math.Mod(raw, 1e6))
		return math.Abs(h.Moles(2*q)-2*h.Moles(q)) <= 1e-9*math.Max(1, h.Moles(2*q)) &&
			math.Abs(h.Grams(3*q)-3*h.Grams(q)) <= 1e-9*math.Max(1, h.Grams(3*q))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
