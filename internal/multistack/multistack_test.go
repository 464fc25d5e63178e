package multistack

import (
	"math"
	"testing"

	"fcdpm/internal/fuelcell"
)

func paperStack(degrade float64) Stack {
	return Stack{Sys: fuelcell.PaperSystem(), Degrade: degrade}
}

// degradedMix is the heterogeneous rack the study cares about: healthy
// and 30 %-degraded stacks alternating.
func degradedMix(k int) []Stack {
	stacks := make([]Stack, k)
	for i := range stacks {
		var d float64
		if i%2 == 1 {
			d = 0.3
		}
		stacks[i] = paperStack(d)
	}
	return stacks
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func TestRackAggregateRange(t *testing.T) {
	r, err := New(degradedMix(4), EqualSplit{})
	if err != nil {
		t.Fatal(err)
	}
	sys := r.System()
	if sys.MinOutput != 0.1 {
		t.Fatalf("aggregate min = %v, want 0.1", sys.MinOutput)
	}
	if math.Abs(sys.MaxOutput-4.8) > 1e-12 {
		t.Fatalf("aggregate max = %v, want 4.8", sys.MaxOutput)
	}
	if !sys.IsConvexFuel(200) {
		t.Fatal("equal-split aggregate fuel map is not convex")
	}
}

// TestAllocationsSumToDemand checks every policy conserves current over
// the full feasible range, including at stack-saturation boundaries.
func TestAllocationsSumToDemand(t *testing.T) {
	stacks := degradedMix(3)
	for _, alloc := range Allocators() {
		out := make([]float64, len(stacks))
		for _, iF := range []float64{0.1, 0.5, 1.2, 1.3, 2.4, 3.5, 3.6} {
			alloc.Allocate(stacks, iF, out)
			if math.Abs(sum(out)-iF) > 1e-9 {
				t.Errorf("%s: allocation at %v sums to %v", alloc.Name(), iF, sum(out))
			}
			for k, x := range out {
				if x < -1e-12 || x > stacks[k].maxOut()+1e-12 {
					t.Errorf("%s: stack %d output %v outside [0, %v]", alloc.Name(), k, x, stacks[k].maxOut())
				}
			}
		}
	}
}

// TestWaterFillDominatesEqualSplit is the tentpole acceptance property:
// on a heterogeneous (degraded-mix) rack the water-filling fuel rate is
// strictly below equal-split wherever the split differs, and never
// above it anywhere (it solves the convex program equal-split only
// approximates).
func TestWaterFillDominatesEqualSplit(t *testing.T) {
	stacks := degradedMix(4)
	eq, err := New(stacks, EqualSplit{})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := New(stacks, WaterFill{})
	if err != nil {
		t.Fatal(err)
	}
	strict := false
	for iF := 0.2; iF < 4.8; iF += 0.1 {
		fe, fw := eq.fuelRate(eq.Allocate(iF)), wf.fuelRate(wf.Allocate(iF))
		if fw > fe+1e-9 {
			t.Fatalf("water-filling fuel %v above equal-split %v at iF=%v", fw, fe, iF)
		}
		if fw < fe-1e-6 {
			strict = true
		}
	}
	if !strict {
		t.Fatal("water-filling never strictly beat equal-split on a degraded mix")
	}
}

// TestWaterFillMatchesEqualSplitOnHomogeneousRack: with identical
// healthy stacks and a convex fuel map, the even split IS the optimum,
// so the two policies must agree to numerical tolerance.
func TestWaterFillMatchesEqualSplitOnHomogeneousRack(t *testing.T) {
	stacks := []Stack{paperStack(0), paperStack(0), paperStack(0)}
	eq, err := New(stacks, EqualSplit{})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := New(stacks, WaterFill{})
	if err != nil {
		t.Fatal(err)
	}
	for iF := 0.3; iF < 3.6; iF += 0.3 {
		fe, fw := eq.fuelRate(eq.Allocate(iF)), wf.fuelRate(wf.Allocate(iF))
		if math.Abs(fe-fw)/fe > 1e-3 {
			t.Fatalf("homogeneous rack: equal %v vs waterfill %v at iF=%v", fe, fw, iF)
		}
	}
}

// TestHealthRotationPrefersHealthyStacks: below the healthy capacity
// the degraded stacks must sit idle; above it they take only the spill.
func TestHealthRotationPrefersHealthyStacks(t *testing.T) {
	stacks := []Stack{paperStack(0.3), paperStack(0), paperStack(0.1)}
	out := make([]float64, 3)
	HealthRotation{}.Allocate(stacks, 1.0, out)
	if out[1] != 1.0 || out[0] != 0 || out[2] != 0 {
		t.Fatalf("demand below healthy ceiling: %v", out)
	}
	HealthRotation{}.Allocate(stacks, 2.0, out)
	if math.Abs(out[1]-1.2) > 1e-12 || math.Abs(out[2]-0.8) > 1e-12 || out[0] != 0 {
		t.Fatalf("spill order wrong: %v", out)
	}
	HealthRotation{}.Allocate(stacks, 3.0, out)
	if math.Abs(out[0]-0.6) > 1e-12 {
		t.Fatalf("most-degraded stack should take the final spill: %v", out)
	}
}

// TestOfflineStackExcluded: an offline stack contributes no capacity,
// no allocation, and no fuel.
func TestOfflineStackExcluded(t *testing.T) {
	stacks := []Stack{paperStack(0), {Sys: fuelcell.PaperSystem(), Offline: true}, paperStack(0)}
	r, err := New(stacks, WaterFill{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.System().MaxOutput-2.4) > 1e-12 {
		t.Fatalf("offline stack counted toward capacity: max %v", r.System().MaxOutput)
	}
	for _, iF := range []float64{0.5, 2.0, 2.4} {
		if out := r.Allocate(iF); out[1] != 0 {
			t.Fatalf("offline stack allocated %v at iF=%v", out[1], iF)
		}
	}
}

// TestAggregateReproducesRackFuel: the pre-solved System's fuel map must
// match the exact allocation sum at (and between) grid points.
func TestAggregateReproducesRackFuel(t *testing.T) {
	r, err := New(degradedMix(4), WaterFill{})
	if err != nil {
		t.Fatal(err)
	}
	sys := r.System()
	for iF := 0.15; iF < 4.8; iF += 0.37 {
		exact := r.fuelRate(r.Allocate(iF))
		viaSys := sys.StackCurrent(iF)
		if math.Abs(exact-viaSys)/exact > 2e-3 {
			t.Fatalf("aggregate fuel map off at iF=%v: exact %v vs table %v", iF, exact, viaSys)
		}
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil, EqualSplit{}); err == nil {
		t.Error("empty rack accepted")
	}
	if _, err := New(degradedMix(2), nil); err == nil {
		t.Error("nil allocator accepted")
	}
	if _, err := New([]Stack{{Sys: nil}}, EqualSplit{}); err == nil {
		t.Error("nil stack system accepted")
	}
	if _, err := New([]Stack{paperStack(1.0)}, EqualSplit{}); err == nil {
		t.Error("degrade 1.0 accepted")
	}
	mixed := []Stack{paperStack(0), {Sys: mustSystem(t, 24, 37.5, 0.1, 1.2)}}
	if _, err := New(mixed, EqualSplit{}); err == nil {
		t.Error("mismatched bus voltage accepted")
	}
	allOff := []Stack{{Sys: fuelcell.PaperSystem(), Offline: true}}
	if _, err := New(allOff, EqualSplit{}); err == nil {
		t.Error("all-offline rack accepted")
	}
	if _, err := Uniform(fuelcell.PaperSystem(), 0, EqualSplit{}, nil); err == nil {
		t.Error("zero-stack Uniform accepted")
	}
	if _, err := New(degradedMix(MaxStacks+1), EqualSplit{}); err == nil {
		t.Errorf("%d-stack rack accepted", MaxStacks+1)
	}
	if _, err := Uniform(fuelcell.PaperSystem(), MaxStacks+1, EqualSplit{}, nil); err == nil {
		t.Errorf("%d-stack Uniform accepted", MaxStacks+1)
	}
}

func mustSystem(t *testing.T, vf, zeta, lo, hi float64) *fuelcell.System {
	t.Helper()
	s, err := fuelcell.NewSystem(vf, zeta, lo, hi, fuelcell.PaperEfficiency())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseAllocator(t *testing.T) {
	for name, want := range map[string]string{
		"":              "equal-split",
		"equal":         "equal-split",
		"waterfill":     "water-filling",
		"Water-Filling": "water-filling",
		"rotation":      "health-rotation",
	} {
		a, err := ParseAllocator(name)
		if err != nil {
			t.Fatalf("ParseAllocator(%q): %v", name, err)
		}
		if a.Name() != want {
			t.Fatalf("ParseAllocator(%q) = %s, want %s", name, a.Name(), want)
		}
	}
	if _, err := ParseAllocator("psychic"); err == nil {
		t.Fatal("unknown allocator accepted")
	}
}
