package multistack

import (
	"math"
	"math/rand"
	"testing"

	"fcdpm/internal/fuelcell"
)

// altSystem is a second stack design on the paper's bus: a narrower
// range and a steeper efficiency droop, so its marginal costs differ
// from the paper stack's everywhere.
func altSystem(t testing.TB) *fuelcell.System {
	t.Helper()
	s, err := fuelcell.NewSystem(12, 37.5, 0.05, 0.9, fuelcell.LinearEfficiency{Alpha: 0.5, Beta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomRack draws 1-16 stacks from three systems (the paper stack, a
// second pointer to an equal paper stack, and altSystem), degradations
// from a small pool so classes repeat, and an offline stack now and
// then, keeping at least one online.
func randomRack(rng *rand.Rand, systems []*fuelcell.System) []Stack {
	degrades := []float64{0, 0, 0.1, 0.2, 0.3, 0.45}
	stacks := make([]Stack, 1+rng.Intn(16))
	for i := range stacks {
		stacks[i] = Stack{
			Sys:     systems[rng.Intn(len(systems))],
			Degrade: degrades[rng.Intn(len(degrades))],
			Offline: rng.Intn(6) == 0,
		}
	}
	stacks[rng.Intn(len(stacks))].Offline = false
	return stacks
}

// gridDemands returns the demands a rack pre-solve allocates: effGrid
// points over [min online minimum, sum of online maxima].
func gridDemands(stacks []Stack) []float64 {
	minOut, maxOut := math.Inf(1), 0.0
	for _, s := range stacks {
		if !s.Offline {
			minOut = math.Min(minOut, s.Sys.MinOutput)
			maxOut += s.Sys.MaxOutput
		}
	}
	grid := make([]float64, effGrid)
	for k := range grid {
		grid[k] = minOut + (maxOut-minOut)*float64(k)/float64(effGrid-1)
	}
	return grid
}

// sameBits reports whether two allocations are equal bit for bit.
func sameBits(a, b []float64) bool {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

type refAllocator struct {
	alloc Allocator
	ref   func([]Stack, float64, []float64)
}

func refAllocators() []refAllocator {
	return []refAllocator{
		{WaterFill{}, refWaterFill},
		{HealthRotation{}, refHealthRotation},
	}
}

// TestAllocateMatchesReference is the differential oracle for the
// optimized allocators: on seeded random racks, at demand 0, the total
// maximum and random demands, every per-stack output equals the
// reference implementation's bit for bit. A grid fill, which replays
// the outer steps it recorded for the demands before, must match too
// over the same demands in their unsorted order.
func TestAllocateMatchesReference(t *testing.T) {
	paper := fuelcell.PaperSystem()
	systems := []*fuelcell.System{paper, fuelcell.PaperSystem(), altSystem(t)}
	rng := rand.New(rand.NewSource(15))
	racks, demands := 48, 24
	if testing.Short() {
		racks = 12
	}
	for r := 0; r < racks; r++ {
		stacks := randomRack(rng, systems)
		var total float64
		for _, s := range stacks {
			total += s.maxOut()
		}
		iFs := []float64{0, total}
		for i := 0; i < demands; i++ {
			iFs = append(iFs, total*rng.Float64())
		}
		got, want := make([]float64, len(stacks)), make([]float64, len(stacks))
		for _, a := range refAllocators() {
			for _, iF := range iFs {
				a.alloc.Allocate(stacks, iF, got)
				a.ref(stacks, iF, want)
				if !sameBits(got, want) {
					t.Fatalf("%s on %+v at iF=%v:\n got %v\nwant %v", a.alloc.Name(), stacks, iF, got, want)
				}
			}
		}
		grid := newGridFill(stacks)
		for _, iF := range iFs {
			grid.allocate(stacks, iF, got)
			refWaterFill(stacks, iF, want)
			if !sameBits(got, want) {
				t.Fatalf("grid fill on %+v at iF=%v:\n got %v\nwant %v", stacks, iF, got, want)
			}
		}
	}
}

// TestRackTableMatchesReference: on the study's racks and on random
// ones, every point of the pre-solved grid allocates bit-identically to
// the reference, and the aggregate efficiency table holds exactly the
// values the reference allocation yields. Water-filling is checked on
// the path its pre-solve takes, a grid fill over the demands in order,
// and the random racks mix both stack designs with offline stacks.
func TestRackTableMatchesReference(t *testing.T) {
	paper := fuelcell.PaperSystem()
	var study, random [][]Stack
	for _, k := range []int{2, 4, 8} {
		for _, mix := range [][]float64{nil, {0, 0.3}, {0.1, 0.2, 0.4}} {
			r, err := Uniform(paper, k, WaterFill{}, mix)
			if err != nil {
				t.Fatal(err)
			}
			study = append(study, r.Stacks())
		}
	}
	rng := rand.New(rand.NewSource(16))
	alt := altSystem(t)
	systems := []*fuelcell.System{paper, fuelcell.PaperSystem(), alt}
	for len(random) < 6 {
		stacks := randomRack(rng, systems)
		var offline, paperDesign, altDesign bool
		for _, s := range stacks {
			offline = offline || s.Offline
			paperDesign = paperDesign || s.Sys != alt
			altDesign = altDesign || s.Sys == alt
		}
		if offline && paperDesign && altDesign {
			random = append(random, stacks)
		}
	}
	if testing.Short() {
		study, random = study[:4], random[:2]
	}
	for _, stacks := range append(study, random...) {
		grid := gridDemands(stacks)
		for _, a := range refAllocators() {
			r, err := New(stacks, a.alloc)
			if err != nil {
				t.Fatal(err)
			}
			tab := r.System().Eff.(rackEfficiency).t
			allocate := a.alloc.Allocate
			if _, ok := a.alloc.(WaterFill); ok {
				allocate = newGridFill(stacks).allocate
			}
			got, want := make([]float64, len(stacks)), make([]float64, len(stacks))
			for k, iF := range grid {
				allocate(stacks, iF, got)
				a.ref(stacks, iF, want)
				if !sameBits(got, want) {
					t.Fatalf("%s K=%d at grid point %d: got %v, want %v", a.alloc.Name(), len(stacks), k, got, want)
				}
				var fuel float64
				for j, s := range stacks {
					fuel += s.FuelRate(want[j])
				}
				eta := paper.VF * iF / (paper.Zeta * fuel)
				if _, y := tab.Knot(k); math.Float64bits(y) != math.Float64bits(eta) {
					t.Fatalf("%s K=%d: table efficiency %v at grid point %d, reference %v", a.alloc.Name(), len(stacks), y, k, eta)
				}
			}
		}
	}
}

// TestAllocateAllocFree gates the pre-solve's inner loop: at K=8
// water-filling and health-rotation run without a heap allocation.
func TestAllocateAllocFree(t *testing.T) {
	stacks := degradedMix(8)
	out := make([]float64, len(stacks))
	for _, a := range []Allocator{WaterFill{}, HealthRotation{}} {
		if n := testing.AllocsPerRun(20, func() { a.Allocate(stacks, 5.3, out) }); n != 0 {
			t.Errorf("%s.Allocate: %v allocs/op, want 0", a.Name(), n)
		}
	}
}

// TestAllocateBeyondCap: a direct caller may pass more stacks than a
// Rack accepts; the allocators still match the reference.
func TestAllocateBeyondCap(t *testing.T) {
	stacks := degradedMix(MaxStacks + 3)
	got, want := make([]float64, len(stacks)), make([]float64, len(stacks))
	for _, a := range refAllocators() {
		a.alloc.Allocate(stacks, 41.7, got)
		a.ref(stacks, 41.7, want)
		if !sameBits(got, want) {
			t.Fatalf("%s with %d stacks differs from the reference", a.alloc.Name(), len(stacks))
		}
	}
}

// TestWaterFillKKT checks water-filling's optimality directly rather
// than against the reference: on seeded random racks at random demands
// the split is feasible and satisfies the KKT conditions of the convex
// program it solves, and it never burns more fuel than equal-split.
//
// The conditions are stated on marginal, the allocator's own f'_k: a
// water level lambda exists with marginal(x_k) = lambda for interior
// stacks, marginal(0) >= lambda for stacks at zero and marginal(max)
// <= lambda for stacks at their ceiling. Equivalently, no marginal of
// a running stack exceeds the marginal of a stack below its ceiling.
//
// The tolerances follow from h = 1e-4. marginal divides the difference
// of two fuel rates below 2.5 A, each rounded to within 4 ulps, by 2h,
// so it carries up to 4*2^-52*2.5*2/(2h) ~ 2e-11 of rounding. The fuel
// curves' second derivative lies in [0.4, 3.6] on both designs, so the
// inner bisection lands within 5e-11 A of the exact level output, and
// the allocator moves the residual, at most 16*5e-11 = 8e-10 A, onto
// the first stacks with room. That shifts a marginal by at most
// 3.6*8e-10 and the fuel by at most 8e-10 times the marginals' spread
// (< 2.4), both under 3e-9. So a stack within edgeTol = 1e-8 of an edge
// may sit there (its marginal is taken where it sits), and kktTol =
// fuelTol = 1e-8, while a stack 1e-6 A off its level output moves its
// marginal by at least 4e-7.
func TestWaterFillKKT(t *testing.T) {
	const edgeTol, kktTol, fuelTol = 1e-8, 1e-8, 1e-8
	paper := fuelcell.PaperSystem()
	systems := []*fuelcell.System{paper, fuelcell.PaperSystem(), altSystem(t)}
	rng := rand.New(rand.NewSource(17))
	racks, demands := 200, 16
	if testing.Short() {
		racks = 40
	}
	for r := 0; r < racks; r++ {
		stacks := randomRack(rng, systems)
		var total float64
		for _, s := range stacks {
			total += s.maxOut()
		}
		wf, es := make([]float64, len(stacks)), make([]float64, len(stacks))
		for i := 0; i < demands; i++ {
			iF := total * rng.Float64()
			WaterFill{}.Allocate(stacks, iF, wf)
			EqualSplit{}.Allocate(stacks, iF, es)
			var sum, fuelWF, fuelES float64
			running, belowCeiling := math.Inf(-1), math.Inf(1)
			for k, s := range stacks {
				x, m := wf[k], s.maxOut()
				if x < 0 || x > m {
					t.Fatalf("%+v at iF=%v: stack %d output %v outside [0, %v]", stacks, iF, k, x, m)
				}
				sum += x
				fuelWF += s.FuelRate(x)
				fuelES += s.FuelRate(es[k])
				mx := marginal(s, x)
				if x > edgeTol {
					running = math.Max(running, mx)
				}
				if x < m-edgeTol {
					belowCeiling = math.Min(belowCeiling, mx)
				}
			}
			if math.Abs(sum-iF) > 1e-12 {
				t.Fatalf("%+v at iF=%v: outputs sum to %v", stacks, iF, sum)
			}
			if running > belowCeiling+kktTol {
				t.Fatalf("%+v at iF=%v: a running stack's marginal %v exceeds %v of one below its ceiling (split %v)",
					stacks, iF, running, belowCeiling, wf)
			}
			if fuelWF > fuelES+fuelTol {
				t.Fatalf("%+v at iF=%v: water-filling burns %v, equal-split %v", stacks, iF, fuelWF, fuelES)
			}
		}
	}
}
