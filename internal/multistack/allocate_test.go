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
// reference implementation's bit for bit.
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
	}
}

// TestRackTableMatchesReference: on the study's racks and on random
// ones, every point of the pre-solved grid allocates bit-identically to
// the reference, and the aggregate efficiency table holds exactly the
// values the reference allocation yields.
func TestRackTableMatchesReference(t *testing.T) {
	paper := fuelcell.PaperSystem()
	var racks [][]Stack
	for _, k := range []int{2, 4, 8} {
		for _, mix := range [][]float64{nil, {0, 0.3}, {0.1, 0.2, 0.4}} {
			r, err := Uniform(paper, k, WaterFill{}, mix)
			if err != nil {
				t.Fatal(err)
			}
			racks = append(racks, r.Stacks())
		}
	}
	rng := rand.New(rand.NewSource(16))
	systems := []*fuelcell.System{paper, fuelcell.PaperSystem(), altSystem(t)}
	for i := 0; i < 3; i++ {
		racks = append(racks, randomRack(rng, systems))
	}
	if testing.Short() {
		racks = racks[:4]
	}
	for _, stacks := range racks {
		grid := gridDemands(stacks)
		for _, a := range refAllocators() {
			r, err := New(stacks, a.alloc)
			if err != nil {
				t.Fatal(err)
			}
			tab := r.System().Eff.(rackEfficiency).t
			got, want := make([]float64, len(stacks)), make([]float64, len(stacks))
			for k, iF := range grid {
				a.alloc.Allocate(stacks, iF, got)
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
