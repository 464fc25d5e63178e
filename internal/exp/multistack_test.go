package exp

import (
	"context"
	"fmt"
	"testing"

	"fcdpm/internal/device"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/multistack"
	"fcdpm/internal/policy"
	"fcdpm/internal/sim"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

// TestMultiStackStudyWaterFillDominates is the study's acceptance check:
// on heterogeneous (degraded-mix) racks, water-filling uses strictly
// less fuel than equal-split in every (K, intensity) cell, and every
// batched row is bit-identical to a one-lane run of its rack.
func TestMultiStackStudyWaterFillDominates(t *testing.T) {
	cfg := MultiStackConfig{
		Ks:          []int{2, 4},
		Intensities: []float64{1.5, 2.5},
		Duration:    400,
	}
	rows, err := MultiStackStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*2*3 {
		t.Fatalf("got %d rows, want 12", len(rows))
	}
	fuel := map[string]float64{}
	for _, r := range rows {
		if r.Fuel <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		fuel[fmt.Sprintf("%s/%d/%g", r.Alloc, r.K, r.Intensity)] = r.Fuel
	}
	for _, k := range cfg.Ks {
		for _, x := range cfg.Intensities {
			eq := fuel[fmt.Sprintf("equal-split/%d/%g", k, x)]
			wf := fuel[fmt.Sprintf("water-filling/%d/%g", k, x)]
			if wf >= eq {
				t.Errorf("K=%d x%g: water-filling %v not strictly below equal-split %v", k, x, wf, eq)
			}
		}
	}

	// Each row must equal its rack simulated alone.
	for _, r := range rows {
		alloc, err := multistack.ParseAllocator(r.Alloc)
		if err != nil {
			t.Fatal(err)
		}
		rack, err := multistack.Uniform(fuelcell.PaperSystem(), r.K, alloc, []float64{0, 0.3})
		if err != nil {
			t.Fatal(err)
		}
		wcfg := workload.DefaultRackSurgeConfig()
		wcfg.Duration, wcfg.Intensity = cfg.Duration, r.Intensity
		trace, err := workload.RackSurge(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		sys := rack.System()
		res, err := sim.Run(sim.Config{
			Sys: sys, Dev: device.Synthetic(), Trace: trace,
			Store:  storage.MustSuperCap(6*float64(r.K), float64(r.K)),
			Policy: policy.NewASAP(sys),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Fuel != r.Fuel || res.Deficit != r.Deficit || res.Bled != r.Bled {
			t.Fatalf("%s K=%d x%g: batched row %+v differs from the one-lane run (fuel %v deficit %v bled %v)",
				r.Alloc, r.K, r.Intensity, r, res.Fuel, res.Deficit, res.Bled)
		}
	}
}

// TestMultiStackStudyHomogeneousTies: with an all-healthy rack the even
// split is already optimal, so water-filling matches equal-split to
// solver tolerance, and no allocator beats it — health-rotation's
// greedy concentration pays a convexity penalty instead.
func TestMultiStackStudyHomogeneousTies(t *testing.T) {
	rows, err := MultiStackStudy(context.Background(), MultiStackConfig{
		Ks:          []int{2},
		Intensities: []float64{2},
		DegradedMix: []float64{0},
		Duration:    300,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FuelVsEqual < 0.999 {
			t.Errorf("homogeneous rack: %s below equal-split fuel (%v×)", r.Alloc, r.FuelVsEqual)
		}
		if r.Alloc == "water-filling" && r.FuelVsEqual > 1.001 {
			t.Errorf("homogeneous rack: water-filling at %v× equal-split fuel", r.FuelVsEqual)
		}
	}
}
