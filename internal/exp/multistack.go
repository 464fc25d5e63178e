package exp

import (
	"context"
	"fmt"

	"fcdpm/internal/device"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/multistack"
	"fcdpm/internal/policy"
	"fcdpm/internal/sim"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

// MultiStackConfig parameterizes the multi-stack allocation study.
// Zero-valued fields take the defaults below.
type MultiStackConfig struct {
	// Ks lists the rack sizes to compare (default {2, 4}).
	Ks []int
	// Intensities lists the racksurge surge multipliers (default
	// {1.5, 2, 2.5}).
	Intensities []float64
	// DegradedMix is the per-stack efficiency-degradation cycle (default
	// {0, 0.3}: every second stack 30 % degraded — the heterogeneous
	// rack where allocation policy matters).
	DegradedMix []float64
	// Seed and Duration override the racksurge generator defaults.
	Seed     uint64
	Duration float64
}

func (c MultiStackConfig) withDefaults() MultiStackConfig {
	if len(c.Ks) == 0 {
		c.Ks = []int{2, 4}
	}
	if len(c.Intensities) == 0 {
		c.Intensities = []float64{1.5, 2, 2.5}
	}
	if c.DegradedMix == nil {
		c.DegradedMix = []float64{0, 0.3}
	}
	return c
}

// MultiStackRow is one (allocation policy, rack size, surge intensity)
// cell of the study.
type MultiStackRow struct {
	Alloc     string  // allocation policy name
	K         int     // rack size
	Intensity float64 // surge multiplier
	Fuel      float64 // fuel-rate integral, A-s
	Deficit   float64 // unmet load charge, A-s (brownout exposure)
	Bled      float64 // charge dissipated through the bleeder, A-s
	// FuelVsEqual is this row's fuel normalized to the equal-split row
	// of the same (K, intensity) cell; 1 for equal-split itself.
	FuelVsEqual float64
}

// MultiStackStudy compares the rack allocation policies (equal-split,
// water-filling, health-rotation) across rack sizes and surge
// intensities on the datacenter racksurge workload. Each rack runs the
// ASAP policy — the source decision then depends only on charge and
// load, never on the fuel map, so every allocator sees the identical
// output trajectory and the fuel column isolates pure allocation
// efficiency: water-filling's pointwise-optimal split strictly
// dominates equal-split whenever the degradation mix makes the rack
// heterogeneous.
func MultiStackStudy(ctx context.Context, cfg MultiStackConfig) ([]MultiStackRow, error) {
	cfg = cfg.withDefaults()
	allocs := multistack.Allocators()
	// Racks are immutable, so one pre-solve per (K, allocator) serves
	// every intensity.
	racks := make([]*multistack.Rack, 0, len(cfg.Ks)*len(allocs))
	for _, k := range cfg.Ks {
		for _, alloc := range allocs {
			rack, err := multistack.Uniform(fuelcell.PaperSystem(), k, alloc, cfg.DegradedMix)
			if err != nil {
				return nil, fmt.Errorf("exp: multistack K=%d: %w", k, err)
			}
			racks = append(racks, rack)
		}
	}
	var rows []MultiStackRow
	// One batch per intensity.
	for _, intensity := range cfg.Intensities {
		wcfg := workload.DefaultRackSurgeConfig()
		if cfg.Seed != 0 {
			wcfg.Seed = cfg.Seed
		}
		if cfg.Duration > 0 {
			wcfg.Duration = cfg.Duration
		}
		wcfg.Intensity = intensity
		trace, err := workload.RackSurge(wcfg)
		if err != nil {
			return nil, err
		}
		var lanes []sim.Lane
		for _, rack := range racks {
			sys := rack.System()
			// Storage scales with the rack: the paper's 6 A-s supercap
			// per stack, started at the per-stack initial charge.
			k := float64(rack.K())
			store, err := storage.NewSuperCap(6*k, k)
			if err != nil {
				return nil, err
			}
			lanes = append(lanes, sim.Lane{Cfg: sim.Config{
				Sys:    sys,
				Dev:    device.Synthetic(),
				Store:  store,
				Trace:  trace,
				Policy: policy.NewASAP(sys),
			}})
		}
		out, err := runBatch(ctx, lanes, func(i int) string { return fmt.Sprintf("lane %d", i) })
		if err != nil {
			return nil, fmt.Errorf("exp: multistack: %w", err)
		}
		for ki, k := range cfg.Ks {
			base := ki * len(allocs)
			equalFuel := out[base].Fuel
			for ai, alloc := range allocs {
				res := out[base+ai]
				rows = append(rows, MultiStackRow{
					Alloc:       alloc.Name(),
					K:           k,
					Intensity:   intensity,
					Fuel:        res.Fuel,
					Deficit:     res.Deficit,
					Bled:        res.Bled,
					FuelVsEqual: res.Fuel / equalFuel,
				})
			}
		}
	}
	return rows, nil
}
