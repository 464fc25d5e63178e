package exp

import (
	"context"

	"fcdpm/internal/device"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

// Experiment4Scenario is a generality check beyond the paper's platform: a
// portable-media-player disk drive on a proportionally smaller FC hybrid.
// The FC is a ~5 W-class system whose load-following range [0.033, 0.4] A
// and efficiency span mirror the paper's system at one third scale
// (ηs = 0.437 at the range bottom, 0.294 at the top, via β = 0.39); the
// storage is a 2 A-s supercap; the device is the HDD preset whose
// spin-up-dominated break-even time is ~16 s; the workload is a heavy-tail
// disk-access pattern.
//
// The point: nothing in FC-DPM is camcorder-specific — the same ordering
// emerges on a completely different device, scale, and workload.
func Experiment4Scenario(seed uint64) (*Scenario, error) {
	sys, err := fuelcell.NewSystem(12, 37.5, 0.033, 0.4,
		fuelcell.LinearEfficiency{Alpha: 0.45, Beta: 0.39})
	if err != nil {
		return nil, err
	}
	cfg := workload.HeavyTailConfig{
		Duration: 28 * 60,
		IdleXm:   8, IdleAlpha: 1.7, IdleCap: 300,
		ActiveMin: 0.5, ActiveMax: 3,
		PowerMin: 2.0, PowerMax: 2.6, // disk transfer power band
		V:    12,
		Seed: seed,
	}
	trace, err := workload.HeavyTail(cfg)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name:        "Experiment 4 (HDD media player, beyond paper)",
		Sys:         sys,
		Dev:         device.HDD(),
		Store:       storage.MustSuperCap(2, 0.4),
		Trace:       trace,
		IdlePred:    expAvg(0.5, 20),
		ActivePred:  expAvg(0.5, 1.5),
		CurrentPred: frozen(2.3 / 12),
	}, nil
}

// Experiment4 compares the three source policies on the disk platform.
func Experiment4(ctx context.Context, seed uint64) (*Comparison, error) {
	sc, err := Experiment4Scenario(seed)
	if err != nil {
		return nil, err
	}
	return sc.Compare(ctx, sc.Policies())
}
