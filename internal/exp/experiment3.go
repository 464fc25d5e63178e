package exp

import (
	"context"
	"fmt"

	"fcdpm/internal/device"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/policy"
	"fcdpm/internal/sim"
	"fcdpm/internal/stochdpm"
	"fcdpm/internal/workload"
)

// Experiment3Scenario is a beyond-paper stress case: the Experiment 2
// device under a Pareto-idle workload whose *median* idle is below the
// 10 s break-even time while the heavy tail carries most of the sleeping
// opportunity. The paper's two workloads are benign (every camcorder idle
// is sleep-worthy; the synthetic idles are uniform around 15 s); this one
// makes the DPM decision genuinely hard and separates the sleep policies.
func Experiment3Scenario(seed uint64) (*Scenario, error) {
	cfg := workload.DefaultHeavyTailConfig()
	cfg.Seed = seed
	trace, err := workload.HeavyTail(cfg)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name:        "Experiment 3 (heavy-tail idle, beyond paper)",
		Sys:         fuelcell.PaperSystem(),
		Dev:         device.Synthetic(),
		Store:       scenarioStore(),
		Trace:       trace,
		IdlePred:    expAvg(0.5, 8),
		ActivePred:  expAvg(0.5, 3),
		CurrentPred: frozen(1.2),
	}, nil
}

// Experiment3 compares the three source policies on the heavy-tail
// workload.
func Experiment3(ctx context.Context, seed uint64) (*Comparison, error) {
	sc, err := Experiment3Scenario(seed)
	if err != nil {
		return nil, err
	}
	return sc.Compare(ctx, sc.Policies())
}

// DPMRow is one device-side sleep policy's outcome under FC-DPM.
type DPMRow struct {
	Mode    string
	Sleeps  int
	FCRate  float64 // avg stack current
	Deficit float64
}

// Experiment3DPM runs FC-DPM under each sleep policy on the heavy-tail
// workload. On i.i.d. heavy-tailed idles, history-based prediction has
// nothing to learn — the exponential average hovers near the sub-Tbe mean
// and rarely sleeps — while the reactive timeout policy (the classic
// 2-competitive strategy) catches exactly the tail. The oracle bounds both.
func Experiment3DPM(ctx context.Context, seed uint64) ([]DPMRow, error) {
	modes := []sim.DPMMode{sim.DPMPredictive, sim.DPMTimeout, sim.DPMOracle, sim.DPMNeverSleep, sim.DPMAlwaysSleep}
	out, err := fanOut(ctx, "exp3-dpm", modes, func(ctx context.Context, mode sim.DPMMode) (DPMRow, error) {
		sc, err := Experiment3Scenario(seed)
		if err != nil {
			return DPMRow{}, err
		}
		sc.DPM = mode
		res, err := sc.run(ctx, policy.NewFCDPM(sc.Sys, sc.Dev))
		if err != nil {
			return DPMRow{}, fmt.Errorf("exp: experiment 3 %s: %w", mode, err)
		}
		return DPMRow{
			Mode:    mode.String(),
			Sleeps:  res.Sleeps,
			FCRate:  res.AvgFuelRate(),
			Deficit: res.Deficit,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// The stochastic-control entry ([4, 5]): a timeout adapted online to
	// the learned idle distribution.
	sc, err := Experiment3Scenario(seed)
	if err != nil {
		return nil, err
	}
	sc.DPM = sim.DPMTimeout
	adapter, err := stochdpm.NewAdaptiveTimeout(sc.Dev, 100)
	if err != nil {
		return nil, err
	}
	sc.TimeoutAdapter = adapter
	res, err := sc.run(ctx, policy.NewFCDPM(sc.Sys, sc.Dev))
	if err != nil {
		return nil, fmt.Errorf("exp: experiment 3 adaptive timeout: %w", err)
	}
	out = append(out, DPMRow{
		Mode:    "adaptive-timeout",
		Sleeps:  res.Sleeps,
		FCRate:  res.AvgFuelRate(),
		Deficit: res.Deficit,
	})
	return out, nil
}
