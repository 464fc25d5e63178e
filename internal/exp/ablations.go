package exp

import (
	"context"
	"fmt"
	"math"

	"fcdpm/internal/fuelcell"
	"fcdpm/internal/policy"
	"fcdpm/internal/predict"
	"fcdpm/internal/runner"
	"fcdpm/internal/sim"
	"fcdpm/internal/storage"
)

// SweepPoint is one abscissa of an ablation sweep.
type SweepPoint struct {
	X            float64 // swept parameter value
	SavingVsASAP float64 // FC-DPM fuel saving over ASAP-DPM at this point
	FCNormalized float64 // FC-DPM fuel normalized to Conv-DPM
}

// CapacitySweep reruns Experiment 1 across storage capacities (in A-s),
// quantifying how much buffer FC-DPM's flattening needs. The paper's
// supercap is 6 A-s. Every point starts (and targets) the reserve
// operating point, so FC-DPM has idle-charging headroom at every
// capacity; see ReserveCharge.
func CapacitySweep(ctx context.Context, seed uint64) ([]SweepPoint, error) {
	return sweepPoints(ctx, seed, []float64{1, 2, 3, 6, 12, 24, 60}, func(sc *Scenario, cmax float64) (err error) {
		sc.Store, err = storage.NewSuperCap(cmax, math.Min(ReserveCharge, cmax/2))
		return err
	})
}

// BetaSweep reruns Experiment 1 across efficiency slopes β (with α fixed at
// the paper's 0.45). At β = 0 the fuel map is linear and flattening brings
// nothing; the paper's measured β = 0.13 is where FC-DPM earns its keep.
func BetaSweep(ctx context.Context, seed uint64) ([]SweepPoint, error) {
	return sweepPoints(ctx, seed, []float64{0, 0.05, 0.10, 0.13, 0.20, 0.30}, func(sc *Scenario, beta float64) (err error) {
		sc.Sys, err = fuelcell.NewSystem(12, 37.5, 0.1, 1.2, fuelcell.LinearEfficiency{Alpha: 0.45, Beta: beta})
		return err
	})
}

// RhoSweep reruns Experiment 1 across idle-prediction factors ρ (Eq 14).
func RhoSweep(ctx context.Context, seed uint64) ([]SweepPoint, error) {
	return sweepPoints(ctx, seed, []float64{0, 0.25, 0.5, 0.75, 1}, func(sc *Scenario, rho float64) error {
		sc.IdlePred = expAvg(rho, 14)
		return nil
	})
}

// sweepPoints reruns Experiment 1's comparison at each abscissa, on the
// scenario set(x) adjusts, and reports FC-DPM's standing at each.
func sweepPoints(ctx context.Context, seed uint64, xs []float64, set func(sc *Scenario, x float64) error) ([]SweepPoint, error) {
	return fanOut(ctx, "ablation", xs, func(ctx context.Context, x float64) (SweepPoint, error) {
		sc, err := Experiment1Scenario(seed)
		if err != nil {
			return SweepPoint{}, err
		}
		if err := set(sc, x); err != nil {
			return SweepPoint{}, err
		}
		cmp, err := sc.Compare(ctx, sc.Policies())
		if err != nil {
			return SweepPoint{}, err
		}
		return SweepPoint{X: x, SavingVsASAP: cmp.SavingVsASAP,
			FCNormalized: cmp.Row("FC-DPM").Normalized}, nil
	})
}

// fanOut evaluates f at each input concurrently on the run engine (bounded
// workers, panic isolation) and returns the rows in input order, so sweep
// tables stay deterministic regardless of completion order. It is the
// package's one parallel map. Inputs must not share mutable state across
// evaluations — build a fresh scenario (or share only read-only ones)
// inside f. Each evaluation receives the task's context (derived from
// ctx), so canceling ctx interrupts the whole fan-out.
func fanOut[T, R any](ctx context.Context, name string, inputs []T, f func(ctx context.Context, in T) (R, error)) ([]R, error) {
	tasks := make([]runner.Task[R], len(inputs))
	for i, in := range inputs {
		in := in
		tasks[i] = runner.Task[R]{
			ID:  runner.RunID(name, fmt.Sprintf("i=%d", i)),
			Run: func(tctx context.Context) (R, error) { return f(tctx, in) },
		}
	}
	rep, err := runner.Run(ctx, runner.Options{}, tasks)
	if rep != nil && rep.FirstError() != nil {
		return nil, rep.FirstError()
	}
	if err != nil {
		return nil, err
	}
	out := make([]R, len(inputs))
	for i, o := range rep.Outcomes {
		out[i] = o.Result
	}
	return out, nil
}

// PredictorRow is one line of the predictor ablation.
type PredictorRow struct {
	Predictor    string
	Accuracy     predict.Accuracy // on the idle-period series
	FCNormalized float64          // FC-DPM fuel normalized to Conv-DPM
}

// PredictorAblation runs Experiment 1's FC-DPM under different idle-period
// predictors and reports both prediction accuracy and fuel impact.
func PredictorAblation(ctx context.Context, seed uint64) ([]PredictorRow, error) {
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, err
	}
	idle := sc.Trace.IdleLengths()
	preds := []func() predict.Predictor{
		expAvg(0.5, 14),
		func() predict.Predictor { return predict.NewLastValue(14) },
		func() predict.Predictor { return predict.MustMovingAverage(5, 14) },
		func() predict.Predictor { return predict.MustRegression(5, 14) },
		func() predict.Predictor { return predict.MustTree(8, 2, 8, 20, 14) },
		func() predict.Predictor { return predict.MustMarkov(8, 8, 20, 14) },
		func() predict.Predictor { return predict.NewOracle(idle, 14) },
	}
	return fanOut(ctx, "predictor", preds, func(ctx context.Context, mk func() predict.Predictor) (PredictorRow, error) {
		sc, err := Experiment1Scenario(seed)
		if err != nil {
			return PredictorRow{}, err
		}
		sc.IdlePred = mk
		cmp, err := sc.Compare(ctx, sc.Policies())
		if err != nil {
			return PredictorRow{}, err
		}
		acc, err := predict.Evaluate(mk(), idle)
		if err != nil {
			return PredictorRow{}, err
		}
		return PredictorRow{
			Predictor:    mk().Name(),
			Accuracy:     acc,
			FCNormalized: cmp.Row("FC-DPM").Normalized,
		}, nil
	})
}

// ConstantEtaAblation reruns Experiment 1 with the constant-efficiency
// (on/off-fan, [10,11]) system. With a flat ηs the fuel map is linear, so
// FC-DPM's flattening advantage over ASAP should collapse toward zero —
// the structural reason the paper needed the PWM-PFM + variable-fan
// configuration.
func ConstantEtaAblation(ctx context.Context, seed uint64) (linear, constant *Comparison, err error) {
	if linear, err = Experiment1(ctx, seed); err != nil {
		return nil, nil, err
	}
	sysConst, err := fuelcell.NewSystem(12, 37.5, 0.1, 1.2, fuelcell.ConstantEfficiency{Value: 0.37})
	if err != nil {
		return nil, nil, err
	}
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, nil, err
	}
	sc.Sys = sysConst
	constant, err = sc.Compare(ctx, sc.Policies())
	if err != nil {
		return nil, nil, err
	}
	return linear, constant, nil
}

// StorageModelAblation runs Experiment 1's FC-DPM on the ideal supercap
// versus the KiBaM Li-ion model, exposing how battery non-linearities
// (which the FC-DPM planner does not model) perturb the outcome.
func StorageModelAblation(ctx context.Context, seed uint64) (super, liion *Comparison, err error) {
	if super, err = Experiment1(ctx, seed); err != nil {
		return nil, nil, err
	}
	batt, err := storage.NewLiIon(6, 0.6, 0.05, ReserveCharge)
	if err != nil {
		return nil, nil, err
	}
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, nil, err
	}
	sc.Store = batt
	liion, err = sc.Compare(ctx, sc.Policies())
	if err != nil {
		return nil, nil, err
	}
	return super, liion, nil
}

// DPMModeAblation reruns Experiment 1 under each device-side sleep policy.
func DPMModeAblation(ctx context.Context, seed uint64) (map[string]*Comparison, error) {
	modes := []sim.DPMMode{sim.DPMPredictive, sim.DPMNeverSleep, sim.DPMAlwaysSleep, sim.DPMOracle}
	cmps, err := fanOut(ctx, "dpm-mode", modes, func(ctx context.Context, mode sim.DPMMode) (*Comparison, error) {
		sc, err := Experiment1Scenario(seed)
		if err != nil {
			return nil, err
		}
		sc.DPM = mode
		return sc.Compare(ctx, sc.Policies())
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Comparison, len(modes))
	for i, mode := range modes {
		out[mode.String()] = cmps[i]
	}
	return out, nil
}

// FlatOracle runs the offline best *fixed* FC output over the Experiment 1
// trace — by convexity the capacity-unconstrained lower bound — and
// returns it alongside FC-DPM for a gap analysis. The flat setting is the
// total demanded charge divided by total time, computed from a Conv-DPM
// dry run's load accounting.
func FlatOracle(ctx context.Context, seed uint64) (flat *sim.Result, fcdpm *sim.Result, err error) {
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, nil, err
	}
	// Dry run to learn total load charge and duration.
	dry, err := sc.run(ctx, policy.NewConv(sc.Sys))
	if err != nil {
		return nil, nil, err
	}
	avgLoad := dry.LoadEnergy / (sc.Sys.VF * dry.Duration)
	if flat, err = sc.run(ctx, policy.NewFlat(sc.Sys, avgLoad)); err != nil {
		return nil, nil, err
	}
	if fcdpm, err = sc.run(ctx, policy.NewFCDPM(sc.Sys, sc.Dev)); err != nil {
		return nil, nil, err
	}
	return flat, fcdpm, nil
}
