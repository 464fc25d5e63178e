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
// supercap is 6 A-s.
func CapacitySweep(ctx context.Context, seed uint64, capacities []float64) ([]SweepPoint, error) {
	return sweepParallel(ctx, capacities, func(ctx context.Context, cmax float64) (SweepPoint, error) {
		sc, err := capacityScenario(seed, cmax)
		if err != nil {
			return SweepPoint{}, err
		}
		cmp, err := sc.CompareContext(ctx, sc.Policies())
		if err != nil {
			return SweepPoint{}, err
		}
		return SweepPoint{X: cmax, SavingVsASAP: cmp.SavingVsASAP,
			FCNormalized: cmp.Row("FC-DPM").Normalized}, nil
	})
}

// capacityScenario builds one capacity-sweep point: Experiment 1 with the
// supercap resized to cmax. Start (and target) at the reserve operating
// point so FC-DPM has idle-charging headroom at every capacity; see
// ReserveCharge. A non-positive capacity surfaces as the storage
// ConfigError.
func capacityScenario(seed uint64, cmax float64) (*Scenario, error) {
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, err
	}
	store, err := storage.NewSuperCap(cmax, math.Min(ReserveCharge, cmax/2))
	if err != nil {
		return nil, err
	}
	sc.Store = store
	return sc, nil
}

// sweepParallel evaluates f at each abscissa on the run engine (bounded
// workers, panic isolation), preserving order. Each evaluation builds its
// own scenario, so nothing is shared.
func sweepParallel(ctx context.Context, xs []float64, f func(ctx context.Context, x float64) (SweepPoint, error)) ([]SweepPoint, error) {
	return fanOut(ctx, "ablation", xs, f)
}

// fanOut evaluates f at each input concurrently on the run engine (bounded
// workers, panic isolation) and returns the rows in input order, so sweep
// tables stay deterministic regardless of completion order. Inputs must
// not share mutable state across evaluations — build a fresh scenario (or
// share only read-only ones) inside f. Each evaluation receives the
// task's context (derived from ctx), so canceling ctx interrupts the
// whole fan-out — sweeps launched through the server or an interrupted
// CLI no longer run to completion unobserved.
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
	if err != nil {
		if rep != nil && rep.FirstError() != nil {
			return nil, rep.FirstError()
		}
		return nil, err
	}
	if err := rep.FirstError(); err != nil {
		return nil, err
	}
	out := make([]R, len(inputs))
	for i, o := range rep.Outcomes {
		out[i] = o.Result
	}
	return out, nil
}

// BetaSweep reruns Experiment 1 across efficiency slopes β (with α fixed at
// the paper's 0.45). At β = 0 the fuel map is linear and flattening brings
// nothing; the paper's measured β = 0.13 is where FC-DPM earns its keep.
func BetaSweep(ctx context.Context, seed uint64, betas []float64) ([]SweepPoint, error) {
	return sweepParallel(ctx, betas, func(ctx context.Context, beta float64) (SweepPoint, error) {
		sc, err := betaScenario(seed, beta)
		if err != nil {
			return SweepPoint{}, err
		}
		cmp, err := sc.CompareContext(ctx, sc.Policies())
		if err != nil {
			return SweepPoint{}, err
		}
		return SweepPoint{X: beta, SavingVsASAP: cmp.SavingVsASAP,
			FCNormalized: cmp.Row("FC-DPM").Normalized}, nil
	})
}

// betaScenario builds one beta-sweep point: Experiment 1 with the
// efficiency slope replaced (α fixed at the paper's 0.45).
func betaScenario(seed uint64, beta float64) (*Scenario, error) {
	if beta < 0 {
		return nil, fmt.Errorf("exp: negative beta %v", beta)
	}
	sys, err := fuelcell.NewSystem(12, 37.5, 0.1, 1.2, fuelcell.LinearEfficiency{Alpha: 0.45, Beta: beta})
	if err != nil {
		return nil, err
	}
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, err
	}
	sc.Sys = sys
	return sc, nil
}

// RhoSweep reruns Experiment 1 across idle-prediction factors ρ (Eq 14).
func RhoSweep(ctx context.Context, seed uint64, rhos []float64) ([]SweepPoint, error) {
	return sweepParallel(ctx, rhos, func(ctx context.Context, rho float64) (SweepPoint, error) {
		sc, err := rhoScenario(seed, rho)
		if err != nil {
			return SweepPoint{}, err
		}
		cmp, err := sc.CompareContext(ctx, sc.Policies())
		if err != nil {
			return SweepPoint{}, err
		}
		return SweepPoint{X: rho, SavingVsASAP: cmp.SavingVsASAP,
			FCNormalized: cmp.Row("FC-DPM").Normalized}, nil
	})
}

// rhoScenario builds one rho-sweep point: Experiment 1 with the idle
// exponential-average factor replaced.
func rhoScenario(seed uint64, rho float64) (*Scenario, error) {
	if math.IsNaN(rho) || rho < 0 || rho > 1 {
		return nil, fmt.Errorf("exp: rho %v outside [0,1]", rho)
	}
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, err
	}
	sc.IdlePred = expAvg(rho, 14)
	return sc, nil
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
		cmp, err := sc.CompareContext(ctx, sc.Policies())
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
func ConstantEtaAblation(seed uint64) (linear, constant *Comparison, err error) {
	if linear, err = Experiment1(context.TODO(), seed); err != nil {
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
	constant, err = sc.Compare(sc.Policies())
	if err != nil {
		return nil, nil, err
	}
	return linear, constant, nil
}

// StorageModelAblation runs Experiment 1's FC-DPM on the ideal supercap
// versus the KiBaM Li-ion model, exposing how battery non-linearities
// (which the FC-DPM planner does not model) perturb the outcome.
func StorageModelAblation(seed uint64) (super, liion *Comparison, err error) {
	if super, err = Experiment1(context.TODO(), seed); err != nil {
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
	liion, err = sc.Compare(sc.Policies())
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
		return sc.CompareContext(ctx, sc.Policies())
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
func FlatOracle(seed uint64) (flat *sim.Result, fcdpm *sim.Result, err error) {
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, nil, err
	}
	// Dry run to learn total load charge and duration.
	dry, err := sc.runOne(policy.NewConv(sc.Sys))
	if err != nil {
		return nil, nil, err
	}
	avgLoad := dry.LoadEnergy / (sc.Sys.VF * dry.Duration)
	flatPol := policy.NewFlat(sc.Sys, avgLoad)
	if flat, err = sc.runOne(flatPol); err != nil {
		return nil, nil, err
	}
	if fcdpm, err = sc.runOne(policy.NewFCDPM(sc.Sys, sc.Dev)); err != nil {
		return nil, nil, err
	}
	return flat, fcdpm, nil
}
