package exp

import (
	"context"
	"fmt"

	"fcdpm/internal/device"
	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/numeric"
	"fcdpm/internal/policy"
	"fcdpm/internal/predict"
	"fcdpm/internal/sim"
	"fcdpm/internal/workload"
)

// QuantizedRow is one line of the output-level ablation.
type QuantizedRow struct {
	Levels       int     // 0 marks the continuous reference
	Fuel         float64 // A-s over the Experiment 1 trace
	FCNormalized float64 // vs Conv-DPM
	GapVsCont    float64 // fractional fuel above the continuous policy
}

// QuantizedSweep runs Experiment 1's FC-DPM with discrete output-level
// grids of increasing resolution (the multi-level configuration of [11])
// against the continuous policy.
func QuantizedSweep(ctx context.Context, seed uint64) ([]QuantizedRow, error) {
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, err
	}
	conv, err := sc.run(ctx, policy.NewConv(sc.Sys))
	if err != nil {
		return nil, err
	}
	cont, err := sc.run(ctx, policy.NewFCDPM(sc.Sys, sc.Dev))
	if err != nil {
		return nil, err
	}
	rows := []QuantizedRow{{
		Levels:       0,
		Fuel:         cont.Fuel,
		FCNormalized: cont.NormalizedFuel(conv),
	}}
	// The scenario is shared read-only across level runs (each run clones
	// the storage and builds a fresh policy), so the levels fan out.
	lvlRows, err := fanOut(ctx, "quantized", []int{2, 3, 4, 8, 16}, func(ctx context.Context, n int) (QuantizedRow, error) {
		p, err := policy.NewFCDPMQuantized(sc.Sys, sc.Dev, fcopt.UniformLevels(sc.Sys, n))
		if err != nil {
			return QuantizedRow{}, err
		}
		res, err := sc.run(ctx, p)
		if err != nil {
			return QuantizedRow{}, err
		}
		return QuantizedRow{
			Levels:       n,
			Fuel:         res.Fuel,
			FCNormalized: res.NormalizedFuel(conv),
			GapVsCont:    res.Fuel/cont.Fuel - 1,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return append(rows, lvlRows...), nil
}

// OfflineOracleDP solves the Experiment 1 trace offline with the
// capacity-constrained dynamic program and replays the schedule through
// the simulator, returning (offline, online FC-DPM) results. The DP's
// schedule is feasible on its storage grid, so its fuel is an upper
// bound on the capacity-constrained optimum; FlatOracle's capacity-free
// flat output is the lower bound.
func OfflineOracleDP(ctx context.Context, seed uint64, gridN int) (offline, online *sim.Result, err error) {
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, nil, err
	}
	dev := sc.Dev
	tbe := dev.BreakEven()
	slots := make([]fcopt.Slot, sc.Trace.Len())
	for k, s := range sc.Trace.Slots {
		// Mirror the simulator's segment structure with charge-equivalent
		// average currents. All camcorder idles exceed Tbe, but handle
		// the general case.
		sleeping := s.Idle >= tbe
		var ildI float64
		if sleeping && s.Idle > 0 {
			pd := minF(dev.TauPD, s.Idle)
			ildI = (dev.IPD*pd + dev.Islp*(s.Idle-pd)) / s.Idle
		} else {
			ildI = dev.Isdb
		}
		taEff := dev.TauSR + s.Active + dev.TauRS
		activeCharge := s.ActiveCurrent * taEff
		if sleeping {
			taEff += dev.TauWU
			activeCharge += dev.IWU * dev.TauWU
		}
		slots[k] = fcopt.Slot{Ti: s.Idle, IldI: ildI, Ta: taEff, IldA: activeCharge / taEff}
	}
	sched, err := fcopt.SolveOffline(fcopt.OfflineProblem{
		Sys:   sc.Sys,
		Cmax:  sc.Store.Capacity(),
		Slots: slots,
		Q0:    sc.Store.Charge(),
		GridN: gridN,
	})
	if err != nil {
		return nil, nil, err
	}
	if offline, err = sc.run(ctx, policy.NewSchedule(sc.Sys, sched.Settings)); err != nil {
		return nil, nil, err
	}
	if online, err = sc.run(ctx, policy.NewFCDPM(sc.Sys, sc.Dev)); err != nil {
		return nil, nil, err
	}
	return offline, online, nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// TimeoutAblation compares the predictive DPM against classic timeout DPM
// (dwell = Tbe) under the FC-DPM source policy on Experiment 1.
func TimeoutAblation(ctx context.Context, seed uint64) (predictive, timeout *sim.Result, err error) {
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, nil, err
	}
	if predictive, err = sc.run(ctx, policy.NewFCDPM(sc.Sys, sc.Dev)); err != nil {
		return nil, nil, err
	}
	sc.DPM = sim.DPMTimeout
	if timeout, err = sc.run(ctx, policy.NewFCDPM(sc.Sys, sc.Dev)); err != nil {
		return nil, nil, err
	}
	return predictive, timeout, nil
}

// HydrogenReport converts an Experiment 1 comparison into physical
// hydrogen terms for a cartridge of the given H2 mass.
type HydrogenReport struct {
	Policy        string
	Grams         float64 // H2 burned over the trace
	LitresSTP     float64
	LifetimeHours float64 // on the cartridge
	EndToEndEff   float64 // delivered J / LHV J
}

// Hydrogen expands a comparison into hydrogen units using the 20-cell
// stack conversion.
func Hydrogen(cmp *Comparison, cartridgeGrams float64) ([]HydrogenReport, error) {
	if cartridgeGrams <= 0 {
		return nil, fmt.Errorf("exp: non-positive cartridge mass %v", cartridgeGrams)
	}
	h := fuelcell.PaperHydrogen()
	out := make([]HydrogenReport, 0, len(cmp.Rows))
	for _, row := range cmp.Rows {
		res := cmp.Results[row.Name]
		out = append(out, HydrogenReport{
			Policy:        row.Name,
			Grams:         h.Grams(res.Fuel),
			LitresSTP:     h.LitresSTP(res.Fuel),
			LifetimeHours: h.CartridgeLifetime(cartridgeGrams, res.AvgFuelRate()) / 3600,
			EndToEndEff:   h.EndToEndEfficiency(res.DeliveredEnergy, res.Fuel),
		})
	}
	return out, nil
}

// SeedSummary aggregates a metric across seeds.
type SeedSummary struct {
	Seeds        int
	ASAPNorm     numeric.Summary
	FCNorm       numeric.Summary
	SavingVsASAP numeric.Summary
}

// MultiSeed reruns Experiment 1 on seeds 1–5 and summarizes the
// normalized-fuel metrics, giving the reproduction error bars the
// paper's single trace cannot. Each run owns its trace, storage clone
// and policy state, so the seeds share nothing.
func MultiSeed(ctx context.Context) (*SeedSummary, error) {
	cmps, err := fanOut(ctx, "multiseed", []uint64{1, 2, 3, 4, 5}, Experiment1)
	if err != nil {
		return nil, err
	}
	var asap, fc, saving []float64
	for _, cmp := range cmps {
		asap = append(asap, cmp.Row("ASAP-DPM").Normalized)
		fc = append(fc, cmp.Row("FC-DPM").Normalized)
		saving = append(saving, cmp.SavingVsASAP)
	}
	return &SeedSummary{
		Seeds:        len(cmps),
		ASAPNorm:     numeric.Summarize(asap),
		FCNorm:       numeric.Summarize(fc),
		SavingVsASAP: numeric.Summarize(saving),
	}, nil
}

// SlewRow is one point of the slew-rate ablation.
type SlewRow struct {
	RateAps     float64 // FC output slew limit, A/s (0 = ideal)
	ASAPRate    float64 // avg stack current under ASAP-DPM
	ASAPDeficit float64 // unmet load charge under ASAP-DPM, A-s
	FCRate      float64 // avg stack current under FC-DPM
	FCDeficit   float64 // unmet load charge under FC-DPM, A-s
}

// SlewAblation reruns Experiment 1 with FC output slew-rate limits. Real
// fuel-flow controllers settle over seconds; load following pays for every
// ramp (the storage covers tracking error, eventually browning out), while
// FC-DPM's flat per-slot profile barely moves — a robustness advantage the
// paper's ideal-source model does not surface.
func SlewAblation(ctx context.Context, seed uint64) ([]SlewRow, error) {
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, err
	}
	return fanOut(ctx, "slew", []float64{0, 0.5, 0.1, 0.05, 0.02}, func(ctx context.Context, rate float64) (SlewRow, error) {
		run := func(p sim.Policy) (*sim.Result, error) {
			cfg := sc.simConfig(p)
			cfg.SlewRate = rate
			return sim.RunContext(ctx, cfg)
		}
		asap, err := run(policy.NewASAP(sc.Sys))
		if err != nil {
			return SlewRow{}, err
		}
		fc, err := run(policy.NewFCDPM(sc.Sys, sc.Dev))
		if err != nil {
			return SlewRow{}, err
		}
		return SlewRow{
			RateAps:     rate,
			ASAPRate:    asap.AvgFuelRate(),
			ASAPDeficit: asap.Deficit,
			FCRate:      fc.AvgFuelRate(),
			FCDeficit:   fc.Deficit,
		}, nil
	})
}

// BatteryAwareAblation reproduces the paper's §1 claim that battery-aware
// DPM strategies do not transfer to fuel cells: the battery-centric
// shaping policy (max output when loaded, recharge-then-rest when idle)
// against FC-DPM on the Experiment 1 setup.
func BatteryAwareAblation(ctx context.Context, seed uint64) (batteryAware, fcdpm *sim.Result, err error) {
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, nil, err
	}
	if batteryAware, err = sc.run(ctx, policy.NewBatteryAware(sc.Sys)); err != nil {
		return nil, nil, err
	}
	if fcdpm, err = sc.run(ctx, policy.NewFCDPM(sc.Sys, sc.Dev)); err != nil {
		return nil, nil, err
	}
	return batteryAware, fcdpm, nil
}

// AggregationRow is one point of the idle-aggregation ([6, 7]) ablation.
type AggregationRow struct {
	K           int     // slots merged per group
	MaxDeferral float64 // worst task-completion delay, s
	Sleeps      int     // sleep transitions under FC-DPM
	FCRate      float64 // avg stack current under FC-DPM
}

// AggregationAblation applies idle aggregation (task procrastination) to
// the Experiment 1 trace at increasing factors and reruns FC-DPM: fewer,
// longer idles amortize the sleep-transition overhead at the price of
// task-completion latency.
func AggregationAblation(ctx context.Context, seed uint64) ([]AggregationRow, error) {
	base, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, err
	}
	return fanOut(ctx, "aggregation", []int{1, 2, 4, 8}, func(ctx context.Context, k int) (AggregationRow, error) {
		agg, err := workload.Aggregate(base.Trace, k)
		if err != nil {
			return AggregationRow{}, err
		}
		defer0, err := workload.MaxDeferral(base.Trace, k)
		if err != nil {
			return AggregationRow{}, err
		}
		sc := *base
		sc.Trace = agg
		res, err := sc.run(ctx, policy.NewFCDPM(sc.Sys, sc.Dev))
		if err != nil {
			return AggregationRow{}, err
		}
		return AggregationRow{
			K:           k,
			MaxDeferral: defer0,
			Sleeps:      res.Sleeps,
			FCRate:      res.AvgFuelRate(),
		}, nil
	})
}

// ActuationRow is one point of the dead-band ablation.
type ActuationRow struct {
	Epsilon   float64 // dead band, A (0 = plain FC-DPM)
	Setpoints int     // FC set-point commands over the trace
	FCRate    float64 // avg stack current
}

// ActuationAblation reruns Experiment 1's FC-DPM with actuation dead bands:
// how much fuel does it cost to command the fuel-flow actuator less often?
func ActuationAblation(ctx context.Context, seed uint64) ([]ActuationRow, error) {
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, err
	}
	return fanOut(ctx, "actuation", []float64{0, 0.02, 0.05, 0.1, 0.2}, func(ctx context.Context, eps float64) (ActuationRow, error) {
		banded, err := policy.NewFCDPMBanded(sc.Sys, sc.Dev, eps)
		if err != nil {
			return ActuationRow{}, err
		}
		res, err := sc.run(ctx, banded)
		if err != nil {
			return ActuationRow{}, err
		}
		return ActuationRow{
			Epsilon:   eps,
			Setpoints: res.SetpointChanges,
			FCRate:    res.AvgFuelRate(),
		}, nil
	})
}

// CalibrationRow is one corner of the efficiency-calibration uncertainty
// study.
type CalibrationRow struct {
	Alpha, Beta  float64
	FCNormalized float64 // FC-DPM vs Conv-DPM under the same (α, β)
	SavingVsASAP float64
}

// CalibrationUncertainty propagates measurement uncertainty in the Eq 2
// coefficients through Experiment 1: it reruns the comparison at the four
// corners of a ±10 % box around (α = 0.45, β = 0.13) plus the centre.
// The paper reports single measured values; this bounds how much the
// conclusions depend on them.
func CalibrationUncertainty(ctx context.Context, seed uint64) ([]CalibrationRow, error) {
	const alpha0, beta0, relErr = 0.45, 0.13, 0.1
	points := [][2]float64{
		{alpha0, beta0},
		{alpha0 * (1 - relErr), beta0 * (1 - relErr)},
		{alpha0 * (1 - relErr), beta0 * (1 + relErr)},
		{alpha0 * (1 + relErr), beta0 * (1 - relErr)},
		{alpha0 * (1 + relErr), beta0 * (1 + relErr)},
	}
	return fanOut(ctx, "calibration", points, func(ctx context.Context, p [2]float64) (CalibrationRow, error) {
		sys, err := fuelcell.NewSystem(12, 37.5, 0.1, 1.2,
			fuelcell.LinearEfficiency{Alpha: p[0], Beta: p[1]})
		if err != nil {
			return CalibrationRow{}, err
		}
		sc, err := Experiment1Scenario(seed)
		if err != nil {
			return CalibrationRow{}, err
		}
		sc.Sys = sys
		cmp, err := sc.Compare(ctx, sc.Policies())
		if err != nil {
			return CalibrationRow{}, err
		}
		return CalibrationRow{
			Alpha: p[0], Beta: p[1],
			FCNormalized: cmp.Row("FC-DPM").Normalized,
			SavingVsASAP: cmp.SavingVsASAP,
		}, nil
	})
}

// ThermalRow summarizes one policy's stack-temperature trajectory.
type ThermalRow struct {
	Policy string
	Stress fuelcell.ThermalStress
}

// ThermalStressAblation integrates the lumped stack-temperature model over
// each policy's Experiment 1 output profile. Flat profiles warm up once
// and hold; load-following profiles cycle the stack thermally every slot —
// the dominant PEM ageing mechanism, and a durability advantage of FC-DPM
// that the paper's isothermal model cannot express.
func ThermalStressAblation(ctx context.Context, seed uint64) ([]ThermalRow, error) {
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, err
	}
	sc.Record = sim.RecordFull
	cmp, err := sc.Compare(ctx, sc.Policies())
	if err != nil {
		return nil, err
	}
	th := fuelcell.PaperThermal()
	out := make([]ThermalRow, 0, len(cmp.Rows))
	for _, row := range cmp.Rows {
		res := cmp.Results[row.Name]
		ts := make([]float64, len(res.Profile))
		ifs := make([]float64, len(res.Profile))
		for i, p := range res.Profile {
			ts[i] = p.T
			ifs[i] = p.IF
		}
		traj, err := th.Trajectory(sc.Sys, ts, ifs, 1)
		if err != nil {
			return nil, err
		}
		// Skip the warm-up transient: stress over the second half.
		out = append(out, ThermalRow{Policy: row.Name, Stress: fuelcell.Stress(traj[len(traj)/2:])})
	}
	return out, nil
}

// MPCRow is one point of the receding-horizon ablation.
type MPCRow struct {
	Horizon int
	FCRate  float64
	Deficit float64
}

// MPCAblation runs the receding-horizon FC-DPM variant at increasing
// horizons on Experiment 1. On this workload the per-slot policy already
// sits ~0.1 % from the clairvoyant optimum, so the expected (and measured)
// result is "the horizon buys nothing" — an honest negative result
// bounding what lookahead can contribute at the paper's storage scale.
func MPCAblation(ctx context.Context, seed uint64) ([]MPCRow, error) {
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, err
	}
	return fanOut(ctx, "mpc", []int{1, 2, 3, 5}, func(ctx context.Context, h int) (MPCRow, error) {
		mpc, err := policy.NewMPC(sc.Sys, sc.Dev, h)
		if err != nil {
			return MPCRow{}, err
		}
		res, err := sc.run(ctx, mpc)
		if err != nil {
			return MPCRow{}, err
		}
		return MPCRow{Horizon: h, FCRate: res.AvgFuelRate(), Deficit: res.Deficit}, nil
	})
}

// Robustness is the Monte-Carlo model-uncertainty study: FC-DPM's saving
// vs ASAP measured across trials that jointly perturb the device currents,
// transition overheads, and efficiency coefficients by ±pct and redraw the
// trace — the strongest form of "the conclusion does not hinge on any one
// calibration number".
type Robustness struct {
	Trials int
	Pct    float64
	Saving numeric.Summary
	FCNorm numeric.Summary
	// Wins counts trials where FC-DPM strictly beat ASAP-DPM.
	Wins int
}

// RobustnessStudy runs n perturbed Experiment 1 trials on the run engine.
func RobustnessStudy(ctx context.Context, seed uint64, n int, pct float64) (*Robustness, error) {
	if n < 1 {
		return nil, fmt.Errorf("exp: need at least one trial")
	}
	if pct <= 0 || pct >= 0.5 {
		return nil, fmt.Errorf("exp: perturbation %v outside (0, 0.5)", pct)
	}
	trials := make([]uint64, n)
	for i := range trials {
		trials[i] = uint64(i)
	}
	cmps, err := fanOut(ctx, "robustness", trials, func(ctx context.Context, i uint64) (*Comparison, error) {
		rng := numeric.NewRNG(seed + i*7919)
		perturb := func(v float64) float64 { return v * (1 + pct*(2*rng.Float64()-1)) }

		sc, err := Experiment1Scenario(seed + i)
		if err != nil {
			return nil, err
		}
		// Perturb the device model.
		dev := *sc.Dev
		dev.Isdb = perturb(dev.Isdb)
		dev.Islp = perturb(dev.Islp)
		if dev.Islp >= dev.Isdb {
			dev.Islp = dev.Isdb * 0.6
		}
		dev.IPD = perturb(dev.IPD)
		dev.IWU = perturb(dev.IWU)
		dev.TauPD = perturb(dev.TauPD)
		dev.TauWU = perturb(dev.TauWU)
		sc.Dev = &dev
		// Perturb the efficiency coefficients.
		sys, err := fuelcell.NewSystem(12, 37.5, 0.1, 1.2, fuelcell.LinearEfficiency{
			Alpha: perturb(0.45),
			Beta:  perturb(0.13),
		})
		if err != nil {
			return nil, err
		}
		sc.Sys = sys
		return sc.Compare(ctx, sc.Policies())
	})
	if err != nil {
		return nil, err
	}
	r := &Robustness{Trials: n, Pct: pct}
	savings := make([]float64, n)
	norms := make([]float64, n)
	for i, cmp := range cmps {
		savings[i] = cmp.SavingVsASAP
		norms[i] = cmp.Row("FC-DPM").Normalized
		if savings[i] > 0 {
			r.Wins++
		}
	}
	r.Saving, r.FCNorm = numeric.Summarize(savings), numeric.Summarize(norms)
	return r, nil
}

// BurstyPredictorStudy runs FC-DPM on the regime-switching workload under
// each idle predictor. With correlated idles and a 10 s break-even time,
// the sleep decision is exactly a regime-detection problem: predictors
// that model history (Markov chain, last-value) beat the paper's
// exponential average, which smears across regime boundaries — the
// workload class where predictor choice finally matters end to end.
func BurstyPredictorStudy(ctx context.Context, seed uint64) ([]PredictorRow, error) {
	cfg := workload.DefaultBurstyConfig()
	cfg.Seed = seed
	trace, err := workload.Bursty(cfg)
	if err != nil {
		return nil, err
	}
	idle := trace.IdleLengths()
	makeScenario := func() *Scenario {
		return &Scenario{
			Name:        "bursty predictor study",
			Sys:         fuelcell.PaperSystem(),
			Dev:         device.Synthetic(),
			Store:       scenarioStore(),
			Trace:       trace,
			ActivePred:  expAvg(0.5, 3),
			CurrentPred: frozen(1.2),
		}
	}
	preds := []func() predict.Predictor{
		expAvg(0.5, 10),
		func() predict.Predictor { return predict.NewLastValue(10) },
		func() predict.Predictor { return predict.MustMarkov(8, 2, 40, 10) },
		func() predict.Predictor { return predict.MustTree(8, 2, 2, 40, 10) },
		func() predict.Predictor { return predict.NewOracle(idle, 10) },
	}
	return fanOut(ctx, "bursty-predictor", preds, func(ctx context.Context, mk func() predict.Predictor) (PredictorRow, error) {
		sc := makeScenario()
		sc.IdlePred = mk
		conv, err := sc.run(ctx, policy.NewConv(sc.Sys))
		if err != nil {
			return PredictorRow{}, err
		}
		fc, err := sc.run(ctx, policy.NewFCDPM(sc.Sys, sc.Dev))
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
			FCNormalized: fc.NormalizedFuel(conv),
		}, nil
	})
}
