package exp

import (
	"context"
	"fmt"
	"math"
	"testing"

	"fcdpm/internal/policy"
	"fcdpm/internal/sim"
	"fcdpm/internal/storage"
)

func TestQuantizedSweep(t *testing.T) {
	rows, err := QuantizedSweep(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 || rows[0].Levels != 0 || rows[1].Levels != 2 || rows[5].Levels != 16 {
		t.Fatalf("rows = %+v", rows)
	}
	// The gap to the continuous policy shrinks with level count.
	if rows[1].GapVsCont < rows[5].GapVsCont-1e-9 {
		t.Errorf("2-level gap %v should be >= 16-level gap %v",
			rows[1].GapVsCont, rows[5].GapVsCont)
	}
	// 16 levels should be within 3 % of continuous.
	if rows[5].GapVsCont > 0.03 {
		t.Errorf("16-level gap = %v", rows[5].GapVsCont)
	}
	// Even 2 levels beats Conv clearly.
	if rows[1].FCNormalized > 0.6 {
		t.Errorf("2-level normalized = %v", rows[1].FCNormalized)
	}
}

func TestOfflineOracleDP(t *testing.T) {
	offline, online, err := OfflineOracleDP(context.Background(), 1, 48)
	if err != nil {
		t.Fatal(err)
	}
	// The DP bound should not be meaningfully above the online policy
	// (grid error allows a small excess), and the online policy should
	// be within ~10 % of it — the gap quantifies prediction cost.
	if offline.AvgFuelRate() > online.AvgFuelRate()*1.03 {
		t.Errorf("offline rate %v above online %v", offline.AvgFuelRate(), online.AvgFuelRate())
	}
	if online.AvgFuelRate() > offline.AvgFuelRate()*1.10 {
		t.Errorf("online rate %v too far above offline bound %v",
			online.AvgFuelRate(), offline.AvgFuelRate())
	}
	if offline.Deficit > 0.5 {
		t.Errorf("offline deficit = %v", offline.Deficit)
	}
}

func TestTimeoutAblation(t *testing.T) {
	pred, timeout, err := TimeoutAblation(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The camcorder idles (8-20 s) all exceed the 1 s timeout, so the
	// timeout policy sleeps on every slot too — but it pays the standby
	// dwell first, so it burns at least as much fuel.
	if timeout.Sleeps != pred.Sleeps {
		t.Errorf("sleeps: timeout %d vs predictive %d", timeout.Sleeps, pred.Sleeps)
	}
	if timeout.AvgFuelRate() < pred.AvgFuelRate()-1e-9 {
		t.Errorf("timeout rate %v below predictive %v", timeout.AvgFuelRate(), pred.AvgFuelRate())
	}
	if timeout.FuelByKind == nil {
		t.Fatal("fuel breakdown missing")
	}
}

func TestHydrogenReport(t *testing.T) {
	cmp, err := Experiment1(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := Hydrogen(cmp, 10) // a 10 g H2 cartridge
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	byName := map[string]HydrogenReport{}
	for _, r := range reports {
		byName[r.Policy] = r
		if r.Grams <= 0 || r.LitresSTP <= 0 || r.LifetimeHours <= 0 {
			t.Errorf("%s: degenerate report %+v", r.Policy, r)
		}
		if r.EndToEndEff < 0.05 || r.EndToEndEff > 0.9 {
			t.Errorf("%s: implausible end-to-end efficiency %v", r.Policy, r.EndToEndEff)
		}
	}
	// FC-DPM lives longest on the cartridge.
	if !(byName["FC-DPM"].LifetimeHours > byName["ASAP-DPM"].LifetimeHours &&
		byName["ASAP-DPM"].LifetimeHours > byName["Conv-DPM"].LifetimeHours) {
		t.Errorf("lifetime ordering broken: %+v", byName)
	}
	if _, err := Hydrogen(cmp, 0); err == nil {
		t.Error("zero cartridge accepted")
	}
}

func TestMultiSeed(t *testing.T) {
	sum, err := MultiSeed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Seeds != 5 || sum.FCNorm.N != 5 {
		t.Fatalf("summary = %+v", sum)
	}
	// Mean ordering matches the single-seed observations.
	if !(sum.FCNorm.Mean < sum.ASAPNorm.Mean) {
		t.Errorf("FC mean %v not below ASAP mean %v", sum.FCNorm.Mean, sum.ASAPNorm.Mean)
	}
	if sum.SavingVsASAP.Min <= 0 {
		t.Errorf("saving dipped non-positive: %v", sum.SavingVsASAP.Min)
	}
	// Seed-to-seed variation should be modest (< 10 % stddev of mean).
	if sum.FCNorm.Mean > 0 && sum.FCNorm.Stddev/sum.FCNorm.Mean > 0.3 {
		t.Errorf("excessive spread: %v / %v", sum.FCNorm.Stddev, sum.FCNorm.Mean)
	}
	if math.IsNaN(sum.SavingVsASAP.Mean) {
		t.Error("NaN summary")
	}
}

func TestSlewAblation(t *testing.T) {
	rows, err := SlewAblation(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	ideal, moderate, slow := rows[0], rows[1], rows[4]
	if ideal.RateAps != 0 || moderate.RateAps != 0.5 || slow.RateAps != 0.02 {
		t.Fatalf("rates = %v, %v, %v; want 0, 0.5, 0.02", ideal.RateAps, moderate.RateAps, slow.RateAps)
	}
	// Ideal source: no deficits for either policy.
	if ideal.ASAPDeficit > 0.5 || ideal.FCDeficit > 0.5 {
		t.Errorf("ideal-source deficits: %+v", ideal)
	}
	// A slow FC (0.02 A/s — a 1 A swing takes 50 s) breaks load following:
	// the storage cannot cover the tracking error and the load browns out.
	// FC-DPM's flat per-slot output is unaffected.
	if slow.ASAPDeficit < 5 {
		t.Errorf("slow FC should strand ASAP's load: deficit %v", slow.ASAPDeficit)
	}
	if slow.FCDeficit > 0.5 {
		t.Errorf("FC-DPM deficit under slow FC = %v, want ~0", slow.FCDeficit)
	}
	// FC-DPM's fuel rate barely changes under any slew limit.
	for _, r := range []SlewRow{moderate, slow} {
		if rel := math.Abs(r.FCRate-ideal.FCRate) / ideal.FCRate; rel > 0.005 {
			t.Errorf("FC-DPM fuel moved %v at %v A/s", rel, r.RateAps)
		}
	}
}

func TestBatteryAwareAblation(t *testing.T) {
	ba, fc, err := BatteryAwareAblation(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's §1 claim, quantified: the battery-centric strategy
	// burns substantially more fuel than FC-DPM on the FC hybrid.
	if ba.AvgFuelRate() < fc.AvgFuelRate()*1.2 {
		t.Errorf("battery-aware rate %v should clearly exceed FC-DPM %v",
			ba.AvgFuelRate(), fc.AvgFuelRate())
	}
	// It still keeps the load served (that is not where it fails).
	if ba.Deficit > 0.5 {
		t.Errorf("battery-aware deficit = %v", ba.Deficit)
	}
}

func TestAggregationAblation(t *testing.T) {
	rows, err := AggregationAblation(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Aggregation reduces sleep transitions roughly by the factor k.
	if rows[1].Sleeps >= rows[0].Sleeps || rows[2].Sleeps >= rows[1].Sleeps {
		t.Errorf("sleeps not decreasing: %d, %d, %d",
			rows[0].Sleeps, rows[1].Sleeps, rows[2].Sleeps)
	}
	// Fewer transitions means at most marginally more fuel — aggregation
	// must not hurt by more than a percent, and usually helps.
	if rows[2].FCRate > rows[0].FCRate*1.01 {
		t.Errorf("aggregation increased fuel: %v -> %v", rows[0].FCRate, rows[2].FCRate)
	}
	// Deferral grows with k.
	if !(rows[0].MaxDeferral == 0 && rows[1].MaxDeferral < rows[2].MaxDeferral) {
		t.Errorf("deferral not growing: %+v", rows)
	}
}

func TestActuationAblation(t *testing.T) {
	rows, err := ActuationAblation(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[0].Epsilon != 0 || rows[4].Epsilon != 0.2 {
		t.Fatalf("rows = %+v", rows)
	}
	// Wider bands command the actuator less often.
	for i := 1; i < len(rows); i++ {
		if rows[i].Setpoints >= rows[i-1].Setpoints {
			t.Errorf("set points not decreasing: %d at ε=%v, %d at ε=%v",
				rows[i-1].Setpoints, rows[i-1].Epsilon, rows[i].Setpoints, rows[i].Epsilon)
		}
	}
	// And cost at most a few percent of fuel even at 0.2 A.
	if rows[4].FCRate > rows[0].FCRate*1.06 {
		t.Errorf("0.2 A band fuel %v too far above plain %v", rows[4].FCRate, rows[0].FCRate)
	}
}

func TestCalibrationUncertainty(t *testing.T) {
	rows, err := CalibrationUncertainty(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The qualitative conclusion survives every corner of a ±10 %
	// calibration box: FC-DPM still beats ASAP.
	for _, r := range rows {
		if r.SavingVsASAP <= 0 {
			t.Errorf("α=%v β=%v: saving %v non-positive", r.Alpha, r.Beta, r.SavingVsASAP)
		}
		if r.FCNormalized <= 0 || r.FCNormalized >= 1 {
			t.Errorf("α=%v β=%v: normalized %v out of (0,1)", r.Alpha, r.Beta, r.FCNormalized)
		}
	}
	// The saving is driven by β: the high-β corners save more than the
	// low-β corners.
	var loBeta, hiBeta float64
	for _, r := range rows[1:] {
		if r.Beta < 0.13 {
			loBeta = math.Max(loBeta, r.SavingVsASAP)
		} else {
			hiBeta = math.Max(hiBeta, r.SavingVsASAP)
		}
	}
	if hiBeta <= loBeta {
		t.Errorf("high-β saving %v should exceed low-β %v", hiBeta, loBeta)
	}
}

func TestThermalStressAblation(t *testing.T) {
	rows, err := ThermalStressAblation(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]ThermalRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	conv := byName["Conv-DPM"].Stress
	asap := byName["ASAP-DPM"].Stress
	fc := byName["FC-DPM"].Stress
	// Conv holds a constant output: minimal swing after warm-up.
	if conv.Swing > 5 {
		t.Errorf("Conv swing = %v °C, want ~0 (constant output)", conv.Swing)
	}
	// FC-DPM's near-flat profile cycles the stack far less than ASAP's
	// load following.
	if fc.Swing >= asap.Swing {
		t.Errorf("FC-DPM swing %v should be below ASAP %v", fc.Swing, asap.Swing)
	}
	if fc.CycleCount > asap.CycleCount {
		t.Errorf("FC-DPM cycles %d should not exceed ASAP %d", fc.CycleCount, asap.CycleCount)
	}
	// All trajectories stay in a physical band.
	for _, r := range rows {
		if r.Stress.Min < 20 || r.Stress.Max > 100 {
			t.Errorf("%s: implausible temperatures [%v, %v]", r.Policy, r.Stress.Min, r.Stress.Max)
		}
	}
}

// TestMPCAblation checks each horizon of the receding-horizon ablation
// on Experiment 1: lookahead moves fuel by under 1 % from plain FC-DPM,
// leaves no deficit to speak of, and burns no more fuel than horizon 1.
// The last check pins the offline DP's storage grid: while it floored a
// stay-at-level end a rounding error below its level, horizons 2, 3 and
// 5 paid fuel to climb back that horizon 1 did not.
func TestMPCAblation(t *testing.T) {
	rows, err := MPCAblation(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || rows[0].Horizon != 1 {
		t.Fatalf("rows = %+v, want horizon 1 first", rows)
	}
	// Get the plain FC-DPM reference.
	sc, err := Experiment1Scenario(1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sc.Compare(context.Background(), sc.Policies())
	if err != nil {
		t.Fatal(err)
	}
	ref := plain.Row("FC-DPM").AvgRate
	for _, r := range rows {
		t.Run(fmt.Sprintf("horizon=%d", r.Horizon), func(t *testing.T) {
			// The negative result: lookahead changes fuel by under 1 %
			// either way on the paper's workload.
			if rel := math.Abs(r.FCRate-ref) / ref; rel > 0.01 {
				t.Errorf("moved fuel by %v", rel)
			}
			if r.Deficit > 0.5 {
				t.Errorf("deficit = %v", r.Deficit)
			}
			if r.FCRate > rows[0].FCRate+1e-9 {
				t.Errorf("avg FC current %.6f A above horizon 1's %.6f A", r.FCRate, rows[0].FCRate)
			}
		})
	}
}

func TestEnergyDensityComparison(t *testing.T) {
	// 100 g package at the camcorder's average FC operating point.
	e, err := EnergyDensityComparison(100, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's intro claims 4-10x; the model should land inside it.
	if e.Ratio < 4 || e.Ratio > 10 {
		t.Errorf("FC/battery ratio = %v, paper claims 4-10x", e.Ratio)
	}
	if e.FCHours <= e.BatteryHours {
		t.Errorf("FC hours %v should exceed battery hours %v", e.FCHours, e.BatteryHours)
	}
	// Higher current → worse efficiency → lower ratio.
	hi, err := EnergyDensityComparison(100, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if hi.Ratio >= e.Ratio {
		t.Errorf("ratio should fall with current: %v vs %v", hi.Ratio, e.Ratio)
	}
	if _, err := EnergyDensityComparison(0, 0.5); err == nil {
		t.Error("zero mass accepted")
	}
	if _, err := EnergyDensityComparison(100, 5); err == nil {
		t.Error("out-of-range current accepted")
	}
}

func TestAdviseCamcorder(t *testing.T) {
	sc, err := Experiment1Scenario(1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Advise(sc.Sys, sc.Dev, sc.Trace)
	if err != nil {
		t.Fatal(err)
	}
	// Camcorder peak is 1.22 A (above range top — that's the hybrid
	// argument) and the DPM average sits far below it.
	if math.Abs(a.PeakLoad-14.65/12) > 1e-9 {
		t.Errorf("peak = %v", a.PeakLoad)
	}
	if a.AvgLoad >= a.PeakLoad/2 {
		t.Errorf("average %v should be well below peak %v", a.AvgLoad, a.PeakLoad)
	}
	if !a.RangeOK {
		t.Error("paper FC range should cover the camcorder average")
	}
	// The recommendation lands in the ballpark of the paper's 6 A-s cap:
	// below it (the cap has slack) but well above 1 A-s.
	if a.RecommendedCmax < 1 || a.RecommendedCmax > 12 {
		t.Errorf("recommended Cmax = %v A-s, implausible vs the paper's 6", a.RecommendedCmax)
	}
	if a.StorageNeeded <= 0 || a.StorageNeeded > 8 {
		t.Errorf("storage needed = %v", a.StorageNeeded)
	}
	if a.RecommendedReserve <= 0 || a.RecommendedReserve >= a.RecommendedCmax {
		t.Errorf("reserve = %v of %v", a.RecommendedReserve, a.RecommendedCmax)
	}
	// Verify the recommendation actually works: run FC-DPM with it.
	sc2, err := Experiment1Scenario(1)
	if err != nil {
		t.Fatal(err)
	}
	sc2.Store = storage.MustSuperCap(a.RecommendedCmax, a.RecommendedReserve)
	cmp, err := sc2.Compare(context.Background(), sc2.Policies())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Results["FC-DPM"].Deficit > 0.5 {
		t.Errorf("recommended sizing browns out: %v", cmp.Results["FC-DPM"].Deficit)
	}
	if cmp.SavingVsASAP <= 0.1 {
		t.Errorf("recommended sizing loses the FC-DPM edge: %v", cmp.SavingVsASAP)
	}
}

func TestAdviseErrors(t *testing.T) {
	sc, err := Experiment1Scenario(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Advise(sc.Sys, sc.Dev, nil); err == nil {
		t.Error("nil trace accepted")
	}
	bad := *sc.Dev
	bad.V = 0
	if _, err := Advise(sc.Sys, &bad, sc.Trace); err == nil {
		t.Error("invalid device accepted")
	}
}

func TestRobustnessStudy(t *testing.T) {
	r, err := RobustnessStudy(context.Background(), 1, 12, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trials != 12 || r.Saving.N != 12 {
		t.Fatalf("study = %+v", r)
	}
	// FC-DPM wins every perturbed trial.
	if r.Wins != 12 {
		t.Errorf("FC-DPM won only %d/12 perturbed trials (min saving %v)", r.Wins, r.Saving.Min)
	}
	if r.Saving.Mean < 0.08 || r.Saving.Mean > 0.30 {
		t.Errorf("mean saving = %v, implausible", r.Saving.Mean)
	}
	if _, err := RobustnessStudy(context.Background(), 1, 0, 0.1); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := RobustnessStudy(context.Background(), 1, 2, 0.9); err == nil {
		t.Error("excess perturbation accepted")
	}
}

func TestBurstyPredictorStudy(t *testing.T) {
	rows, err := BurstyPredictorStudy(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]PredictorRow{}
	for _, r := range rows {
		byName[r.Predictor] = r
	}
	oracle := byName["oracle"]
	expavg := byName["exp-average(ρ=0.50)"]
	// Unlike the camcorder trace (where every predictor landed within
	// 0.1 % of each other), the regime-switching workload separates them:
	// perfect regime knowledge is worth more than a full point of
	// normalized fuel over the paper's exponential average.
	if expavg.FCNormalized-oracle.FCNormalized < 0.005 {
		t.Errorf("bursty workload should separate predictors: oracle %v vs exp-average %v",
			oracle.FCNormalized, expavg.FCNormalized)
	}
	// The oracle lower-bounds every realizable predictor, and none falls
	// apart (within 5 points of the oracle).
	for _, r := range rows {
		if r.FCNormalized < oracle.FCNormalized-1e-9 {
			t.Errorf("%s beats the oracle: %v < %v", r.Predictor, r.FCNormalized, oracle.FCNormalized)
		}
		if r.FCNormalized > oracle.FCNormalized+0.05 {
			t.Errorf("%s collapses on bursty input: %v", r.Predictor, r.FCNormalized)
		}
	}
	if oracle.Accuracy.MAE != 0 {
		t.Errorf("oracle MAE = %v", oracle.Accuracy.MAE)
	}
}

// TestAdviseAverageMatchesOracleSimulation: the advisor's DPM-average
// load is the load a simulation under oracle DPM (sleep exactly when the
// real idle period reaches the break-even time) draws, on the camcorder
// and on the synthetic device.
func TestAdviseAverageMatchesOracleSimulation(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(uint64) (*Scenario, error)
		seed  uint64
	}{
		{"camcorder", Experiment1Scenario, 1},
		{"synthetic", Experiment2Scenario, 2},
	} {
		sc, err := c.build(c.seed)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Advise(sc.Sys, sc.Dev, sc.Trace)
		if err != nil {
			t.Fatal(err)
		}
		sc.DPM = sim.DPMOracle
		res, err := sc.run(context.Background(), policy.NewConv(sc.Sys))
		if err != nil {
			t.Fatal(err)
		}
		simAvg := res.LoadEnergy / (sc.Sys.VF * res.Duration)
		if rel := a.AvgLoad/simAvg - 1; math.Abs(rel) > 1e-9 {
			t.Errorf("%s: advised average %.6f A vs oracle simulation %.6f A (%+.3g%%)",
				c.name, a.AvgLoad, simAvg, 100*rel)
		}
	}
}
