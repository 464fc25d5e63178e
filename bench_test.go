package fcdpm

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 and EXPERIMENTS.md), timing the
// computation behind each artifact, plus BenchmarkSuite, the
// internal/perf regression suite under `go test -bench`. The artifacts
// themselves are rendered once, by `fcdpm figures`; performance
// regressions are gated by `fcdpm bench` (DESIGN.md §9), which runs the
// same suite repeatedly and compares BENCH_*.json artifacts across
// commits.

import (
	"testing"

	"fcdpm/internal/dvs"
	"fcdpm/internal/exp"
	"fcdpm/internal/perf"
)

// BenchmarkFig2StackCurve regenerates the stack I-V-P characteristic
// (Fig 2).
func BenchmarkFig2StackCurve(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts := exp.Fig2Series(60)
		if len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFig3Efficiency regenerates the three efficiency curves (Fig 3).
func BenchmarkFig3Efficiency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig3Series(60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Motivational regenerates the §3.2 / Fig 4 worked example.
func BenchmarkFig4Motivational(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.MotivationalExample(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Exp1 regenerates Table 2 (Experiment 1, camcorder trace).
func BenchmarkTable2Exp1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Experiment1(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Exp2 regenerates Table 3 (Experiment 2, synthetic trace).
func BenchmarkTable3Exp2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Experiment2(2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Profiles regenerates the 300 s current profiles (Fig 7).
func BenchmarkFig7Profiles(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7(1, 300); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationCapacity sweeps the storage capacity.
func BenchmarkAblationCapacity(b *testing.B) {
	b.ReportAllocs()
	caps := []float64{1, 3, 6, 12, 24, 60}
	for i := 0; i < b.N; i++ {
		if _, err := exp.CapacitySweep(1, caps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBeta sweeps the efficiency slope β.
func BenchmarkAblationBeta(b *testing.B) {
	b.ReportAllocs()
	betas := []float64{0, 0.05, 0.13, 0.20, 0.30}
	for i := 0; i < b.N; i++ {
		if _, err := exp.BetaSweep(1, betas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPredictors compares idle-period predictors.
func BenchmarkAblationPredictors(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.PredictorAblation(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationConstantEta reruns Exp 1 under the flat-ηs configuration
// of [10, 11].
func BenchmarkAblationConstantEta(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.ConstantEtaAblation(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStorageModel contrasts the ideal supercap with the KiBaM
// Li-ion model.
func BenchmarkAblationStorageModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.StorageModelAblation(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDPMMode compares device-side sleep policies.
func BenchmarkAblationDPMMode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.DPMModeAblation(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFlatOracle measures FC-DPM's gap to the offline flat
// bound.
func BenchmarkAblationFlatOracle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.FlatOracle(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuite runs each internal/perf regression-suite entry as a
// sub-benchmark, so `go test -bench 'BenchmarkSuite/batch-'` compares
// the batched core at K = 1, 8 and 64 with the same 64 lanes run one
// one-lane runner at a time (batch-sequential-k64). With -short only
// the micro-benchmarks run.
func BenchmarkSuite(b *testing.B) {
	suite, err := perf.Suite(testing.Short())
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range suite {
		b.Run(e.Name, func(b *testing.B) {
			e.Fn(b)
			if e.Slots > 0 {
				b.ReportMetric(float64(e.Slots), "slots/op")
			}
		})
	}
}

// BenchmarkAblationQuantizedLevels sweeps discrete FC output-level counts
// (the multi-level configuration of [11]).
func BenchmarkAblationQuantizedLevels(b *testing.B) {
	b.ReportAllocs()
	counts := []int{2, 3, 4, 8, 16}
	for i := 0; i < b.N; i++ {
		if _, err := exp.QuantizedSweep(1, counts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOfflineDP measures the dynamic-programming offline
// oracle and FC-DPM's gap to it.
func BenchmarkAblationOfflineDP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.OfflineOracleDP(1, 48); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTimeoutDPM compares classic timeout DPM to the paper's
// predictive DPM under the FC-DPM source policy.
func BenchmarkAblationTimeoutDPM(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.TimeoutAblation(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHydrogenReport converts Table 2 into physical hydrogen terms.
func BenchmarkHydrogenReport(b *testing.B) {
	b.ReportAllocs()
	cmp, err := exp.Experiment1(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Hydrogen(cmp, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiSeed reports cross-seed reproduction error bars.
func BenchmarkMultiSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.MultiSeed(1, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSlewRate measures both policies under FC fuel-flow
// slew-rate limits.
func BenchmarkAblationSlewRate(b *testing.B) {
	b.ReportAllocs()
	rates := []float64{0, 0.5, 0.1, 0.02}
	for i := 0; i < b.N; i++ {
		if _, err := exp.SlewAblation(1, rates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDVSStudy runs the prior-work [10] DVS companion study.
func BenchmarkDVSStudy(b *testing.B) {
	b.ReportAllocs()
	proc := dvs.XScale600()
	proc.LeakPower = 1.1
	task := dvs.Task{Cycles: 3e8, Period: 4, Jobs: 50}
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunDVSStudy(proc, task); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBatteryAware quantifies the paper's §1 claim that
// battery-aware shaping does not transfer to fuel cells.
func BenchmarkAblationBatteryAware(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.BatteryAwareAblation(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAggregation measures idle aggregation (task
// procrastination, [6, 7]) under FC-DPM.
func BenchmarkAblationAggregation(b *testing.B) {
	b.ReportAllocs()
	ks := []int{1, 2, 4, 8}
	for i := 0; i < b.N; i++ {
		if _, err := exp.AggregationAblation(1, ks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperiment3HeavyTail runs the beyond-paper heavy-tail workload:
// the three source policies plus the sleep-policy comparison where
// reactive timeout beats history-based prediction.
func BenchmarkExperiment3HeavyTail(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Experiment3(3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationActuation measures the dead-band policy: set-point
// commands vs fuel.
func BenchmarkAblationActuation(b *testing.B) {
	b.ReportAllocs()
	eps := []float64{0, 0.02, 0.05, 0.1, 0.2}
	for i := 0; i < b.N; i++ {
		if _, err := exp.ActuationAblation(1, eps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCalibration propagates ±10 % calibration error in
// (α, β) through Table 2.
func BenchmarkAblationCalibration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.CalibrationUncertainty(1, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperiment4HDD runs the disk-platform generality check.
func BenchmarkExperiment4HDD(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Experiment4(4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationThermalStress integrates the lumped stack-temperature
// model over each policy's output profile.
func BenchmarkAblationThermalStress(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.ThermalStressAblation(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMPC measures the receding-horizon variant — the
// documented negative result that lookahead buys nothing at the paper's
// storage scale.
func BenchmarkAblationMPC(b *testing.B) {
	b.ReportAllocs()
	horizons := []int{1, 3, 5}
	for i := 0; i < b.N; i++ {
		if _, err := exp.MPCAblation(1, horizons); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConformance runs the full paper-vs-measured conformance suite.
func BenchmarkConformance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		checks, err := exp.Conformance(1)
		if err != nil {
			b.Fatal(err)
		}
		if !exp.Passed(checks) {
			b.Fatal("conformance failed")
		}
	}
}

// BenchmarkBurstyPredictors runs the regime-switching predictor study —
// the workload class where predictor choice finally matters end to end.
func BenchmarkBurstyPredictors(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.BurstyPredictorStudy(4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobustness runs the Monte-Carlo model-uncertainty study.
func BenchmarkRobustness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RobustnessStudy(1, 10, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
