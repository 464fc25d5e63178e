package fcdpm

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 and EXPERIMENTS.md), timing the
// computation behind each artifact, plus BenchmarkSuite, the regression
// suite of the simulation core's hot paths. The artifacts themselves are
// rendered once, by `fcdpm figures`; a comparison across commits is the
// perfbench A/B that BENCHMARK.json defines.

import (
	"context"
	"fmt"
	"testing"

	"fcdpm/internal/dvs"
	"fcdpm/internal/exp"
	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/multistack"
	"fcdpm/internal/policy"
	"fcdpm/internal/sim"
	"fcdpm/internal/workload"
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
		if _, err := exp.Experiment1(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Exp2 regenerates Table 3 (Experiment 2, synthetic trace).
func BenchmarkTable3Exp2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Experiment2(context.Background(), 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Profiles regenerates the 300 s current profiles (Fig 7).
func BenchmarkFig7Profiles(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7(context.Background(), 1, 300); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationCapacity sweeps the storage capacity.
func BenchmarkAblationCapacity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.CapacitySweep(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBeta sweeps the efficiency slope β.
func BenchmarkAblationBeta(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.BetaSweep(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPredictors compares idle-period predictors.
func BenchmarkAblationPredictors(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.PredictorAblation(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationConstantEta reruns Exp 1 under the flat-ηs configuration
// of [10, 11].
func BenchmarkAblationConstantEta(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.ConstantEtaAblation(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStorageModel contrasts the ideal supercap with the KiBaM
// Li-ion model.
func BenchmarkAblationStorageModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.StorageModelAblation(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDPMMode compares device-side sleep policies.
func BenchmarkAblationDPMMode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.DPMModeAblation(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFlatOracle measures FC-DPM's gap to the offline flat
// bound.
func BenchmarkAblationFlatOracle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.FlatOracle(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationQuantizedLevels sweeps discrete FC output-level counts
// (the multi-level configuration of [11]).
func BenchmarkAblationQuantizedLevels(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.QuantizedSweep(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOfflineDP measures the dynamic-programming offline
// oracle and FC-DPM's gap to it.
func BenchmarkAblationOfflineDP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.OfflineOracleDP(context.Background(), 1, 48); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTimeoutDPM compares classic timeout DPM to the paper's
// predictive DPM under the FC-DPM source policy.
func BenchmarkAblationTimeoutDPM(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.TimeoutAblation(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHydrogenReport converts Table 2 into physical hydrogen terms.
func BenchmarkHydrogenReport(b *testing.B) {
	b.ReportAllocs()
	cmp, err := exp.Experiment1(context.Background(), 1)
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
		if _, err := exp.MultiSeed(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSlewRate measures both policies under FC fuel-flow
// slew-rate limits.
func BenchmarkAblationSlewRate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.SlewAblation(context.Background(), 1); err != nil {
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
		if _, err := exp.RunDVSStudy(context.Background(), proc, task); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBatteryAware quantifies the paper's §1 claim that
// battery-aware shaping does not transfer to fuel cells.
func BenchmarkAblationBatteryAware(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.BatteryAwareAblation(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAggregation measures idle aggregation (task
// procrastination, [6, 7]) under FC-DPM.
func BenchmarkAblationAggregation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.AggregationAblation(context.Background(), 1); err != nil {
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
		if _, err := exp.Experiment3(context.Background(), 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationActuation measures the dead-band policy: set-point
// commands vs fuel.
func BenchmarkAblationActuation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.ActuationAblation(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCalibration propagates ±10 % calibration error in
// (α, β) through Table 2.
func BenchmarkAblationCalibration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.CalibrationUncertainty(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperiment4HDD runs the disk-platform generality check.
func BenchmarkExperiment4HDD(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Experiment4(context.Background(), 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationThermalStress integrates the lumped stack-temperature
// model over each policy's output profile.
func BenchmarkAblationThermalStress(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.ThermalStressAblation(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMPC measures the receding-horizon variant — the
// documented negative result that lookahead buys nothing at the paper's
// storage scale.
func BenchmarkAblationMPC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.MPCAblation(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConformance runs the full paper-vs-measured conformance suite.
func BenchmarkConformance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		checks, err := exp.Conformance(context.Background(), 1)
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
		if _, err := exp.BurstyPredictorStudy(context.Background(), 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobustness runs the Monte-Carlo model-uncertainty study.
func BenchmarkRobustness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RobustnessStudy(context.Background(), 1, 10, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Regression suite ---

// BenchmarkSuite is the regression suite: one sub-benchmark per entry,
// each on a fixed fixture, so an entry's name selects the same work on
// every commit. `go test -bench 'BenchmarkSuite/batch-'` compares the
// batched core at K = 1, 8 and 64 with the same 64 lanes run one
// one-lane runner at a time (batch-sequential-k64). With -short only
// the micro-benchmarks run; -count repeats each entry and -benchmem adds
// its allocations. An entry that walks a trace times a runner already
// run once, so it measures the steady state, and reports the lane slots
// one op simulates as slots/op.
func BenchmarkSuite(b *testing.B) {
	sys := PaperSystem()
	// One §3 per-slot optimization: FC-DPM's online cost.
	b.Run("optimize-slot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fcopt.Optimize(sys, 6, optSlot()); err != nil {
				b.Fatal(err)
			}
		}
	})
	// One Eq 4 fuel-map evaluation.
	b.Run("stack-current", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += sys.StackCurrent(0.1 + float64(i%11)*0.1)
		}
		_ = sink
	})
	// One memoized fuel-map evaluation: the simulator's path.
	b.Run("memo-fuel", func(b *testing.B) {
		memo := fuelcell.NewMemo(sys)
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += memo.Fuel(0.1+float64(i%11)*0.1, 1)
		}
		_ = sink
	})
	if testing.Short() {
		return
	}

	// The headline: FC-DPM over the camcorder trace on a reused runner at
	// the fuel-only record level.
	cfg := throughputConfig(b)
	dev, trace := cfg.Dev, cfg.Trace
	r := newOneLane(b, cfg)
	runBatch(b, r)
	benchRunners(b, "sim-throughput", trace.Len(), r)

	// Slots counts lane slots; the batch executes one group per variant,
	// so k64 simulates 8 groups for its 64 lanes
	// (TestRegressionBatchGroups).
	for _, k := range []int{1, 8, 64} {
		policies, keys := variantPolicies(b, sys, dev, k)
		benchRunners(b, fmt.Sprintf("batch-slot-throughput-k%d", k), trace.Len()*k,
			warmRunner(b, sys, dev, trace, policies, keys))
	}
	// The before picture for batch-slot-throughput-k64: the same 64
	// lanes, each on its own one-lane runner, run one after another.
	policies, _ := variantPolicies(b, sys, dev, 64)
	sequential := make([]*sim.BatchRunner, len(policies))
	for i, p := range policies {
		sequential[i] = warmRunner(b, sys, dev, trace, []Policy{p}, nil)
	}
	benchRunners(b, "batch-sequential-k64", trace.Len()*len(policies), sequential...)

	// Per-policy planning cost: one lane per policy over the same trace,
	// so ns per slot against sim-throughput, the same walk under FC-DPM,
	// shows what each policy's planning adds. The MPC horizon of 3 slots
	// is the middle of the ones the receding-horizon ablation compares.
	mpc, err := policy.NewMPC(sys, dev, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, pl := range []struct {
		name string
		p    Policy
	}{
		{"plan-quantized-n3", quantized(b, sys, dev, 3)},
		{"plan-quantized-n12", quantized(b, sys, dev, 12)},
		{"plan-mpc", mpc},
	} {
		benchRunners(b, pl.name, trace.Len(), warmRunner(b, sys, dev, trace, []Policy{pl.p}, nil))
	}

	// Multi-stack aggregate source: a K=4 degraded-mix water-filling rack
	// on the racksurge workload. The rack pre-solves its allocation into
	// a table, so per-slot cost must match a single-stack run, and the
	// aggregate seam must stay allocation-free.
	rsTrace, err := workload.RackSurge(workload.DefaultRackSurgeConfig())
	if err != nil {
		b.Fatal(err)
	}
	rack, err := multistack.Uniform(sys, 4, multistack.WaterFill{}, []float64{0, 0.3})
	if err != nil {
		b.Fatal(err)
	}
	rsys := rack.System()
	mr := newOneLane(b, SimConfig{
		Sys: rsys, Dev: SyntheticDevice(), Store: MustSuperCap(24, 4),
		Trace: rsTrace, Policy: NewASAP(rsys),
	})
	runBatch(b, mr)
	benchRunners(b, "multistack-slot-throughput-k4", rsTrace.Len(), mr)
	// The rack pre-solve itself: one water-filling Uniform rack per op,
	// with the same degraded mix — the stage that dominates a rack
	// request's Build.
	for _, k := range []int{4, 8} {
		b.Run(fmt.Sprintf("multistack-presolve-waterfill-k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := multistack.Uniform(sys, k, multistack.WaterFill{}, []float64{0, 0.3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchRunners runs the named sub-benchmark whose op is one run of each
// runner in turn, walking slots lane slots in all.
func benchRunners(b *testing.B, name string, slots int, runners ...*sim.BatchRunner) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range runners {
				runBatch(b, r)
			}
		}
		b.ReportMetric(float64(slots), "slots/op")
	})
}

// runBatch runs br once: the walk and every lane must succeed.
func runBatch(tb testing.TB, br *sim.BatchRunner) {
	out, err := br.Run()
	if err != nil {
		tb.Fatal(err)
	}
	for _, lr := range out {
		if lr.Err != nil {
			tb.Fatal(lr.Err)
		}
	}
}

// quantized is FC-DPM quantized to n uniform output levels.
func quantized(tb testing.TB, sys *System, dev *Device, n int) Policy {
	p, err := policy.NewFCDPMQuantized(sys, dev, fcopt.UniformLevels(sys, n))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// batchVariants is the number of distinct dynamics in a regression batch.
const batchVariants = 8

// variantPolicies builds the policies of the k-lane regression batch:
// the batchVariants distinct dynamics (Conv, ASAP, FC-DPM, quantized
// FC-DPM at five level counts) replicated round-robin, one instance per
// lane, and each lane's key, which names its variant.
func variantPolicies(tb testing.TB, sys *System, dev *Device, k int) ([]Policy, []string) {
	variants := [batchVariants]func() Policy{
		func() Policy { return NewConv(sys) },
		func() Policy { return NewASAP(sys) },
		func() Policy { return NewFCDPM(sys, dev) },
		func() Policy { return quantized(tb, sys, dev, 3) },
		func() Policy { return quantized(tb, sys, dev, 4) },
		func() Policy { return quantized(tb, sys, dev, 6) },
		func() Policy { return quantized(tb, sys, dev, 8) },
		func() Policy { return quantized(tb, sys, dev, 12) },
	}
	policies := make([]Policy, k)
	keys := make([]string, k)
	for i := range policies {
		policies[i] = variants[i%batchVariants]()
		keys[i] = fmt.Sprintf("variant-%d", i%batchVariants)
	}
	return policies, keys
}

// warmRunner builds one fuel-only lane per policy over trace and runs it
// once, so later runs measure the steady state. Lane i carries keys[i]
// when keys is non-nil, so lanes with equal keys run as one group.
func warmRunner(tb testing.TB, sys *System, dev *Device, trace *Trace, policies []Policy, keys []string) *sim.BatchRunner {
	lanes := make([]sim.Lane, len(policies))
	for i, p := range policies {
		lanes[i] = sim.Lane{Cfg: SimConfig{
			Sys: sys, Dev: dev, Store: MustSuperCap(6, 1),
			Trace: trace, Policy: p, Record: sim.RecordFuelOnly,
		}}
		if keys != nil {
			lanes[i].Key = keys[i]
		}
	}
	br, err := sim.NewBatchRunner(lanes)
	if err != nil {
		tb.Fatal(err)
	}
	runBatch(tb, br)
	return br
}
