package fcdpm

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 and EXPERIMENTS.md). Each benchmark both
// measures the cost of regenerating the artifact and — once per run —
// prints the same rows/series the paper reports, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction harness. cmd/fcdpm-bench writes the same
// artifacts to CSV files; performance regressions are gated separately by
// `fcdpm bench` (internal/perf, DESIGN.md §9), which runs a small stable
// suite repeatedly and compares BENCH_*.json artifacts across commits.

import (
	"fmt"
	"sync"
	"testing"

	"fcdpm/internal/dvs"
	"fcdpm/internal/exp"
	"fcdpm/internal/report"
)

// printOnce gates the human-readable artifact dump to one emission per
// process, so -benchtime iterations do not spam the output.
var printOnce sync.Map

func once(name string, f func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		f()
	}
}

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
	once("fig2", func() {
		pts := exp.Fig2Series(16)
		tab := report.NewTable("\nFig 2 — BCS 20W stack I-V-P characteristic", "Ifc (A)", "Vfc (V)", "P (W)")
		for _, p := range pts {
			tab.AddRow(fmt.Sprintf("%.2f", p.Ifc), fmt.Sprintf("%.2f", p.Vfc), fmt.Sprintf("%.2f", p.Power))
		}
		fmt.Println(tab)
	})
}

// BenchmarkFig3Efficiency regenerates the three efficiency curves (Fig 3).
func BenchmarkFig3Efficiency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig3Series(60); err != nil {
			b.Fatal(err)
		}
	}
	once("fig3", func() {
		pts, err := exp.Fig3Series(14)
		if err != nil {
			fmt.Println("fig3:", err)
			return
		}
		tab := report.NewTable("\nFig 3 — efficiency vs FC system output current",
			"IF (A)", "(a) stack", "(b) system prop-fan", "Eq 2 linear", "(c) system on/off-fan")
		for _, p := range pts {
			tab.AddRow(fmt.Sprintf("%.2f", p.IF), report.Percent(p.StackEff),
				report.Percent(p.SystemProportional), report.Percent(p.LinearModel),
				report.Percent(p.SystemOnOff))
		}
		fmt.Println(tab)
	})
}

// BenchmarkFig4Motivational regenerates the §3.2 / Fig 4 worked example.
func BenchmarkFig4Motivational(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.MotivationalExample(); err != nil {
			b.Fatal(err)
		}
	}
	once("fig4", func() {
		m, err := exp.MotivationalExample()
		if err != nil {
			fmt.Println("fig4:", err)
			return
		}
		tab := report.NewTable("\n§3.2 / Fig 4 — motivational example (Ti=20s@0.2A, Ta=10s@1.2A)",
			"Setting", "Fuel (A-s)", "Paper")
		tab.AddRow("(a) Conv-DPM", fmt.Sprintf("%.2f", m.ConvFuel), "36 (w/ Ifc≈IF)")
		tab.AddRow("(b) ASAP-DPM", fmt.Sprintf("%.2f", m.ASAPFuel), "16")
		tab.AddRow("(c) FC-DPM", fmt.Sprintf("%.2f", m.FCDPMFuel), "13.45")
		fmt.Println(tab)
		fmt.Printf("optimal IF = %.3f A (paper 0.53), Ifc = %.3f A (paper 0.448), "+
			"saving vs ASAP = %s (paper 15.9%%), delivered energy = %.0f J (paper 192)\n",
			m.OptimalIF, m.OptimalIfc, report.Percent(m.SavingVsASAP), m.DeliveredEnergy)
	})
}

// comparisonTable renders a Table 2/3-style comparison.
func comparisonTable(title string, cmp *exp.Comparison, paperNorm map[string]string) string {
	tab := report.NewTable(title, "DPM policy", "Fuel (A-s)", "Avg Ifc (A)", "Normalized", "Paper")
	for _, r := range cmp.Rows {
		tab.AddRow(r.Name, fmt.Sprintf("%.1f", r.Fuel), fmt.Sprintf("%.4f", r.AvgRate),
			report.Percent(r.Normalized), paperNorm[r.Name])
	}
	return tab.String()
}

// BenchmarkTable2Exp1 regenerates Table 2 (Experiment 1, camcorder trace).
func BenchmarkTable2Exp1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Experiment1(1); err != nil {
			b.Fatal(err)
		}
	}
	once("table2", func() {
		cmp, err := exp.Experiment1(1)
		if err != nil {
			fmt.Println("table2:", err)
			return
		}
		fmt.Println()
		fmt.Print(comparisonTable("Table 2 — normalized fuel consumption, Experiment 1", cmp,
			map[string]string{"Conv-DPM": "100%", "ASAP-DPM": "40.8%", "FC-DPM": "30.8%"}))
		fmt.Printf("FC-DPM saving vs ASAP-DPM = %s (paper 24.4%%), lifetime extension = %.2fx (paper 1.32x)\n",
			report.Percent(cmp.SavingVsASAP), cmp.LifetimeRatio)
	})
}

// BenchmarkTable3Exp2 regenerates Table 3 (Experiment 2, synthetic trace).
func BenchmarkTable3Exp2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Experiment2(2); err != nil {
			b.Fatal(err)
		}
	}
	once("table3", func() {
		cmp, err := exp.Experiment2(2)
		if err != nil {
			fmt.Println("table3:", err)
			return
		}
		fmt.Println()
		fmt.Print(comparisonTable("Table 3 — normalized fuel consumption, Experiment 2", cmp,
			map[string]string{"Conv-DPM": "100%", "ASAP-DPM": "49.1%", "FC-DPM": "41.5%"}))
		fmt.Printf("FC-DPM saving vs ASAP-DPM = %s (paper 15.5%%)\n", report.Percent(cmp.SavingVsASAP))
	})
}

// BenchmarkFig7Profiles regenerates the 300 s current profiles (Fig 7).
func BenchmarkFig7Profiles(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7(1, 300); err != nil {
			b.Fatal(err)
		}
	}
	once("fig7", func() {
		fig, err := exp.Fig7(1, 300)
		if err != nil {
			fmt.Println("fig7:", err)
			return
		}
		fmt.Printf("\nFig 7 — 300 s current profiles (camcorder trace): "+
			"%d load/ASAP steps, %d FC-DPM steps; first steps:\n", len(fig.ASAP), len(fig.FCDPM))
		n := 8
		if len(fig.ASAP) < n {
			n = len(fig.ASAP)
		}
		tab := report.NewTable("", "t (s)", "load (A)", "ASAP IF (A)")
		for _, p := range fig.ASAP[:n] {
			tab.AddRow(fmt.Sprintf("%.2f", p.T), fmt.Sprintf("%.3f", p.Load), fmt.Sprintf("%.3f", p.IF))
		}
		fmt.Println(tab)
		tab2 := report.NewTable("", "t (s)", "load (A)", "FC-DPM IF (A)")
		m := 8
		if len(fig.FCDPM) < m {
			m = len(fig.FCDPM)
		}
		for _, p := range fig.FCDPM[:m] {
			tab2.AddRow(fmt.Sprintf("%.2f", p.T), fmt.Sprintf("%.3f", p.Load), fmt.Sprintf("%.3f", p.IF))
		}
		fmt.Println(tab2)
	})
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
	once("capacity", func() {
		pts, err := exp.CapacitySweep(1, caps)
		if err != nil {
			fmt.Println("capacity sweep:", err)
			return
		}
		tab := report.NewTable("\nAblation — storage capacity vs FC-DPM advantage",
			"Cmax (A-s)", "FC-DPM vs Conv", "Saving vs ASAP")
		for _, p := range pts {
			tab.AddRow(p.X, report.Percent(p.FCNormalized), report.Percent(p.SavingVsASAP))
		}
		fmt.Println(tab)
	})
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
	once("beta", func() {
		pts, err := exp.BetaSweep(1, betas)
		if err != nil {
			fmt.Println("beta sweep:", err)
			return
		}
		tab := report.NewTable("\nAblation — efficiency slope β vs FC-DPM advantage",
			"β", "FC-DPM vs Conv", "Saving vs ASAP")
		for _, p := range pts {
			tab.AddRow(p.X, report.Percent(p.FCNormalized), report.Percent(p.SavingVsASAP))
		}
		fmt.Println(tab)
	})
}

// BenchmarkAblationPredictors compares idle-period predictors.
func BenchmarkAblationPredictors(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.PredictorAblation(1); err != nil {
			b.Fatal(err)
		}
	}
	once("predictors", func() {
		rows, err := exp.PredictorAblation(1)
		if err != nil {
			fmt.Println("predictor ablation:", err)
			return
		}
		tab := report.NewTable("\nAblation — idle-period predictor choice",
			"Predictor", "MAE (s)", "RMSE (s)", "Over-rate", "FC-DPM vs Conv")
		for _, r := range rows {
			tab.AddRow(r.Predictor, fmt.Sprintf("%.2f", r.Accuracy.MAE),
				fmt.Sprintf("%.2f", r.Accuracy.RMSE), report.Percent(r.Accuracy.OverRate),
				report.Percent(r.FCNormalized))
		}
		fmt.Println(tab)
	})
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
	once("consteta", func() {
		linear, constant, err := exp.ConstantEtaAblation(1)
		if err != nil {
			fmt.Println("constant-eta ablation:", err)
			return
		}
		fmt.Printf("\nAblation — efficiency model: linear-η saving vs ASAP = %s, constant-η = %s "+
			"(flattening buys nothing when the fuel map is linear)\n",
			report.Percent(linear.SavingVsASAP), report.Percent(constant.SavingVsASAP))
	})
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
	once("storagemodel", func() {
		super, liion, err := exp.StorageModelAblation(1)
		if err != nil {
			fmt.Println("storage ablation:", err)
			return
		}
		fmt.Printf("\nAblation — storage model: supercap FC-DPM = %s of Conv, Li-ion (KiBaM) = %s\n",
			report.Percent(super.Row("FC-DPM").Normalized), report.Percent(liion.Row("FC-DPM").Normalized))
	})
}

// BenchmarkAblationDPMMode compares device-side sleep policies.
func BenchmarkAblationDPMMode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.DPMModeAblation(1); err != nil {
			b.Fatal(err)
		}
	}
	once("dpmmode", func() {
		modes, err := exp.DPMModeAblation(1)
		if err != nil {
			fmt.Println("dpm ablation:", err)
			return
		}
		tab := report.NewTable("\nAblation — device-side DPM mode (FC-DPM source policy)",
			"Mode", "Avg Ifc (A)", "Sleeps")
		for _, name := range []string{"predictive", "oracle-sleep", "always-sleep", "never-sleep"} {
			r := modes[name].Row("FC-DPM")
			tab.AddRow(name, fmt.Sprintf("%.4f", r.AvgRate), r.Sleeps)
		}
		fmt.Println(tab)
	})
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
	once("flatoracle", func() {
		flat, fc, err := exp.FlatOracle(1)
		if err != nil {
			fmt.Println("flat oracle:", err)
			return
		}
		fmt.Printf("\nAblation — offline flat bound: flat avg Ifc = %.4f A, FC-DPM = %.4f A (gap %s)\n",
			flat.AvgFuelRate(), fc.AvgFuelRate(),
			report.Percent(fc.AvgFuelRate()/flat.AvgFuelRate()-1))
	})
}

// --- Micro-benchmarks of the core primitives ---

// BenchmarkOptimizeSlot measures the per-slot optimizer, the operation
// FC-DPM performs online at every idle-period start.
func BenchmarkOptimizeSlot(b *testing.B) {
	sys := PaperSystem()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := OptimizeSlot(sys, 6, OptSlot{
			Ti: 14, IldI: 0.2, Ta: 3.03, IldA: 1.22, Cini: 1, Cend: 1,
			Sleep:    true,
			Overhead: &OptOverhead{TauWU: 0.5, IWU: 0.4, TauPD: 0.5, IPD: 0.4},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateSlotThroughput measures raw simulation throughput in
// slots/op over the camcorder trace, on the steady-state fast path: a
// reused one-lane BatchRunner at the fuel-only record level (zero
// allocations per run once warm).
func BenchmarkSimulateSlotThroughput(b *testing.B) {
	cfg := throughputConfig(b)
	r := newOneLane(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runLane(b, r)
	}
	b.ReportMetric(float64(cfg.Trace.Len()), "slots/op")
}

// batchVariantLanes builds K scenario-variant lanes over the Experiment 1
// camcorder trace for the batched core: 8 distinct dynamics (Conv, ASAP,
// FC-DPM, and quantized FC-DPM at 5 level counts) replicated round-robin,
// so at K=64 each dynamics fingerprint carries 8 identical lanes and the
// run-grouping collapses them onto one executing leader.
func batchVariantLanes(b *testing.B, k int) []SimLane {
	b.Helper()
	sys := PaperSystem()
	dev := Camcorder()
	trace, err := CamcorderTrace(1)
	if err != nil {
		b.Fatal(err)
	}
	quant := func(n int) Policy {
		p, err := NewFCDPMQuantized(sys, dev, UniformLevels(sys, n))
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	variants := []func() Policy{
		func() Policy { return NewConv(sys) },
		func() Policy { return NewASAP(sys) },
		func() Policy { return NewFCDPM(sys, dev) },
		func() Policy { return quant(3) },
		func() Policy { return quant(4) },
		func() Policy { return quant(6) },
		func() Policy { return quant(8) },
		func() Policy { return quant(12) },
	}
	lanes := make([]SimLane, k)
	for i := range lanes {
		lanes[i] = SimLane{Cfg: SimConfig{
			Sys: sys, Dev: dev, Store: MustSuperCap(6, 1),
			Trace: trace, Policy: variants[i%len(variants)](),
			Record: RecordFuelOnly,
		}}
	}
	return lanes
}

// BenchmarkBatchSlotThroughput measures the batched core's aggregate
// slot throughput at lane widths 1, 8, and 64 over the Experiment 1
// trace. slots/op counts lane-slots (trace length × K), so ns/op ÷
// slots/op is the per-lane-slot cost — the number that must fall ≥3×
// below the K=1 scalar baseline at K=64, where the 8 recording copies
// per dynamics fingerprint collapse onto 8 executing leaders.
func BenchmarkBatchSlotThroughput(b *testing.B) {
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			lanes := batchVariantLanes(b, k)
			slots := lanes[0].Cfg.Trace.Len() * k
			r, err := NewBatchRunner(lanes)
			if err != nil {
				b.Fatal(err)
			}
			// Warm-up: lazily grown buffers settle on the first pass.
			if _, err := r.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := r.Run()
				if err != nil {
					b.Fatal(err)
				}
				for _, lr := range out {
					if lr.Err != nil {
						b.Fatal(lr.Err)
					}
				}
			}
			b.ReportMetric(float64(slots), "slots/op")
		})
	}
}

// BenchmarkBatchSequentialBaseline is the before picture for
// BenchmarkBatchSlotThroughput/K=64: the same 64 variant lanes executed
// one one-lane BatchRunner at a time. The acceptance bar is the batched
// ns/op landing at least 3× below this number.
func BenchmarkBatchSequentialBaseline(b *testing.B) {
	lanes := batchVariantLanes(b, 64)
	slots := lanes[0].Cfg.Trace.Len() * len(lanes)
	runners := make([]*BatchRunner, len(lanes))
	for i, ln := range lanes {
		runners[i] = newOneLane(b, ln.Cfg)
		runLane(b, runners[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range runners {
			runLane(b, r)
		}
	}
	b.ReportMetric(float64(slots), "slots/op")
}

// BenchmarkStackCurrent measures the Eq 4 fuel map.
func BenchmarkStackCurrent(b *testing.B) {
	b.ReportAllocs()
	sys := PaperSystem()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += sys.StackCurrent(0.1 + float64(i%11)*0.1)
	}
	_ = sink
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
	once("quantized", func() {
		rows, err := exp.QuantizedSweep(1, counts)
		if err != nil {
			fmt.Println("quantized sweep:", err)
			return
		}
		tab := report.NewTable("\nAblation — discrete FC output levels (multi-level config of [11])",
			"Levels", "Fuel (A-s)", "FC-DPM vs Conv", "Gap vs continuous")
		for _, r := range rows {
			name := fmt.Sprintf("%d", r.Levels)
			if r.Levels == 0 {
				name = "continuous"
			}
			tab.AddRow(name, fmt.Sprintf("%.1f", r.Fuel), report.Percent(r.FCNormalized),
				report.Percent(r.GapVsCont))
		}
		fmt.Println(tab)
	})
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
	once("offlinedp", func() {
		offline, online, err := exp.OfflineOracleDP(1, 48)
		if err != nil {
			fmt.Println("offline DP:", err)
			return
		}
		fmt.Printf("\nAblation — offline DP oracle: offline avg Ifc = %.4f A, online FC-DPM = %.4f A (prediction cost %s)\n",
			offline.AvgFuelRate(), online.AvgFuelRate(),
			report.Percent(online.AvgFuelRate()/offline.AvgFuelRate()-1))
	})
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
	once("timeout", func() {
		pred, timeout, err := exp.TimeoutAblation(1)
		if err != nil {
			fmt.Println("timeout ablation:", err)
			return
		}
		fmt.Printf("\nAblation — device DPM: predictive avg Ifc = %.4f A, timeout(Tbe) = %.4f A (dwell cost %s)\n",
			pred.AvgFuelRate(), timeout.AvgFuelRate(),
			report.Percent(timeout.AvgFuelRate()/pred.AvgFuelRate()-1))
	})
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
	once("hydrogen", func() {
		reports, err := exp.Hydrogen(cmp, 10)
		if err != nil {
			fmt.Println("hydrogen:", err)
			return
		}
		tab := report.NewTable("\nHydrogen accounting — 28-min trace on a 10 g H2 cartridge (20-cell stack)",
			"Policy", "H2 burned (g)", "H2 (L STP)", "Cartridge life (h)", "End-to-end η")
		for _, r := range reports {
			tab.AddRow(r.Policy, fmt.Sprintf("%.3f", r.Grams), fmt.Sprintf("%.2f", r.LitresSTP),
				fmt.Sprintf("%.1f", r.LifetimeHours), report.Percent(r.EndToEndEff))
		}
		fmt.Println(tab)
	})
}

// BenchmarkMultiSeed reports cross-seed reproduction error bars.
func BenchmarkMultiSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.MultiSeed(1, 5); err != nil {
			b.Fatal(err)
		}
	}
	once("multiseed", func() {
		sum, err := exp.MultiSeed(1, 5)
		if err != nil {
			fmt.Println("multi-seed:", err)
			return
		}
		fmt.Printf("\nExperiment 1 across %d seeds: ASAP %.1f%%±%.1f, FC-DPM %.1f%%±%.1f, saving %.1f%%±%.1f (paper: 40.8 / 30.8 / 24.4)\n",
			sum.Seeds,
			100*sum.ASAPNorm.Mean, 100*sum.ASAPNorm.Stddev,
			100*sum.FCNorm.Mean, 100*sum.FCNorm.Stddev,
			100*sum.SavingVsASAP.Mean, 100*sum.SavingVsASAP.Stddev)
	})
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
	once("slew", func() {
		rows, err := exp.SlewAblation(1, rates)
		if err != nil {
			fmt.Println("slew ablation:", err)
			return
		}
		tab := report.NewTable("\nAblation — FC output slew-rate limit (0 = ideal source)",
			"Rate (A/s)", "ASAP Ifc (A)", "ASAP deficit (A-s)", "FC-DPM Ifc (A)", "FC-DPM deficit (A-s)")
		for _, r := range rows {
			tab.AddRow(r.RateAps, fmt.Sprintf("%.4f", r.ASAPRate), fmt.Sprintf("%.2f", r.ASAPDeficit),
				fmt.Sprintf("%.4f", r.FCRate), fmt.Sprintf("%.2f", r.FCDeficit))
		}
		fmt.Println(tab)
	})
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
	once("dvs", func() {
		study, err := exp.RunDVSStudy(proc, task)
		if err != nil {
			fmt.Println("dvs study:", err)
			return
		}
		tab := report.NewTable("\nDVS companion study ([10]) — fuel vs processor speed",
			"Level", "Freq (MHz)", "Load (A)", "ASAP Ifc (A)", "FC-DPM Ifc (A)")
		for _, r := range study.Rows {
			tab.AddRow(fmt.Sprintf("L%d", r.Level), fmt.Sprintf("%.0f", r.FreqMHz),
				fmt.Sprintf("%.3f", r.LoadA), fmt.Sprintf("%.4f", r.ASAPRate),
				fmt.Sprintf("%.4f", r.FCRate))
		}
		fmt.Println(tab)
		fmt.Printf("energy optimum L%d; ASAP fuel optimum L%d; FC-DPM fuel optimum L%d\n",
			study.EnergyOptimal, study.ASAPOptimal, study.FCOptimal)
	})
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
	once("batteryaware", func() {
		ba, fc, err := exp.BatteryAwareAblation(1)
		if err != nil {
			fmt.Println("battery-aware ablation:", err)
			return
		}
		fmt.Printf("\nAblation — battery-aware shaping on the FC hybrid: battery-aware avg Ifc = %.4f A vs FC-DPM %.4f A (%s more fuel)\n",
			ba.AvgFuelRate(), fc.AvgFuelRate(),
			report.Percent(ba.AvgFuelRate()/fc.AvgFuelRate()-1))
	})
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
	once("aggregation", func() {
		rows, err := exp.AggregationAblation(1, ks)
		if err != nil {
			fmt.Println("aggregation ablation:", err)
			return
		}
		tab := report.NewTable("\nAblation — idle aggregation / task procrastination ([6, 7])",
			"k", "Max deferral (s)", "Sleeps", "FC-DPM Ifc (A)")
		for _, r := range rows {
			tab.AddRow(r.K, fmt.Sprintf("%.1f", r.MaxDeferral), r.Sleeps, fmt.Sprintf("%.4f", r.FCRate))
		}
		fmt.Println(tab)
	})
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
	once("exp3", func() {
		cmp, err := exp.Experiment3(3)
		if err != nil {
			fmt.Println("exp3:", err)
			return
		}
		fmt.Println()
		fmt.Print(comparisonTable("Experiment 3 — heavy-tail idle workload (beyond paper)", cmp, nil))
		rows, err := exp.Experiment3DPM(3)
		if err != nil {
			fmt.Println("exp3 dpm:", err)
			return
		}
		tab := report.NewTable("Sleep-policy comparison under FC-DPM (Pareto idles, Tbe = 10 s)",
			"DPM mode", "Sleeps", "Avg Ifc (A)", "Deficit (A-s)")
		for _, r := range rows {
			tab.AddRow(r.Mode, r.Sleeps, fmt.Sprintf("%.4f", r.FCRate), fmt.Sprintf("%.3f", r.Deficit))
		}
		fmt.Println(tab)
	})
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
	once("actuation", func() {
		rows, err := exp.ActuationAblation(1, eps)
		if err != nil {
			fmt.Println("actuation ablation:", err)
			return
		}
		tab := report.NewTable("\nAblation — actuation dead band (FC-DPM-band)",
			"ε (A)", "Set-point commands", "Avg Ifc (A)")
		for _, r := range rows {
			tab.AddRow(r.Epsilon, r.Setpoints, fmt.Sprintf("%.4f", r.FCRate))
		}
		fmt.Println(tab)
	})
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
	once("calibration", func() {
		rows, err := exp.CalibrationUncertainty(1, 0.1)
		if err != nil {
			fmt.Println("calibration:", err)
			return
		}
		tab := report.NewTable("\nAblation — ±10% calibration uncertainty on (α, β)",
			"α", "β", "FC-DPM vs Conv", "Saving vs ASAP")
		for _, r := range rows {
			tab.AddRow(fmt.Sprintf("%.3f", r.Alpha), fmt.Sprintf("%.3f", r.Beta),
				report.Percent(r.FCNormalized), report.Percent(r.SavingVsASAP))
		}
		fmt.Println(tab)
	})
}

// BenchmarkExperiment4HDD runs the disk-platform generality check.
func BenchmarkExperiment4HDD(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Experiment4(4); err != nil {
			b.Fatal(err)
		}
	}
	once("exp4", func() {
		cmp, err := exp.Experiment4(4)
		if err != nil {
			fmt.Println("exp4:", err)
			return
		}
		fmt.Println()
		fmt.Print(comparisonTable("Experiment 4 — HDD media player on a 5 W-class FC (beyond paper)", cmp, nil))
	})
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
	once("thermal", func() {
		rows, err := exp.ThermalStressAblation(1)
		if err != nil {
			fmt.Println("thermal:", err)
			return
		}
		tab := report.NewTable("\nAblation — stack thermal stress (post-warm-up)",
			"Policy", "Mean (°C)", "Swing (°C)", "Cycles")
		for _, r := range rows {
			tab.AddRow(r.Policy, fmt.Sprintf("%.1f", r.Stress.Mean),
				fmt.Sprintf("%.1f", r.Stress.Swing), r.Stress.CycleCount)
		}
		fmt.Println(tab)
	})
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
	once("mpc", func() {
		rows, err := exp.MPCAblation(1, horizons)
		if err != nil {
			fmt.Println("mpc:", err)
			return
		}
		tab := report.NewTable("\nAblation — receding-horizon FC-DPM (negative result: horizon buys nothing here)",
			"Horizon", "Avg Ifc (A)")
		for _, r := range rows {
			tab.AddRow(r.Horizon, fmt.Sprintf("%.4f", r.FCRate))
		}
		fmt.Println(tab)
	})
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
	once("conformance", func() {
		checks, _ := exp.Conformance(1)
		pass := 0
		for _, c := range checks {
			if c.Pass {
				pass++
			}
		}
		fmt.Printf("\nConformance: %d/%d paper-vs-measured checks pass (run `fcdpm verify` for the full table)\n",
			pass, len(checks))
	})
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
	once("bursty", func() {
		rows, err := exp.BurstyPredictorStudy(4)
		if err != nil {
			fmt.Println("bursty:", err)
			return
		}
		tab := report.NewTable("\nBursty (regime-switching) workload — idle predictor choice under FC-DPM",
			"Predictor", "MAE (s)", "Over-rate", "FC-DPM vs Conv")
		for _, r := range rows {
			tab.AddRow(r.Predictor, fmt.Sprintf("%.2f", r.Accuracy.MAE),
				report.Percent(r.Accuracy.OverRate), report.Percent(r.FCNormalized))
		}
		fmt.Println(tab)
	})
}

// BenchmarkRobustness runs the Monte-Carlo model-uncertainty study.
func BenchmarkRobustness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RobustnessStudy(1, 10, 0.1); err != nil {
			b.Fatal(err)
		}
	}
	once("robust", func() {
		r, err := exp.RobustnessStudy(1, 20, 0.1)
		if err != nil {
			fmt.Println("robustness:", err)
			return
		}
		fmt.Printf("\nMonte-Carlo robustness (±10%% device+efficiency, %d trials): FC-DPM wins %d/%d, saving %s ± %s (min %s)\n",
			r.Trials, r.Wins, r.Trials, report.Percent(r.Saving.Mean),
			report.Percent(r.Saving.Stddev), report.Percent(r.Saving.Min))
	})
}
