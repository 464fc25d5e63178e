package fcdpm

// Allocation-budget pins for the hot paths. These are hard gates, not
// benchmarks: the zero-allocation steady state of the simulation core is
// an API guarantee (a reused BatchRunner at RecordFuelOnly), and
// testing.AllocsPerRun catches any accidental per-run allocation the day
// it is introduced.

import (
	"context"
	"testing"

	"fcdpm/internal/fault"
	"fcdpm/internal/fcopt"
	"fcdpm/internal/obs"
	"fcdpm/internal/sim"
)

// throughputConfig is the benchmark configuration: FC-DPM over the
// camcorder trace at the fuel-only record level.
func throughputConfig(t testing.TB) SimConfig {
	sys := PaperSystem()
	dev := Camcorder()
	trace, err := CamcorderTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	return SimConfig{
		Sys: sys, Dev: dev, Store: MustSuperCap(6, 1),
		Trace: trace, Policy: NewFCDPM(sys, dev),
		Record: sim.RecordFuelOnly,
	}
}

// newOneLane builds the reusable one-lane BatchRunner for cfg.
func newOneLane(t testing.TB, cfg SimConfig) *sim.BatchRunner {
	b, err := sim.NewBatchRunner([]sim.Lane{{Cfg: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runLane runs a one-lane batch and returns its lane's result.
func runLane(t testing.TB, b *sim.BatchRunner) *Result {
	out, err := b.Run()
	if err == nil {
		err = out[0].Err
	}
	if err != nil {
		t.Fatal(err)
	}
	return out[0].Res
}

func TestSimRunSteadyStateZeroAllocs(t *testing.T) {
	b := newOneLane(t, throughputConfig(t))
	// Warm-up run: lazily grown buffers (idle-length history, event log
	// capacity) settle on the first pass.
	runLane(t, b)
	allocs := testing.AllocsPerRun(20, func() { runLane(t, b) })
	if allocs != 0 {
		t.Fatalf("one-lane BatchRunner.Run allocates %v times per steady-state run at RecordFuelOnly, want 0", allocs)
	}
}

// TestSimRunOneShotAllocs bounds the one-shot path every serving surface
// takes per request: sim.RunContext builds a fresh one-lane batch, so
// its whole setup counts.
func TestSimRunOneShotAllocs(t *testing.T) {
	const budget = 16
	cfg := throughputConfig(t)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sim.RunContext(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("one-shot RunContext allocates %v times per run, want <= %d", allocs, budget)
	}
}

func TestSimRunMetricsZeroAllocs(t *testing.T) {
	// Instrumentation must not perturb the zero-allocation guarantee:
	// with a SimMetrics bundle attached, steady-state runs still
	// allocate nothing (recording is a handful of atomic adds).
	sys := PaperSystem()
	dev := Camcorder()
	trace, err := CamcorderTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := obs.NewSimMetrics(reg)
	b := newOneLane(t, SimConfig{
		Sys: sys, Dev: dev, Store: MustSuperCap(6, 1),
		Trace: trace, Policy: NewFCDPM(sys, dev),
		Record:  sim.RecordFuelOnly,
		Metrics: m,
	})
	b.Metrics = obs.NewBatchMetrics(reg)
	runLane(t, b)
	allocs := testing.AllocsPerRun(20, func() { runLane(t, b) })
	if allocs != 0 {
		t.Fatalf("instrumented one-lane BatchRunner.Run allocates %v times per steady-state run, want 0", allocs)
	}
	if got := m.Runs.Value(); got < 21 {
		t.Fatalf("metrics recorded %v runs, want >= 21", got)
	}
	if _, timed, _ := m.RunSeconds.Snapshot(); m.Slots.Value() <= 0 || timed == 0 {
		t.Fatal("instrumented runs recorded no slots or wall time")
	}
}

func TestSimRunnerResultsStayIdentical(t *testing.T) {
	// The arena reuse must not leak state between runs: every repeat of
	// a one-lane BatchRunner is the same simulation, so its totals must
	// match the first bit for bit.
	b := newOneLane(t, throughputConfig(t))
	first := runLane(t, b)
	fuel, deficit, final := first.Fuel, first.Deficit, first.FinalCharge
	for i := 0; i < 3; i++ {
		res := runLane(t, b)
		if res.Fuel != fuel || res.Deficit != deficit || res.FinalCharge != final {
			t.Fatalf("run %d diverged: fuel %v/%v deficit %v/%v final %v/%v",
				i, res.Fuel, fuel, res.Deficit, deficit, res.FinalCharge, final)
		}
	}
}

// newThroughputBatch builds a fault-free multi-lane batch over the
// camcorder trace: three FC-DPM lanes under one key (one group) plus a
// Conv lane and an ASAP lane, instrumented with a BatchMetrics bundle.
func newThroughputBatch(t testing.TB) *sim.BatchRunner {
	sys := PaperSystem()
	dev := Camcorder()
	trace, err := CamcorderTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(key string, p Policy) sim.Lane {
		return sim.Lane{Key: key, Cfg: SimConfig{
			Sys: sys, Dev: dev, Store: MustSuperCap(6, 1),
			Trace: trace, Policy: p, Record: sim.RecordFuelOnly,
		}}
	}
	b, err := sim.NewBatchRunner([]sim.Lane{
		mk("fcdpm", NewFCDPM(sys, dev)),
		mk("fcdpm", NewFCDPM(sys, dev)),
		mk("fcdpm", NewFCDPM(sys, dev)),
		mk("conv", NewConv(sys)),
		mk("asap", NewASAP(sys)),
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Metrics = obs.NewBatchMetrics(obs.NewRegistry())
	return b
}

func TestBatchRunnerZeroAllocs(t *testing.T) {
	b := newThroughputBatch(t)
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := b.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("BatchRunner.Run allocates %v times per steady-state run at RecordFuelOnly, want 0", allocs)
	}
}

// TestRegressionBatchGroups pins what BenchmarkSuite's
// batch-slot-throughput-k{1,8,64} entries measure: k keyed lanes of the
// eight policy variants run as min(k, 8) groups, so k64 simulates 8
// groups for its 64 lanes.
func TestRegressionBatchGroups(t *testing.T) {
	cfg := throughputConfig(t)
	for _, k := range []int{1, 8, 64} {
		policies, keys := variantPolicies(t, cfg.Sys, cfg.Dev, k)
		br := warmRunner(t, cfg.Sys, cfg.Dev, cfg.Trace, policies, keys)
		if got, want := br.Groups(), min(k, batchVariants); got != want {
			t.Errorf("%d variant lanes run as %d groups, want %d", k, got, want)
		}
	}
}

// optSlot is the optimizer's fixture: one task slot with sleep and
// wake-up/power-down overheads.
func optSlot() OptSlot {
	return OptSlot{
		Ti: 14, IldI: 0.2, Ta: 3.03, IldA: 1.22, Cini: 1, Cend: 1,
		Sleep:    true,
		Overhead: &fcopt.Overhead{TauWU: 0.5, IWU: 0.4, TauPD: 0.5, IPD: 0.4},
	}
}

func TestOptimizeSlotZeroAllocs(t *testing.T) {
	sys := PaperSystem()
	slot := optSlot()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := OptimizeSlot(sys, 6, slot); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("OptimizeSlot allocates %v times per call, want 0", allocs)
	}
}

func TestSimFaultedRunZeroAllocs(t *testing.T) {
	// Fault injection must ride the same arena-reuse path as clean runs:
	// the injector rewinds its transition list and noise stream in place,
	// and the fade wrapper restores instead of being rebuilt per run.
	// The event magnitudes stay zero (class defaults apply) because a
	// nonzero magnitude formats into the audit log.
	sys := PaperSystem()
	dev := Camcorder()
	trace, err := CamcorderTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	sched := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.CapacityFade, Start: 200, Dur: 100},
		{Kind: fault.SensorNoise, Start: 400, Dur: 150},
	}}
	b := newOneLane(t, SimConfig{
		Sys: sys, Dev: dev, Store: MustSuperCap(6, 1),
		Trace: trace, Policy: NewFCDPM(sys, dev),
		Record: sim.RecordFuelOnly,
		Faults: sched, FaultSeed: 11,
	})
	first := runLane(t, b)
	fuel, lost := first.Fuel, first.LostCharge
	allocs := testing.AllocsPerRun(20, func() {
		res := runLane(t, b)
		if res.Fuel != fuel || res.LostCharge != lost {
			t.Fatalf("faulted rerun diverged: fuel %v/%v lost %v/%v",
				res.Fuel, fuel, res.LostCharge, lost)
		}
	})
	if allocs != 0 {
		t.Fatalf("faulted one-lane BatchRunner.Run allocates %v times per steady-state run, want 0", allocs)
	}
}
