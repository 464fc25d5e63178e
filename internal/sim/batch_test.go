package sim_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fcdpm/internal/device"
	"fcdpm/internal/fault"
	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/multistack"
	"fcdpm/internal/obs"
	"fcdpm/internal/policy"
	"fcdpm/internal/predict"
	"fcdpm/internal/sim"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

// The batch oracle: every lane of a BatchRunner must produce a Result
// byte-identical to a one-lane run (sim.Run) of the same Config —
// whatever mix of policies, predictors, record levels, DPM modes, and
// fault schedules the lanes carry. These tests drive that contract
// directly; the grouping machinery is only allowed to make runs cheaper,
// never different.

// assertResultEqual compares two results field for field with exact
// (bit-level) float equality. Slices and the fuel map compare by content
// so a nil buffer and an emptied-but-allocated one are interchangeable.
func assertResultEqual(t *testing.T, label string, got, want *sim.Result) {
	t.Helper()
	g, w := *got, *want
	g.FuelByKind, w.FuelByKind = nil, nil
	g.Events, w.Events = nil, nil
	g.Profile, w.Profile = nil, nil
	g.Charges, w.Charges = nil, nil
	g.SlotLog, w.SlotLog = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: scalar fields differ:\n got %+v\nwant %+v", label, g, w)
	}
	if len(got.FuelByKind) != len(want.FuelByKind) {
		t.Fatalf("%s: FuelByKind sizes differ: %v vs %v", label, got.FuelByKind, want.FuelByKind)
	}
	for k, v := range want.FuelByKind {
		if gv, ok := got.FuelByKind[k]; !ok || gv != v {
			t.Fatalf("%s: FuelByKind[%v] = %v, want %v", label, k, got.FuelByKind[k], v)
		}
	}
	if !slicesEq(got.Events, want.Events) {
		t.Fatalf("%s: Events differ:\n got %v\nwant %v", label, got.Events, want.Events)
	}
	if !slicesEq(got.Profile, want.Profile) {
		t.Fatalf("%s: Profile differs (%d vs %d points)", label, len(got.Profile), len(want.Profile))
	}
	if !slicesEq(got.Charges, want.Charges) {
		t.Fatalf("%s: Charges differ (%d vs %d points)", label, len(got.Charges), len(want.Charges))
	}
	if !slicesEq(got.SlotLog, want.SlotLog) {
		t.Fatalf("%s: SlotLog differs (%d vs %d records)", label, len(got.SlotLog), len(want.SlotLog))
	}
}

func slicesEq[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// batchOracleCheck runs the lanes batched and each lane sequentially,
// and fails unless every lane matches its sequential twin exactly.
func batchOracleCheck(t *testing.T, lanes []sim.Lane) *sim.BatchRunner {
	t.Helper()
	b, err := sim.NewBatchRunner(lanes)
	if err != nil {
		t.Fatalf("NewBatchRunner: %v", err)
	}
	got, batchErr := b.Run()
	if batchErr != nil {
		t.Fatalf("batch run: %v", batchErr)
	}
	for i := range lanes {
		want, seqErr := sim.Run(lanes[i].Cfg)
		if (got[i].Err == nil) != (seqErr == nil) {
			t.Fatalf("lane %d: batch err %v, sequential err %v", i, got[i].Err, seqErr)
		}
		if seqErr != nil {
			continue
		}
		assertResultEqual(t, labelLane(i, &lanes[i].Cfg), got[i].Res, want)
	}
	return b
}

func labelLane(i int, cfg *sim.Config) string {
	name := "<nil>"
	if cfg.Policy != nil {
		name = cfg.Policy.Name()
	}
	return "lane " + string(rune('0'+i%10)) + " (" + name + ")"
}

// randomLane draws one scenario variant: trace (one of traces), system
// (one of systems), policy family, storage size, predictors, DPM mode,
// record level, slew rate, faults, and fallback chain all vary. Shared
// pointers (traces, systems, dev, schedules) are the same objects across
// lanes, exactly as sweep and server consumers build them. The lane's
// key names every draw but the record level, so two lanes with equal
// keys are the same simulation, whatever each records.
func randomLane(t *testing.T, rng *rand.Rand, systems []*fuelcell.System, dev *device.Model,
	traces []*workload.Trace, scheds []*fault.Schedule) sim.Lane {
	t.Helper()
	var key strings.Builder
	draw := func(n int) int {
		v := rng.Intn(n)
		fmt.Fprintf(&key, "%d.", v)
		return v
	}
	tr := traces[0]
	if len(traces) > 1 {
		tr = traces[draw(len(traces))]
	}
	sys := systems[draw(len(systems))]
	cfg := sim.Config{Sys: sys, Dev: dev, Trace: tr}

	switch draw(4) {
	case 0:
		cfg.Policy = policy.NewConv(sys)
	case 1:
		cfg.Policy = policy.NewASAP(sys)
	case 2:
		cfg.Policy = policy.NewFCDPM(sys, dev)
	default:
		q, err := policy.NewFCDPMQuantized(sys, dev, fcopt.UniformLevels(sys, 4+draw(3)))
		if err != nil {
			t.Fatalf("quantized policy: %v", err)
		}
		cfg.Policy = q
	}

	caps := []float64{6, 8}
	cmax := caps[draw(len(caps))]
	cfg.Store = storage.MustSuperCap(cmax, cmax/2)

	switch draw(3) {
	case 0: // defaults
	case 1:
		cfg.IdlePredictor = predict.MustExpAverage(0.5, 4)
		cfg.ActivePredictor = predict.MustExpAverage(0.5, 2)
	default:
		cfg.IdlePredictor = predict.NewLastValue(4)
		cfg.CurrentPredictor = predict.MustExpAverage(0.3, 1)
	}

	switch draw(4) {
	case 0:
		cfg.DPM = sim.DPMPredictive
	case 1:
		cfg.DPM = sim.DPMAlwaysSleep
	case 2:
		cfg.DPM = sim.DPMNeverSleep
	default:
		cfg.DPM = sim.DPMTimeout
		if draw(2) == 0 {
			cfg.Timeout = 1.5
		}
	}

	if rng.Intn(2) == 0 {
		cfg.Record = sim.RecordFull
	}

	if draw(3) == 0 {
		cfg.SlewRate = 2.0
	}
	if draw(3) == 0 {
		cfg.Faults = scheds[draw(len(scheds))]
		cfg.FaultSeed = uint64(17 + draw(2)*6)
		cfg.Fallbacks = []sim.Policy{policy.NewASAP(sys), policy.NewConv(sys)}
	}
	return sim.Lane{Key: key.String(), Cfg: cfg}
}

// TestBatchRunnerOracleProperty is the batch ≡ scalar property: random
// variant sets across policies × seeds × record levels × fault schedules,
// every lane compared byte-for-byte against a sequential run. Each round
// adds a twin of one drawn lane, built from fresh instances at the other
// record level, so every round runs a merged group and checks its
// projections against scalar runs. It runs on the hand-built periodic
// trace, on short racksurge, bursty and heavytail traces, on all of them
// at once with every lane drawing its own trace, and on multistack racks
// (K ∈ {2, 4}, every allocator, healthy and degraded), including lanes
// spread over two equal-content racks built separately.
func TestBatchRunnerOracleProperty(t *testing.T) {
	paper := []*fuelcell.System{fuelcell.PaperSystem()}
	dev := device.Synthetic()
	scheds := []*fault.Schedule{
		{Events: []fault.Event{
			{Kind: fault.SensorNoise, Start: 30, Dur: 100, Magnitude: 0.4},
			{Kind: fault.EfficiencyDegrade, Start: 50, Dur: 60, Magnitude: 0.3},
		}},
		{Events: []fault.Event{
			{Kind: fault.StackDropout, Start: 120, Dur: 40},
			{Kind: fault.CapacityFade, Start: 40, Dur: 0, Magnitude: 0.2},
		}},
	}
	check := func(t *testing.T, seed int64, rounds int, systems []*fuelcell.System, traces ...*workload.Trace) {
		t.Helper()
		for round := 0; round < rounds; round++ {
			rng := rand.New(rand.NewSource(seed + int64(round)))
			lanes := make([]sim.Lane, 1+rng.Intn(8))
			seeds := make([]int64, len(lanes))
			for i := range lanes {
				seeds[i] = rng.Int63()
				lanes[i] = randomLane(t, rand.New(rand.NewSource(seeds[i])), systems, dev, traces, scheds)
			}
			j := rng.Intn(len(lanes))
			twin := randomLane(t, rand.New(rand.NewSource(seeds[j])), systems, dev, traces, scheds)
			twin.Cfg.Record = sim.RecordFull
			if lanes[j].Cfg.Record == sim.RecordFull {
				twin.Cfg.Record = sim.RecordFuelOnly
			}
			lanes = append(lanes, twin)
			b := batchOracleCheck(t, lanes)
			if b.GroupOf(j) != b.GroupOf(len(lanes)-1) {
				t.Fatalf("round %d: lane %d and its twin run in groups %d and %d",
					round, j, b.GroupOf(j), b.GroupOf(len(lanes)-1))
			}
		}
	}

	t.Run("periodic", func(t *testing.T) { check(t, 1000, 12, paper, faultTrace(80)) })

	mustTrace := func(tr *workload.Trace, err error) *workload.Trace {
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	surgeCfg := workload.DefaultRackSurgeConfig()
	surgeCfg.Duration = 300
	surge := mustTrace(workload.RackSurge(surgeCfg))
	burstyCfg := workload.DefaultBurstyConfig()
	burstyCfg.Duration = 300
	heavyCfg := workload.DefaultHeavyTailConfig()
	heavyCfg.Duration = 300
	bursty := mustTrace(workload.Bursty(burstyCfg))
	heavy := mustTrace(workload.HeavyTail(heavyCfg))
	for _, tc := range []struct {
		name string
		tr   *workload.Trace
	}{
		{"racksurge", surge},
		{"bursty", bursty},
		{"heavytail", heavy},
	} {
		t.Run(tc.name, func(t *testing.T) { check(t, 2000, 4, paper, tc.tr) })
	}
	t.Run("mixed-traces", func(t *testing.T) {
		check(t, 5000, 12, paper, faultTrace(80), faultTrace(23), surge, bursty, heavy)
	})

	for _, k := range []int{2, 4} {
		for _, alloc := range multistack.Allocators() {
			for _, degrade := range [][]float64{nil, {0, 0.3}} {
				rack := mustRack(t, k, alloc, degrade)
				name := fmt.Sprintf("rack-k%d-%s-degrade%v", k, alloc.Name(), degrade)
				t.Run(name, func(t *testing.T) { check(t, 3000, 2, []*fuelcell.System{rack}, surge) })
			}
		}
	}

	t.Run("equal-content-racks", func(t *testing.T) {
		a := mustRack(t, 4, multistack.WaterFill{}, []float64{0, 0.3})
		b := mustRack(t, 4, multistack.WaterFill{}, []float64{0, 0.3})
		if a == b {
			t.Fatal("racks built separately share a System")
		}
		check(t, 4000, 4, []*fuelcell.System{a, b}, surge)
		// A content key, as runreport derives from the spec, makes the
		// same lane over either rack one simulation, and each lane still
		// matches its own scalar run.
		lane := func(sys *fuelcell.System) sim.Lane {
			return sim.Lane{Key: "rack-k4-waterfill-0,0.3", Cfg: sim.Config{Sys: sys, Dev: dev, Trace: surge,
				Store: storage.MustSuperCap(6, 3), Policy: policy.NewFCDPM(sys, dev)}}
		}
		runner := batchOracleCheck(t, []sim.Lane{lane(a), lane(b)})
		if runner.GroupOf(0) != runner.GroupOf(1) {
			t.Fatalf("equal content keys split into groups %d and %d", runner.GroupOf(0), runner.GroupOf(1))
		}
	})
}

// mustRack builds a k-stack rack of the paper's system and returns its
// aggregate System.
func mustRack(t *testing.T, k int, alloc multistack.Allocator, degrade []float64) *fuelcell.System {
	t.Helper()
	r, err := multistack.Uniform(fuelcell.PaperSystem(), k, alloc, degrade)
	if err != nil {
		t.Fatal(err)
	}
	return r.System()
}

// TestBatchRunnerGroupsDuplicates verifies lanes with one key collapse
// to one executing group regardless of record level, and that a lane
// with another key stays apart.
func TestBatchRunnerGroupsDuplicates(t *testing.T) {
	sys := fuelcell.PaperSystem()
	dev := device.Synthetic()
	tr := faultTrace(60)
	mk := func(cmax float64, rec sim.RecordLevel) sim.Lane {
		return sim.Lane{Key: fmt.Sprintf("cmax-%v", cmax), Cfg: sim.Config{
			Sys: sys, Dev: dev, Trace: tr,
			Store:  storage.MustSuperCap(cmax, cmax/2),
			Policy: policy.NewFCDPM(sys, dev),
			Record: rec,
		}}
	}
	lanes := []sim.Lane{
		mk(6, sim.RecordFuelOnly),
		mk(6, sim.RecordFull),
		mk(6, sim.RecordFuelOnly),
		mk(8, sim.RecordFuelOnly), // different capacity: own group
	}
	b := batchOracleCheck(t, lanes)
	if b.Groups() != 2 {
		t.Fatalf("want 2 run groups, got %d", b.Groups())
	}
	if b.GroupOf(0) != b.GroupOf(1) || b.GroupOf(0) != b.GroupOf(2) {
		t.Fatalf("equal-key lanes split: groups %d/%d/%d",
			b.GroupOf(0), b.GroupOf(1), b.GroupOf(2))
	}
	if b.GroupOf(3) == b.GroupOf(0) {
		t.Fatalf("different-capacity lane joined group %d", b.GroupOf(0))
	}
}

// TestBatchRunnerLaneKeyGroups verifies the key is the only thing that
// groups lanes: equal keys share a group, and lanes without a key run
// alone even when every component is equal.
func TestBatchRunnerLaneKeyGroups(t *testing.T) {
	sys := fuelcell.PaperSystem()
	dev := device.Synthetic()
	tr := faultTrace(40)
	mk := func(key string) sim.Lane {
		return sim.Lane{Key: key, Cfg: sim.Config{
			Sys: sys, Dev: dev, Trace: tr,
			Store:  storage.MustSuperCap(6, 3),
			Policy: policy.NewConv(sys),
		}}
	}
	for _, tc := range []struct {
		name   string
		keys   []string
		groups int
	}{
		{"equal-keys", []string{"cell-abc", "cell-abc"}, 1},
		{"distinct-keys", []string{"cell-abc", "cell-def"}, 2},
		{"unkeyed-equal-components", []string{"", ""}, 2},
		{"keyed-and-unkeyed", []string{"cell-abc", "", "cell-abc", ""}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lanes := make([]sim.Lane, len(tc.keys))
			for i, k := range tc.keys {
				lanes[i] = mk(k)
			}
			if b := batchOracleCheck(t, lanes); b.Groups() != tc.groups {
				t.Fatalf("keys %q: got %d groups, want %d", tc.keys, b.Groups(), tc.groups)
			}
		})
	}
}

// TestBatchRunnerSharedCollaboratorRejected verifies one mutable policy
// object appearing in two executing groups is a construction error, not
// a silent corruption.
func TestBatchRunnerSharedCollaboratorRejected(t *testing.T) {
	sys := fuelcell.PaperSystem()
	dev := device.Synthetic()
	tr := faultTrace(40)
	shared := policy.NewFCDPM(sys, dev)
	lanes := []sim.Lane{
		{Cfg: sim.Config{Sys: sys, Dev: dev, Trace: tr,
			Store: storage.MustSuperCap(6, 3), Policy: shared}},
		{Cfg: sim.Config{Sys: sys, Dev: dev, Trace: tr,
			Store: storage.MustSuperCap(8, 4), Policy: shared}},
	}
	if _, err := sim.NewBatchRunner(lanes); err == nil {
		t.Fatal("want shared-collaborator error, got nil")
	}
}

// TestBatchRunnerMixedTraces: the lanes of a batch need not share a
// trace. Lanes over traces of different content and length each match
// their one-lane run, and equal keys still collapse across value-equal
// traces built separately.
func TestBatchRunnerMixedTraces(t *testing.T) {
	sys := fuelcell.PaperSystem()
	dev := device.Synthetic()
	mk := func(key string, tr *workload.Trace) sim.Lane {
		return sim.Lane{Key: key, Cfg: sim.Config{
			Sys: sys, Dev: dev, Trace: tr,
			Store: storage.MustSuperCap(6, 3), Policy: policy.NewFCDPM(sys, dev),
		}}
	}
	long := &workload.Trace{}
	for i := 0; i < 90; i++ {
		long.Slots = append(long.Slots, workload.Slot{Idle: 12 - float64(i%5), Active: 1 + float64(i%4), ActiveCurrent: 0.8})
	}
	lanes := []sim.Lane{
		mk("fault-40", faultTrace(40)),
		mk("long", long),
		mk("fault-7", faultTrace(7)),
		mk("fault-40", faultTrace(40)), // a value-equal copy: the same simulation
		mk("", faultTrace(40)),
	}
	b := batchOracleCheck(t, lanes)
	if b.Groups() != 4 {
		t.Fatalf("want 4 groups, got %d", b.Groups())
	}
	if b.GroupOf(0) != b.GroupOf(3) {
		t.Fatalf("equal keys over value-equal traces split into groups %d and %d", b.GroupOf(0), b.GroupOf(3))
	}
}

// TestBatchRunnerLaneMetrics: per-lane sim metrics are measured, not
// split. A keyed pair and a singleton each carry their own SimMetrics.
// The follower executed nothing and records its slots and fuel with zero
// wall time and zero memo lookups; each leader records its own walk, and
// its memo lookups are those its group makes when run alone.
func TestBatchRunnerLaneMetrics(t *testing.T) {
	sys := fuelcell.PaperSystem()
	dev := device.Synthetic()
	tr := faultTrace(60)
	mk := func(key string, cmax float64, m *obs.SimMetrics) sim.Lane {
		return sim.Lane{Key: key, Cfg: sim.Config{Sys: sys, Dev: dev, Trace: tr,
			Store: storage.MustSuperCap(cmax, cmax/2), Policy: policy.NewFCDPM(sys, dev), Metrics: m}}
	}
	newMetrics := func() *obs.SimMetrics { return obs.NewSimMetrics(obs.NewRegistry()) }
	lookups := func(m *obs.SimMetrics) float64 { return m.MemoHits.Value() + m.MemoMisses.Value() }
	ms := []*obs.SimMetrics{newMetrics(), newMetrics(), newMetrics()}
	lanes := []sim.Lane{mk("pair", 6, ms[0]), mk("pair", 6, ms[1]), mk("", 8, ms[2])}
	b, err := sim.NewBatchRunner(lanes)
	if err != nil {
		t.Fatalf("NewBatchRunner: %v", err)
	}
	if _, err := b.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, m := range ms {
		if m.Runs.Value() != 1 || m.Slots.Value() != float64(tr.Len()) || m.Fuel.Value() <= 0 {
			t.Fatalf("lane %d: runs %v slots %v fuel %v, want 1 run of %d slots", i,
				m.Runs.Value(), m.Slots.Value(), m.Fuel.Value(), tr.Len())
		}
	}
	if s := ms[1].RunSeconds.Sum(); s != 0 || lookups(ms[1]) != 0 {
		t.Fatalf("follower records %v s and %v memo lookups, want 0 and 0", s, lookups(ms[1]))
	}
	for _, tc := range []struct {
		lane int
		cmax float64
	}{{0, 6}, {2, 8}} {
		if s := ms[tc.lane].RunSeconds.Sum(); s <= 0 {
			t.Fatalf("leader lane %d records %v s, want > 0", tc.lane, s)
		}
		alone := newMetrics()
		if _, err := sim.Run(mk("", tc.cmax, alone).Cfg); err != nil {
			t.Fatal(err)
		}
		if got, want := lookups(ms[tc.lane]), lookups(alone); got != want || want == 0 {
			t.Fatalf("leader lane %d records %v memo lookups, its group alone makes %v", tc.lane, got, want)
		}
	}
}

// TestBatchRunnerLaneErrorIsolation verifies a failing lane carries its
// own error while its batchmates complete and still match sequential.
func TestBatchRunnerLaneErrorIsolation(t *testing.T) {
	sys := fuelcell.PaperSystem()
	dev := device.Synthetic()
	tr := faultTrace(60)
	good := func(p sim.Policy) sim.Lane {
		return sim.Lane{Cfg: sim.Config{Sys: sys, Dev: dev, Trace: tr,
			Store: storage.MustSuperCap(8, 4), Policy: p}}
	}
	bad := sim.Lane{Cfg: sim.Config{Sys: sys, Dev: dev, Trace: tr,
		Store:  brokenStore{SuperCap: storage.MustSuperCap(6, 3)},
		Policy: policy.NewConv(sys)}}
	lanes := []sim.Lane{good(policy.NewConv(sys)), bad, good(policy.NewFCDPM(sys, dev))}

	b, err := sim.NewBatchRunner(lanes)
	if err != nil {
		t.Fatalf("NewBatchRunner: %v", err)
	}
	got, batchErr := b.Run()
	if batchErr != nil {
		t.Fatalf("lane failures must not abort the batch: %v", batchErr)
	}
	var inv *sim.InvariantError
	if !errors.As(got[1].Err, &inv) {
		t.Fatalf("broken lane: want *sim.InvariantError, got %v", got[1].Err)
	}
	if got[1].Res != nil {
		t.Fatal("failed lane must carry a nil Result")
	}
	for _, i := range []int{0, 2} {
		if got[i].Err != nil {
			t.Fatalf("healthy lane %d errored: %v", i, got[i].Err)
		}
		want, seqErr := sim.Run(lanes[i].Cfg)
		if seqErr != nil {
			t.Fatalf("sequential lane %d: %v", i, seqErr)
		}
		assertResultEqual(t, labelLane(i, &lanes[i].Cfg), got[i].Res, want)
	}
}

// TestBatchRunnerCancel verifies cancellation lands on every lane as a
// typed error that unwraps to the context cause.
func TestBatchRunnerCancel(t *testing.T) {
	sys := fuelcell.PaperSystem()
	lanes := []sim.Lane{
		{Cfg: sim.Config{Sys: sys, Dev: device.Synthetic(), Trace: faultTrace(40),
			Store: storage.MustSuperCap(6, 3), Policy: policy.NewConv(sys)}},
		{Cfg: sim.Config{Sys: sys, Dev: device.Synthetic(), Trace: faultTrace(40),
			Store: storage.MustSuperCap(8, 4), Policy: policy.NewASAP(sys)}},
	}
	b, err := sim.NewBatchRunner(lanes)
	if err != nil {
		t.Fatalf("NewBatchRunner: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, batchErr := b.RunContext(ctx)
	if !errors.Is(batchErr, context.Canceled) {
		t.Fatalf("want context.Canceled batch error, got %v", batchErr)
	}
	for i := range got {
		var ce *sim.CanceledError
		if !errors.As(got[i].Err, &ce) || !errors.Is(got[i].Err, context.Canceled) {
			t.Fatalf("lane %d: want *sim.CanceledError wrapping Canceled, got %v", i, got[i].Err)
		}
	}

	// Cancel mid-walk: the context turns canceled after n slot checks, one
	// per slot, and the groups walk 40, 40 and 25 slots in turn. Groups
	// that finished keep their results, the running group and every later
	// one carry a *sim.CanceledError, and the runner stays reusable.
	lanes = append(lanes, sim.Lane{Cfg: sim.Config{Sys: sys, Dev: device.Synthetic(), Trace: faultTrace(25),
		Store: storage.MustSuperCap(6, 3), Policy: policy.NewFCDPM(sys, device.Synthetic())}})
	if b, err = sim.NewBatchRunner(lanes); err != nil {
		t.Fatalf("NewBatchRunner: %v", err)
	}
	for _, tc := range []struct{ n, done int }{{1, 0}, {39, 0}, {40, 1}, {57, 1}, {80, 2}, {105, 3}} {
		n := tc.n
		got, batchErr := b.RunContext(&countdownCtx{Context: context.Background(), n: n})
		done := 0
		for i := range got {
			var ce *sim.CanceledError
			if errors.As(got[i].Err, &ce) {
				if !errors.Is(ce, context.Canceled) {
					t.Fatalf("n=%d lane %d: %v does not wrap Canceled", n, i, ce)
				}
				continue
			}
			if got[i].Err != nil || i != done {
				t.Fatalf("n=%d lane %d: got %v after %d finished lanes", n, i, got[i].Err, done)
			}
			want, err := sim.Run(lanes[i].Cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertResultEqual(t, fmt.Sprintf("n=%d %s", n, labelLane(i, &lanes[i].Cfg)), got[i].Res, want)
			done++
		}
		if (done < len(lanes)) != errors.Is(batchErr, context.Canceled) {
			t.Fatalf("n=%d: %d of %d lanes finished, batch error %v", n, done, len(lanes), batchErr)
		}
		if done != tc.done {
			t.Fatalf("n=%d: %d lanes finished, want %d", n, done, tc.done)
		}
	}
	batchOracleCheck(t, lanes)
}

// countdownCtx is a context whose Err turns context.Canceled after n
// calls, so a test can cancel a walk at an exact slot.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestBatchRunnerReuse verifies a BatchRunner is reusable: the second
// run reuses every buffer — the full-recording leader's and the fuel-only
// member's projection — yet reproduces the first bit for bit.
func TestBatchRunnerReuse(t *testing.T) {
	sys := fuelcell.PaperSystem()
	dev := device.Synthetic()
	tr := faultTrace(60)
	lanes := []sim.Lane{
		{Key: "fcdpm-6", Cfg: sim.Config{Sys: sys, Dev: dev, Trace: tr,
			Store: storage.MustSuperCap(6, 3), Policy: policy.NewFCDPM(sys, dev),
			Record: sim.RecordFull}},
		{Key: "fcdpm-6", Cfg: sim.Config{Sys: sys, Dev: dev, Trace: tr,
			Store: storage.MustSuperCap(6, 3), Policy: policy.NewFCDPM(sys, dev),
			Record: sim.RecordFuelOnly}},
	}
	b, err := sim.NewBatchRunner(lanes)
	if err != nil {
		t.Fatalf("NewBatchRunner: %v", err)
	}
	if b.Groups() != 1 || b.GroupOf(0) != b.GroupOf(1) {
		t.Fatalf("two lanes with one key: %d groups (lane groups %d, %d), want 1 shared",
			b.Groups(), b.GroupOf(0), b.GroupOf(1))
	}
	first, err := b.Run()
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	snap := make([]sim.Result, len(first))
	for i := range first {
		snap[i] = cloneResult(first[i].Res)
	}
	second, err := b.Run()
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	for i := range second {
		assertResultEqual(t, labelLane(i, &lanes[i].Cfg), second[i].Res, &snap[i])
	}
	// A fuel-only lane's projection must not leak its group leader's
	// richer recording.
	if len(second[1].Res.Profile) != 0 || len(second[1].Res.SlotLog) != 0 {
		t.Fatalf("fuel-only lane kept history: %d profile, %d slots",
			len(second[1].Res.Profile), len(second[1].Res.SlotLog))
	}
	if len(second[0].Res.Profile) == 0 || len(second[0].Res.SlotLog) == 0 {
		t.Fatal("full-record lane lost history")
	}
}

// cloneResult deep-copies a result out of the runner's reusable buffers.
func cloneResult(r *sim.Result) sim.Result {
	c := *r
	c.FuelByKind = make(map[sim.SegmentKind]float64, len(r.FuelByKind))
	for k, v := range r.FuelByKind {
		c.FuelByKind[k] = v
	}
	c.Events = append([]sim.RunEvent(nil), r.Events...)
	c.Profile = append([]sim.ProfilePoint(nil), r.Profile...)
	c.Charges = append([]sim.ChargePoint(nil), r.Charges...)
	c.SlotLog = append([]sim.SlotRecord(nil), r.SlotLog...)
	return c
}
