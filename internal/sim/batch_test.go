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

// randomLane draws one scenario variant: system (one of systems),
// policy family, storage size, predictors, DPM mode, record level, slew
// rate, faults, and fallback chain all vary. Shared pointers (systems,
// dev, schedules) are the same objects across lanes, exactly as sweep
// and server consumers build them. The lane's key names every draw but
// the record level, so two lanes with equal keys are the same
// simulation, whatever each records.
func randomLane(t *testing.T, rng *rand.Rand, systems []*fuelcell.System, dev *device.Model,
	tr *workload.Trace, scheds []*fault.Schedule) sim.Lane {
	t.Helper()
	var key strings.Builder
	draw := func(n int) int {
		v := rng.Intn(n)
		fmt.Fprintf(&key, "%d.", v)
		return v
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
// trace, on short racksurge, bursty and heavytail traces, and on
// multistack racks (K ∈ {2, 4}, every allocator, healthy and degraded),
// including lanes spread over two equal-content racks built separately.
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
	check := func(t *testing.T, seed int64, rounds int, systems []*fuelcell.System, tr *workload.Trace) {
		t.Helper()
		for round := 0; round < rounds; round++ {
			rng := rand.New(rand.NewSource(seed + int64(round)))
			lanes := make([]sim.Lane, 1+rng.Intn(8))
			seeds := make([]int64, len(lanes))
			for i := range lanes {
				seeds[i] = rng.Int63()
				lanes[i] = randomLane(t, rand.New(rand.NewSource(seeds[i])), systems, dev, tr, scheds)
			}
			j := rng.Intn(len(lanes))
			twin := randomLane(t, rand.New(rand.NewSource(seeds[j])), systems, dev, tr, scheds)
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
	for _, tc := range []struct {
		name string
		tr   *workload.Trace
	}{
		{"racksurge", surge},
		{"bursty", mustTrace(workload.Bursty(burstyCfg))},
		{"heavytail", mustTrace(workload.HeavyTail(heavyCfg))},
	} {
		t.Run(tc.name, func(t *testing.T) { check(t, 2000, 4, paper, tc.tr) })
	}

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

// TestBatchRunnerTraceRules: all lanes must walk one trace — pointer
// identity is not required, slot-for-slot equality is.
func TestBatchRunnerTraceRules(t *testing.T) {
	sys := fuelcell.PaperSystem()
	dev := device.Synthetic()
	mk := func(tr *workload.Trace) sim.Lane {
		return sim.Lane{Key: "conv-6", Cfg: sim.Config{
			Sys: sys, Dev: dev, Trace: tr,
			Store: storage.MustSuperCap(6, 3), Policy: policy.NewConv(sys),
		}}
	}
	if _, err := sim.NewBatchRunner([]sim.Lane{mk(faultTrace(40)), mk(faultTrace(41))}); err == nil {
		t.Fatal("want trace-mismatch error, got nil")
	}
	// A value-equal copy is the same walk.
	b, err := sim.NewBatchRunner([]sim.Lane{mk(faultTrace(40)), mk(faultTrace(40))})
	if err != nil {
		t.Fatalf("value-equal traces rejected: %v", err)
	}
	if b.Groups() != 1 {
		t.Fatalf("want 1 group across value-equal traces, got %d", b.Groups())
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
