package sim_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"fcdpm/internal/device"
	"fcdpm/internal/fault"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/policy"
	"fcdpm/internal/sim"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

// faultTrace builds a deterministic synthetic trace long enough for
// mid-run faults.
func faultTrace(slots int) *workload.Trace {
	tr := &workload.Trace{}
	for i := 0; i < slots; i++ {
		idle := 4.0 + float64(i%7)
		active := 2.0 + float64(i%3)
		tr.Slots = append(tr.Slots, workload.Slot{Idle: idle, Active: active, ActiveCurrent: 1.0})
	}
	return tr
}

// faultConfig assembles a supervised run with the standard fallback chain
// FC-DPM -> ASAP -> Conv (+ implicit load-shed).
func faultConfig(sched *fault.Schedule) sim.Config {
	sys := fuelcell.PaperSystem()
	dev := device.Synthetic()
	return sim.Config{
		Sys:    sys,
		Dev:    dev,
		Store:  storage.MustSuperCap(6, 3),
		Trace:  faultTrace(60),
		Policy: policy.NewFCDPM(sys, dev),
		Fallbacks: []sim.Policy{
			policy.NewASAP(sys),
			policy.NewConv(sys),
		},
		Faults:    sched,
		FaultSeed: 17,
	}
}

// TestStackDropoutGracefulDegradation is the issue's acceptance scenario:
// a seeded run with a mid-trace FC stack dropout completes without panic,
// logs the fault and fallback events, and finishes on a fallback policy.
func TestStackDropoutGracefulDegradation(t *testing.T) {
	sched := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.StackDropout, Start: 120, Dur: 80},
	}}
	res, err := sim.Run(faultConfig(sched))
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	var sawStart, sawEnd, sawFallback bool
	for _, e := range res.Events {
		switch e.Kind {
		case sim.EventFaultStart:
			sawStart = true
		case sim.EventFaultEnd:
			sawEnd = true
		case sim.EventFallback:
			sawFallback = true
		}
	}
	if !sawStart || !sawEnd {
		t.Fatalf("fault transitions missing from event log: %+v", res.Events)
	}
	if !sawFallback || res.Fallbacks == 0 {
		t.Fatalf("dropout starved the buffer but no fallback fired: %+v", res.Events)
	}
	if res.FinalPolicy == res.Policy {
		t.Fatalf("run should finish on a fallback policy, still on %s", res.FinalPolicy)
	}
	if math.IsNaN(res.Fuel) || math.IsInf(res.Fuel, 0) || res.Fuel <= 0 {
		t.Fatalf("bad fuel total %v", res.Fuel)
	}
	if res.Deficit+res.Shed <= 0 {
		t.Fatal("an 80 s total dropout must cost unmet or shed load")
	}
}

// TestFaultRunDeterministic re-runs the acceptance scenario and demands a
// byte-identical Result, including the event log and noise-perturbed
// trajectories.
func TestFaultRunDeterministic(t *testing.T) {
	sched := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.StackDropout, Start: 120, Dur: 80},
		{Kind: fault.SensorNoise, Start: 30, Dur: 200, Magnitude: 0.4},
		{Kind: fault.CapacityFade, Start: 40, Dur: 0, Magnitude: 0.3},
		{Kind: fault.EfficiencyDegrade, Start: 50, Dur: 100, Magnitude: 0.3},
		{Kind: fault.LoadSurge, Start: 90, Dur: 40, Magnitude: 1.8},
	}}
	a, err := sim.Run(faultConfig(sched))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(faultConfig(sched))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different results:\n%+v\nvs\n%+v", a, b)
	}
	if a.LostCharge <= 0 {
		t.Fatalf("capacity fade to 0.3 with a charged buffer must destroy charge, got %v", a.LostCharge)
	}
}

// TestEfficiencyDegradeInflatesFuel compares fuel with and without a
// permanent efficiency-degradation fault.
func TestEfficiencyDegradeInflatesFuel(t *testing.T) {
	base, err := sim.Run(faultConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := sim.Run(faultConfig(&fault.Schedule{Events: []fault.Event{
		{Kind: fault.EfficiencyDegrade, Start: 0, Dur: 0, Magnitude: 0.25},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	want := base.Fuel / (1 - 0.25)
	if math.Abs(degraded.Fuel-want) > 1e-6*want {
		t.Fatalf("degraded fuel %v, want %v (base %v scaled by 1/0.75)", degraded.Fuel, want, base.Fuel)
	}
}

// TestNominalFaultPathMatchesPlain guards the exactness claim: an empty
// schedule (injector disabled) and a schedule with no events must not
// perturb results relative to a plain run.
func TestNominalFaultPathMatchesPlain(t *testing.T) {
	plainCfg := faultConfig(nil)
	plainCfg.Fallbacks = nil
	plain, err := sim.Run(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	withChain, err := sim.Run(faultConfig(&fault.Schedule{}))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fuel != withChain.Fuel || plain.FinalCharge != withChain.FinalCharge ||
		plain.Deficit != withChain.Deficit || plain.Bled != withChain.Bled {
		t.Fatalf("supervision without faults changed physics: %+v vs %+v", plain, withChain)
	}
	if withChain.Fallbacks != 0 || len(withChain.Events) != 0 {
		t.Fatalf("spurious supervisor activity: %+v", withChain.Events)
	}
}

// TestChargeBalanceInvariantAlwaysOn verifies the watchdog's charge
// invariant fires as a typed error in unsupervised runs when a broken
// storage model leaks charge out of range.
func TestChargeBalanceInvariantAlwaysOn(t *testing.T) {
	cfg := faultConfig(nil)
	cfg.Fallbacks = nil
	cfg.Store = brokenStore{SuperCap: storage.MustSuperCap(6, 3)}
	_, err := sim.Run(cfg)
	var inv *sim.InvariantError
	if !errors.As(err, &inv) {
		t.Fatalf("want *sim.InvariantError, got %v", err)
	}
	if inv.Check != "charge-balance" {
		t.Fatalf("want charge-balance violation, got %q: %v", inv.Check, inv)
	}
}

// brokenStore violates the storage contract by reporting a charge above
// capacity.
type brokenStore struct{ *storage.SuperCap }

func (b brokenStore) Charge() float64 { return b.Capacity() + 1 }
func (b brokenStore) Clone() storage.Storage {
	return brokenStore{SuperCap: b.SuperCap.Clone().(*storage.SuperCap)}
}

// badPolicy returns pieces that do not tile the segment.
type badPolicy struct{ sim.Policy }

func (badPolicy) Name() string { return "bad" }
func (badPolicy) SegmentPlan(seg sim.Segment, charge float64, buf []sim.Piece) []sim.Piece {
	return append(buf, sim.Piece{IF: 0.5, Dur: seg.Dur / 2})
}

// TestBadPlanFallsBack verifies a policy returning an invalid plan trips
// the supervisor, which replans the same segment with the next stage.
func TestBadPlanFallsBack(t *testing.T) {
	sys := fuelcell.PaperSystem()
	cfg := faultConfig(&fault.Schedule{})
	cfg.Policy = badPolicy{Policy: policy.NewConv(sys)}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("supervised run must absorb the bad plan: %v", err)
	}
	if res.Fallbacks == 0 || res.FinalPolicy == "bad" {
		t.Fatalf("expected fallback away from bad policy: %+v", res)
	}
	// Unsupervised, the same plan is a typed error.
	cfg.Faults = nil
	cfg.Fallbacks = nil
	_, err = sim.Run(cfg)
	var inv *sim.InvariantError
	if !errors.As(err, &inv) || inv.Check != "piece" {
		t.Fatalf("want piece invariant error, got %v", err)
	}
}

// TestRunContextCancel verifies cancellation stops the run with a typed
// error that unwraps to the context cause.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sim.RunContext(ctx, faultConfig(nil))
	var ce *sim.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("want *sim.CanceledError, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation cause lost: %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	time.Sleep(time.Millisecond)
	if _, err := sim.RunContext(ctx2, faultConfig(nil)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
}

// TestLoadShedLastResort drives the whole chain into load-shed with a
// permanent dropout and checks unmet load is reclassified as Shed.
func TestLoadShedLastResort(t *testing.T) {
	res, err := sim.Run(faultConfig(&fault.Schedule{Events: []fault.Event{
		{Kind: fault.StackDropout, Start: 10, Dur: 0}, // permanent
	}}))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalPolicy != "load-shed" {
		t.Fatalf("permanent dropout should exhaust the chain, ended on %s", res.FinalPolicy)
	}
	if res.Shed <= 0 {
		t.Fatalf("load-shed stage must record shed charge, got %v", res.Shed)
	}
	if want := 3; res.Fallbacks != want {
		t.Fatalf("fallbacks = %d, want %d (fcdpm->asap->conv->load-shed)", res.Fallbacks, want)
	}
}
