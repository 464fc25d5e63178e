package sim_test

import (
	"reflect"
	"strings"
	"testing"

	"fcdpm/internal/fault"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/policy"
	"fcdpm/internal/sim"
	"fcdpm/internal/storage"
)

// TestFallbackExhaustion drives the supervisor past the end of its
// degradation chain: a storage model that keeps violating the charge
// invariant forces a fallback to load-shed, and the next violation finds
// no further stage. The run must log the exhaustion instead of erroring
// or looping.
func TestFallbackExhaustion(t *testing.T) {
	sys := fuelcell.PaperSystem()
	// An empty schedule arms the supervisor without injecting a fault.
	cfg := faultConfig(&fault.Schedule{})
	cfg.Policy = policy.NewConv(sys)
	cfg.Fallbacks = nil // chain is just [conv, load-shed]
	cfg.Store = brokenStore{SuperCap: storage.MustSuperCap(6, 3)}

	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("supervised run must absorb invariant violations: %v", err)
	}
	if res.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want exactly 1 (conv -> load-shed)", res.Fallbacks)
	}
	if res.FinalPolicy != "load-shed" {
		t.Fatalf("final policy = %q, want load-shed", res.FinalPolicy)
	}
	var exhausted int
	for _, e := range res.Events {
		if e.Kind == sim.EventInvariant && strings.Contains(e.Detail, "no further fallback") {
			exhausted++
		}
	}
	if exhausted == 0 {
		t.Fatalf("exhaustion never logged; events: %+v", res.Events)
	}
}

// TestFallbackExhaustionBadPlan covers the other exhaustion path: when
// the last-resort stage itself returns an invalid plan, the simulator
// rides the segment out at zero output instead of looping on replans.
func TestFallbackExhaustionBadPlan(t *testing.T) {
	sys := fuelcell.PaperSystem()
	cfg := faultConfig(&fault.Schedule{})
	// The primary policy misplans every segment and there are no
	// fallbacks, so the chain lands on load-shed after one trip; further
	// segments plan fine, but make the store force another trip too.
	cfg.Policy = badPolicy{Policy: policy.NewConv(sys)}
	cfg.Fallbacks = nil

	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("supervised run must absorb the bad plan: %v", err)
	}
	if res.FinalPolicy != "load-shed" {
		t.Fatalf("final policy = %q, want load-shed", res.FinalPolicy)
	}
	if res.Duration <= 0 || res.Slots == 0 {
		t.Fatalf("run did not cover the trace: %+v", res)
	}
}

// TestFaultOnSegmentBoundary places a fault transition exactly on a slot
// boundary (slot 0 is idle 4 s + active 2 s, so t = 6 s starts slot 1)
// and checks the transitions land in the event log at exactly those
// times, once each, with the run deterministic.
func TestFaultOnSegmentBoundary(t *testing.T) {
	sched := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.StackDropout, Start: 6, Dur: 6}, // [6 s, 12 s): exactly slots 1..
	}}
	run := func() *sim.Result {
		res, err := sim.Run(faultConfig(sched))
		if err != nil {
			t.Fatalf("boundary fault run failed: %v", err)
		}
		return res
	}
	res := run()
	var starts, ends []float64
	for _, e := range res.Events {
		switch e.Kind {
		case sim.EventFaultStart:
			starts = append(starts, e.T)
		case sim.EventFaultEnd:
			ends = append(ends, e.T)
		}
	}
	if len(starts) != 1 || starts[0] != 6 {
		t.Fatalf("fault-start events = %v, want exactly [6]", starts)
	}
	if len(ends) != 1 || ends[0] != 12 {
		t.Fatalf("fault-end events = %v, want exactly [12]", ends)
	}
	if again := run(); !reflect.DeepEqual(res, again) {
		t.Fatalf("boundary fault run nondeterministic:\n%+v\nvs\n%+v", res, again)
	}

	// A zero-length window starting on the boundary must still produce a
	// start transition (permanent fault) without breaking the run.
	permanent := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.StackDropout, Start: 6, Dur: 0},
	}}
	res2, err := sim.Run(faultConfig(permanent))
	if err != nil {
		t.Fatal(err)
	}
	if res2.FinalPolicy != "load-shed" {
		t.Fatalf("permanent boundary dropout should exhaust the chain, ended on %s", res2.FinalPolicy)
	}
}
