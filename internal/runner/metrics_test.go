package runner

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fcdpm/internal/obs"
)

// TestPoolMetricsCounters checks the obs wiring end to end: admission,
// resolution by status, and queue depth returning to zero.
func TestPoolMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.NewPoolMetrics(reg)
	opts := testOpts()
	opts.Metrics = m

	tasks := []Task[int]{
		{ID: "ok", Run: func(context.Context) (int, error) { return 1, nil }},
		{ID: "ok2", Run: func(context.Context) (int, error) { return 2, nil }},
		{ID: "dead", Run: func(context.Context) (int, error) {
			return 0, errors.New("always")
		}},
	}
	rep, err := Run(context.Background(), opts, tasks)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Done != 2 || rep.Failed != 1 {
		t.Fatalf("report = %+v, want 2 done 1 failed", rep)
	}
	if got := m.Submitted.Value(); got != 3 {
		t.Errorf("submitted = %v, want 3", got)
	}
	if got := m.Done.Value(); got != 2 {
		t.Errorf("done = %v, want 2", got)
	}
	if got := m.Failed.Value(); got != 1 {
		t.Errorf("failed = %v, want 1", got)
	}
	if got := m.QueueDepth.Value(); got != 0 {
		t.Errorf("queue depth after drain = %v, want 0", got)
	}
}

// TestPoolMetricsBreakerTransitions checks that breaker trips and
// recoveries reach the counters.
func TestPoolMetricsBreakerTransitions(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.NewPoolMetrics(reg)
	clk := newFakeClock()
	p, err := NewPool[int](context.Background(), Options{
		Workers: 1, BreakerThreshold: 2,
		Clock: clk, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	fail := func(context.Context) (int, error) { return 0, errors.New("down") }
	for i := 0; i < 3; i++ {
		if err := p.Submit(Task[int]{ID: fmt.Sprintf("t%d", i), Scenario: "sc", Run: fail}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := m.BreakerOpens.Value(); got != 1 {
		t.Errorf("breaker opens = %v, want 1", got)
	}
	if got := m.BreakerSkipped.Value(); got != 1 {
		t.Errorf("breaker skipped = %v, want 1", got)
	}
	if got := m.BreakerCloses.Value(); got != 0 {
		t.Errorf("breaker closes = %v, want 0 before recovery", got)
	}
	// Current-state gauges and the snapshot agree: one breaker, open.
	if got := m.BreakersOpen.Value(); got != 1 {
		t.Errorf("breakers open gauge = %v, want 1", got)
	}
	if got := m.BreakersHalfOpen.Value(); got != 0 {
		t.Errorf("breakers half-open gauge = %v, want 0", got)
	}
	if states := breakerStates(p); states["sc"] != "open" {
		t.Errorf("breaker states = %v, want sc open", states)
	}
}
