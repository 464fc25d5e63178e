package runner

import (
	"testing"
	"time"
)

func TestBreakerStateMachine(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(3, clk)

	if b.snapshot() != breakerClosed || !b.admit() {
		t.Fatal("new breaker should be closed and admitting")
	}
	// Two failures: still closed.
	b.failure()
	b.failure()
	if b.snapshot() != breakerClosed {
		t.Fatalf("state after 2 failures = %s, want closed", b.snapshot())
	}
	// A success resets the consecutive count.
	b.success()
	b.failure()
	b.failure()
	if b.snapshot() != breakerClosed {
		t.Fatal("success did not reset the failure count")
	}
	// Third consecutive failure opens it.
	b.failure()
	if b.snapshot() != breakerOpen {
		t.Fatalf("state at threshold = %s, want open", b.snapshot())
	}
	if b.admit() {
		t.Fatal("open breaker admitted a task before cooldown")
	}

	// Cooldown elapses: exactly one probe admitted (half-open).
	clk.advance(2 * time.Minute)
	if !b.admit() {
		t.Fatal("cooldown elapsed but probe rejected")
	}
	if b.snapshot() != breakerHalfOpen {
		t.Fatalf("state after probe admission = %s, want half-open", b.snapshot())
	}
	if b.admit() {
		t.Fatal("half-open breaker admitted a second task while the probe is in flight")
	}

	// Probe fails: re-open for another cooldown.
	b.failure()
	if b.snapshot() != breakerOpen || b.admit() {
		t.Fatal("failed probe should re-open the breaker")
	}

	// Next probe succeeds: closed again.
	clk.advance(2 * time.Minute)
	if !b.admit() {
		t.Fatal("second probe rejected")
	}
	b.success()
	if b.snapshot() != breakerClosed || !b.admit() {
		t.Fatal("successful probe should close the breaker")
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := newBreaker(0, newFakeClock())
	if b.threshold != DefaultBreakerThreshold {
		t.Errorf("default threshold = %d, want %d", b.threshold, DefaultBreakerThreshold)
	}
}

func TestBreakerStateString(t *testing.T) {
	for state, want := range map[breakerState]string{
		breakerClosed: "closed", breakerOpen: "open", breakerHalfOpen: "half-open",
	} {
		if got := state.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", state, got, want)
		}
	}
}
