package exp

import (
	"context"
	"errors"
	"testing"
	"time"

	"fcdpm/internal/runner"
)

// Regression: the sweep fan-out used to hardcode context.Background(), so
// a sweep launched under a canceled (or server-request) context ran every
// cell to completion unobserved. A pre-canceled context must now abort the
// sweep with a cancellation error instead of returning rows.
func TestSweepHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	rows, err := BetaSweep(ctx, 1)
	elapsed := time.Since(start)

	if err == nil {
		t.Fatalf("BetaSweep(canceled) = %d rows, nil error; want cancellation", len(rows))
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, runner.ErrInterrupted) {
		t.Fatalf("BetaSweep(canceled) error = %v; want context.Canceled or ErrInterrupted", err)
	}
	// "Promptly" here just means it did not simulate the whole sweep: a full
	// six-point sweep takes seconds, aborting takes milliseconds.
	if elapsed > 5*time.Second {
		t.Fatalf("canceled sweep still took %s", elapsed)
	}
}

// Compare must propagate cancellation when it runs outside the run
// engine, as a single batch walk.
func TestCompareCanceled(t *testing.T) {
	sc, err := Experiment1Scenario(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sc.Compare(ctx, sc.Policies()[:1]); err == nil {
		t.Fatal("Compare(canceled) returned nil error")
	}
}
