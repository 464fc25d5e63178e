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
	rows, err := BetaSweep(ctx, 1, []float64{0, 0.05, 0.13, 0.25})
	elapsed := time.Since(start)

	if err == nil {
		t.Fatalf("BetaSweep(canceled) = %d rows, nil error; want cancellation", len(rows))
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, runner.ErrInterrupted) {
		t.Fatalf("BetaSweep(canceled) error = %v; want context.Canceled or ErrInterrupted", err)
	}
	// "Promptly" here just means it did not simulate the whole sweep: a full
	// four-point sweep takes seconds, aborting takes milliseconds.
	if elapsed > 5*time.Second {
		t.Fatalf("canceled sweep still took %s", elapsed)
	}
}

// CompareContext must propagate cancellation on the serial path too (the
// timeout-adapter path bypasses the run engine).
func TestCompareContextCanceledSerial(t *testing.T) {
	sc, err := Experiment1Scenario(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sc.CompareContext(ctx, sc.Policies()[:1]); err == nil {
		t.Fatal("CompareContext(canceled) on the serial path returned nil error")
	}
}
