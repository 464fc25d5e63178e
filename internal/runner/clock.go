package runner

import (
	"context"
	"time"
)

// Clock abstracts time so breaker cooldowns and the sweep worker's
// polling backoff are testable with a deterministic fake. The zero Options gets the real
// clock.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// WallClock is the real time source, exported so other daemons (the
// sweep worker's heartbeat loop) default to it while staying injectable.
var WallClock Clock = realClock{}

// realClock is the wall-clock implementation.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
