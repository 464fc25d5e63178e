package chaos

import (
	"context"
	"time"
)

// Clock is a runner.Clock that runs at Rate relative to the wall
// clock: 1.0 is true time, 0.7 is a clock 30% slow. A slow worker
// clock stretches its heartbeat cadence in real terms, which is
// exactly the lease-TTL skew the dispatcher's skew grace must tolerate:
// at the TTL/3 heartbeat cadence and a grace of TTL/3, any rate above
// 0.25 must never lose a lease to skew alone.
type Clock struct {
	base time.Time
	rate float64
}

// NewClock anchors a skewed clock at the current instant.
func NewClock(rate float64) *Clock {
	if rate <= 0 {
		rate = 1
	}
	return &Clock{base: time.Now(), rate: rate}
}

// Now returns the skewed time: base + elapsed·rate.
func (c *Clock) Now() time.Time {
	return c.base.Add(time.Duration(float64(time.Since(c.base)) * c.rate))
}

// Sleep blocks until d has passed on this clock (d/rate of real time)
// or ctx is done.
func (c *Clock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(time.Duration(float64(d) / c.rate))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
