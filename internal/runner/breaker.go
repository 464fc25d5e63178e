package runner

import (
	"sync"
	"time"
)

// Breaker defaults.
const (
	// DefaultBreakerThreshold is the consecutive-failure count that opens
	// a scenario's breaker.
	DefaultBreakerThreshold = 3
	// DefaultBreakerCooldown is how long an open breaker rejects tasks
	// before letting one probe through (half-open).
	DefaultBreakerCooldown = 30 * time.Second
)

// breakerState is the classic three-state circuit-breaker machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String names the state for reports.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker tracks one scenario's health. A scenario that fails Threshold
// times in a row stops consuming workers: its breaker opens and further
// tasks are rejected immediately (ErrBreakerOpen) until the cooldown
// elapses, after which exactly one probe task is admitted (half-open). A
// probe success closes the breaker; a probe failure re-opens it for
// another cooldown.
type breaker struct {
	mu        sync.Mutex
	state     breakerState
	failures  int // consecutive failures while closed
	openedAt  time.Time
	threshold int
	clock     Clock
	// onChange, when set, observes every state transition. It is called
	// outside the breaker lock and must be concurrency-safe.
	onChange func(from, to breakerState)
	// holders counts the pool's tasks holding the breaker; the pool's
	// lock guards it.
	holders int
}

func newBreaker(threshold int, clock Clock) *breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	return &breaker{threshold: threshold, clock: clock}
}

// admit reports whether a task may run now. When the cooldown of an open
// breaker has elapsed, the calling task is admitted as the half-open
// probe (at most one until it resolves).
func (b *breaker) admit() bool {
	b.mu.Lock()
	from, admitted := b.state, false
	switch b.state {
	case breakerClosed:
		admitted = true
	case breakerOpen:
		if b.clock.Now().Sub(b.openedAt) >= DefaultBreakerCooldown {
			b.state = breakerHalfOpen
			admitted = true
		}
	default: // half-open: a probe is already in flight
	}
	to := b.state
	b.mu.Unlock()
	b.notify(from, to)
	return admitted
}

// success records a completed task and closes the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	from := b.state
	b.state = breakerClosed
	b.failures = 0
	b.mu.Unlock()
	b.notify(from, breakerClosed)
}

// failure records a failed task, opening the breaker at the threshold or
// re-opening it after a failed half-open probe.
func (b *breaker) failure() {
	b.mu.Lock()
	from := b.state
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = b.clock.Now()
	default:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.clock.Now()
		}
	}
	to := b.state
	b.mu.Unlock()
	b.notify(from, to)
}

// notify fires the transition hook when the state actually changed.
func (b *breaker) notify(from, to breakerState) {
	if b.onChange != nil && from != to {
		b.onChange(from, to)
	}
}

// pristine reports whether the breaker is in its initial state: closed
// with no failures counted.
func (b *breaker) pristine() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerClosed && b.failures == 0
}

// snapshot returns the state for reporting.
func (b *breaker) snapshot() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
