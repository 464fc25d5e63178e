package runner

import (
	"errors"
	"fmt"
)

// Sentinel errors surfaced by the engine. They are returned wrapped, so
// callers must test with errors.Is.
var (
	// ErrInterrupted marks a batch stopped before every task resolved
	// (context cancellation — typically SIGTERM/Ctrl-C). With a journal
	// configured the batch is resumable: re-invoking the same task set
	// skips the completed work.
	ErrInterrupted = errors.New("runner: batch interrupted before completion")
	// ErrShed is returned by Submit when the admission queue is full and
	// load shedding is enabled.
	ErrShed = errors.New("runner: task shed, admission queue full")
	// ErrBreakerOpen marks a task skipped because its scenario's circuit
	// breaker was open.
	ErrBreakerOpen = errors.New("runner: circuit breaker open")
	// ErrClosed is returned by Submit after Drain has been called.
	ErrClosed = errors.New("runner: pool closed")
)

// RunError is the typed failure of one task: the wrapped cause, the task
// identity, how many attempts were made, and — when the run panicked —
// the recovered value and its stack. A panicking run never takes down
// sibling workers; it surfaces as a *RunError with a non-empty Stack.
type RunError struct {
	ID       string
	Scenario string
	Attempts int
	Err      error
	// PanicValue and Stack are set when the task panicked.
	PanicValue any
	Stack      string
}

// Error implements error.
func (e *RunError) Error() string {
	if e.Stack != "" {
		return fmt.Sprintf("runner: task %s panicked after %d attempt(s): %v", e.ID, e.Attempts, e.PanicValue)
	}
	return fmt.Sprintf("runner: task %s failed after %d attempt(s): %v", e.ID, e.Attempts, e.Err)
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *RunError) Unwrap() error { return e.Err }

// Format implements fmt.Formatter so %+v appends the captured panic
// stack, which plain %v omits.
func (e *RunError) Format(f fmt.State, verb rune) {
	switch {
	case verb == 'v' && f.Flag('+') && e.Stack != "":
		fmt.Fprintf(f, "%s\n%s", e.Error(), e.Stack)
	case verb == 's' || verb == 'v':
		fmt.Fprint(f, e.Error())
	default:
		fmt.Fprintf(f, "%%!%c(*runner.RunError=%s)", verb, e.Error())
	}
}

// Retryable reports whether the engine should re-attempt a failed task:
// anything implementing Retryable() bool, plus per-attempt deadline
// expiries (a hung run may succeed on a retry). Panics and
// parent-context cancellations are never retryable.
func Retryable(err error) bool {
	var rt interface{ Retryable() bool }
	if errors.As(err, &rt) {
		return rt.Retryable()
	}
	var at *attemptTimeoutError
	return errors.As(err, &at)
}

// attemptTimeoutError marks one attempt exceeding Options.Timeout,
// distinguishing it from a parent-context cancellation (which must stop
// the batch, not trigger a retry).
type attemptTimeoutError struct {
	id      string
	timeout float64 // seconds
	err     error
}

func (e *attemptTimeoutError) Error() string {
	return fmt.Sprintf("runner: task %s exceeded the %.3gs attempt deadline: %v", e.id, e.timeout, e.err)
}

func (e *attemptTimeoutError) Unwrap() error { return e.err }
