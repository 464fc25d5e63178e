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
// identity, and — when the run panicked — the recovered value and its
// stack. A panicking run never takes down sibling workers; it surfaces
// as a *RunError with a non-empty Stack.
type RunError struct {
	ID  string
	Err error
	// PanicValue and Stack are set when the task panicked.
	PanicValue any
	Stack      string
}

// Error implements error.
func (e *RunError) Error() string {
	if e.Stack != "" {
		return fmt.Sprintf("runner: task %s panicked: %v", e.ID, e.PanicValue)
	}
	return fmt.Sprintf("runner: task %s failed: %v", e.ID, e.Err)
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
