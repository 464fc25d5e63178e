// Package runner is the resilient run-orchestration engine behind every
// batch entry point (fault sweeps, ablations, scenario batches, figure
// generation): a bounded worker pool that runs each task once under an
// optional deadline, with panic isolation, per-scenario circuit
// breakers, bounded admission with explicit load shedding, graceful
// drain on cancellation, and a crash-safe checkpoint journal keyed by
// deterministic run IDs so an interrupted sweep resumes instead of
// restarting.
//
// The simulator (internal/sim) makes a *single* run survive injected
// faults; this package applies the same rigor one layer up, around the
// fleet of runs: one panicking or hanging run never takes down its
// siblings, a systematically broken scenario stops consuming workers,
// and a SIGTERM mid-batch loses no completed work.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"fcdpm/internal/obs"
)

// Options tunes the engine. The zero value is a sensible default:
// GOMAXPROCS workers, no per-run deadline, blocking admission, breakers
// at 3 consecutive failures, no journal. Every task runs once: a run is
// a deterministic function of its inputs, so running it again would
// repeat the failure.
type Options struct {
	// Workers bounds concurrent runs (default: GOMAXPROCS).
	Workers int
	// Timeout is the per-task deadline; 0 means none. A task that
	// exceeds it fails with an error naming the deadline — the run
	// function must honor its context for the worker to come back.
	Timeout time.Duration
	// Queue bounds the admission queue (default: 2×Workers).
	Queue int
	// ShedOverflow makes Submit reject (ErrShed) instead of block when
	// the queue is full — explicit load shedding for callers that would
	// rather drop work than build unbounded backlog.
	ShedOverflow bool
	// BreakerThreshold opens a scenario's circuit breaker after that many
	// consecutive task failures (default 3) for DefaultBreakerCooldown;
	// negative disables breakers.
	BreakerThreshold int
	// Journal, when non-empty, checkpoints every completed run to this
	// JSONL file and skips already-journaled IDs on submit — crash-safe
	// resume for interrupted sweeps.
	Journal string
	// OnEvent, when set, observes the task lifecycle: one PhaseStart
	// notification when a task begins executing and one PhaseResolve per
	// task. Callbacks run synchronously on worker (and submitter)
	// goroutines — they must be fast, concurrency-safe, and must not call
	// back into the pool.
	OnEvent func(TaskEvent)
	// StreamOutcomes drops per-task outcome retention: Drain's report
	// carries only the counters, and results reach the caller through the
	// task functions and OnEvent. Long-lived pools (services) need this —
	// an outcome slice that only grows is a leak when the pool never
	// drains.
	StreamOutcomes bool
	// Clock substitutes a fake time source in tests.
	Clock Clock
	// Metrics, when non-nil, receives the pool's admission, resolution,
	// queue-depth, and breaker-transition activity. Recording is
	// a few atomic adds per task; nil disables instrumentation entirely.
	Metrics *obs.PoolMetrics
}

// EventPhase classifies an OnEvent notification.
type EventPhase string

// Lifecycle phases.
const (
	// PhaseStart: the task is about to execute.
	PhaseStart EventPhase = "start"
	// PhaseResolve: the task reached its final status.
	PhaseResolve EventPhase = "resolve"
)

// TaskEvent is one lifecycle notification delivered to Options.OnEvent.
type TaskEvent struct {
	// ID identifies the task.
	ID string
	// Phase is PhaseStart or PhaseResolve.
	Phase EventPhase
	// Status is the final status; set only on resolve events.
	Status Status
	// Err is the failure cause on failed/shed/interrupted resolutions.
	Err error
}

// withDefaults resolves the zero-value fields.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Queue <= 0 {
		o.Queue = 2 * o.Workers
	}
	if o.Clock == nil {
		o.Clock = realClock{}
	}
	return o
}

// Task is one unit of work. ID must be unique within the batch and
// deterministic across invocations (see RunID) — it is the journal key.
// Scenario groups tasks for circuit breaking: repeated failures within a
// scenario stop that scenario's remaining tasks, never its siblings'.
// A task without a scenario is never skipped by a breaker.
type Task[R any] struct {
	ID       string
	Scenario string
	Run      func(ctx context.Context) (R, error)
}

// Status classifies how a task resolved.
type Status string

// Task resolutions.
const (
	// StatusDone: ran to completion this invocation.
	StatusDone Status = "done"
	// StatusResumed: skipped, result restored from the journal.
	StatusResumed Status = "resumed"
	// StatusFailed: the run failed; Err holds a *RunError.
	StatusFailed Status = "failed"
	// StatusShed: rejected at admission (queue full, ShedOverflow).
	StatusShed Status = "shed"
	// StatusBreakerOpen: rejected because the scenario's breaker was open.
	StatusBreakerOpen Status = "breaker-open"
	// StatusInterrupted: the batch context was canceled before or during
	// the run; with a journal, re-invoking resumes it.
	StatusInterrupted Status = "interrupted"
)

// Outcome is one task's resolution, in submission order in the report.
type Outcome[R any] struct {
	ID     string
	Status Status
	Result R
	Err    error
}

// Report aggregates a batch.
type Report[R any] struct {
	Outcomes []Outcome[R]
	// Counters by resolution.
	Done, Resumed, Failed, Shed, BreakerSkipped, Interrupted int
}

// FirstError returns the first failed outcome's error, or nil.
func (r *Report[R]) FirstError() error {
	for i := range r.Outcomes {
		if r.Outcomes[i].Status == StatusFailed {
			return r.Outcomes[i].Err
		}
	}
	return nil
}

// Pool is the streaming face of the engine: Submit tasks, then Drain for
// the report. For a known task set, use Run.
type Pool[R any] struct {
	ctx   context.Context
	opts  Options
	queue chan poolItem[R]
	wg    sync.WaitGroup

	// sendMu serializes queue sends against the close in Drain, so a
	// Submit racing a Drain (a long-lived pool shutting down under
	// traffic) gets ErrClosed instead of a send-on-closed-channel panic.
	// Submitters hold the read side across the closed-check and the send;
	// Drain takes the write side to flip closed and close the channel.
	sendMu sync.RWMutex

	mu       sync.Mutex
	outcomes []Outcome[R]
	counts   counters
	breakers map[string]*breaker
	closed   bool

	jmu     sync.Mutex
	journal *journal
	jerr    error
}

// counters tallies resolutions by status.
type counters struct {
	done, resumed, failed, shed, breakerSkipped, interrupted int
}

// poolItem pairs a task with its outcome slot.
type poolItem[R any] struct {
	index int
	task  Task[R]
}

// NewPool starts the workers. The context governs the whole batch:
// cancel it and in-flight runs are asked to stop (their ctx), queued
// tasks resolve as interrupted, and Drain returns ErrInterrupted.
func NewPool[R any](ctx context.Context, opts Options) (*Pool[R], error) {
	opts = opts.withDefaults()
	p := &Pool[R]{
		ctx:      ctx,
		opts:     opts,
		queue:    make(chan poolItem[R], opts.Queue),
		breakers: make(map[string]*breaker),
	}
	if opts.Journal != "" {
		j, err := openJournal(opts.Journal)
		if err != nil {
			return nil, err
		}
		p.journal = j
	}
	for i := 0; i < opts.Workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for it := range p.queue {
				p.execute(it)
			}
		}()
	}
	return p, nil
}

// reserve appends a pending outcome slot and returns its index, or -1
// when the pool streams outcomes instead of retaining them.
func (p *Pool[R]) reserve(t Task[R]) int {
	if p.opts.StreamOutcomes {
		return -1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.outcomes = append(p.outcomes, Outcome[R]{ID: t.ID})
	return len(p.outcomes) - 1
}

// resolve records a task's final status: counter, outcome slot (unless
// streaming), and the PhaseResolve notification.
func (p *Pool[R]) resolve(index int, t Task[R], status Status, result R, err error) {
	p.mu.Lock()
	switch status {
	case StatusDone:
		p.counts.done++
	case StatusResumed:
		p.counts.resumed++
	case StatusFailed:
		p.counts.failed++
	case StatusShed:
		p.counts.shed++
	case StatusBreakerOpen:
		p.counts.breakerSkipped++
	case StatusInterrupted:
		p.counts.interrupted++
	}
	if index >= 0 {
		o := &p.outcomes[index]
		o.Status, o.Result, o.Err = status, result, err
	}
	p.mu.Unlock()
	p.opts.Metrics.Resolved(string(status))
	if p.opts.OnEvent != nil {
		p.opts.OnEvent(TaskEvent{ID: t.ID, Phase: PhaseResolve, Status: status, Err: err})
	}
}

// Submit admits one task. Every submitted task gets exactly one outcome
// in the final report, whatever happens: journal hits resolve
// immediately as resumed, a full queue under ShedOverflow resolves as
// shed (and returns ErrShed), cancellation resolves as interrupted (and
// returns the context error).
func (p *Pool[R]) Submit(t Task[R]) error {
	if t.Run == nil {
		return fmt.Errorf("runner: task %s has no run function", t.ID)
	}
	// Hold the send guard from the closed-check through the send: Drain
	// cannot close the queue in the gap, so a racing Submit resolves to
	// ErrClosed instead of panicking on a closed channel.
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return ErrClosed
	}
	index := p.reserve(t)
	var zero R
	if p.journal != nil {
		p.jmu.Lock()
		rec, ok := p.journal.lookup(t.ID)
		p.jmu.Unlock()
		if ok {
			var res R
			if err := json.Unmarshal(rec.Result, &res); err == nil {
				p.resolve(index, t, StatusResumed, res, nil)
				return nil
			}
			// Undecodable checkpoint (schema drift): fall through and
			// re-run rather than resurrect a stale shape.
		}
	}
	it := poolItem[R]{index: index, task: t}
	if p.opts.ShedOverflow {
		select {
		case p.queue <- it:
			p.opts.Metrics.Admitted()
			return nil
		case <-p.ctx.Done():
			p.resolve(index, t, StatusInterrupted, zero, p.ctx.Err())
			return p.ctx.Err()
		default:
			p.resolve(index, t, StatusShed, zero, ErrShed)
			return ErrShed
		}
	}
	select {
	case p.queue <- it:
		p.opts.Metrics.Admitted()
		return nil
	case <-p.ctx.Done():
		p.resolve(index, t, StatusInterrupted, zero, p.ctx.Err())
		return p.ctx.Err()
	}
}

// Drain closes admission, waits for in-flight work, and returns the
// report. The error is ErrInterrupted when the batch was cut short (the
// report still describes every submitted task), or a journal I/O error
// if checkpointing failed.
func (p *Pool[R]) Drain() (*Report[R], error) {
	p.sendMu.Lock()
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.sendMu.Unlock()
	p.wg.Wait()

	rep := &Report[R]{}
	p.mu.Lock()
	rep.Outcomes = append(rep.Outcomes, p.outcomes...)
	rep.Done, rep.Resumed, rep.Failed = p.counts.done, p.counts.resumed, p.counts.failed
	rep.Shed, rep.BreakerSkipped, rep.Interrupted = p.counts.shed, p.counts.breakerSkipped, p.counts.interrupted
	p.mu.Unlock()
	p.jmu.Lock()
	jerr := p.jerr
	p.jmu.Unlock()
	if jerr != nil {
		return rep, jerr
	}
	if rep.Interrupted > 0 {
		return rep, ErrInterrupted
	}
	return rep, nil
}

// breakerFor returns (possibly creating) the scenario's breaker and
// holds it for the calling task until releaseBreaker, or returns nil
// when breaking is disabled or the task carries no scenario.
func (p *Pool[R]) breakerFor(scenario string) *breaker {
	if p.opts.BreakerThreshold < 0 || scenario == "" {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.breakers[scenario]
	if !ok {
		b = newBreaker(p.opts.BreakerThreshold, p.opts.Clock)
		if m := p.opts.Metrics; m != nil {
			b.onChange = func(from, to breakerState) {
				m.BreakerChanged(from.String(), to.String())
			}
		}
		p.breakers[scenario] = b
	}
	b.holders++
	return b
}

// releaseBreaker ends a task's hold on its scenario's breaker. A breaker
// no task holds that is back in its initial state (closed, no failures)
// is forgotten: a fresh one behaves identically, and keeping one per
// scenario ever run would grow a long-lived pool by one breaker per
// distinct spec it serves.
func (p *Pool[R]) releaseBreaker(scenario string, b *breaker) {
	if b == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b.holders--
	if b.holders == 0 && b.pristine() {
		delete(p.breakers, scenario)
	}
}

// execute runs one task through admission control, one run under the
// per-task deadline, and checkpointing.
func (p *Pool[R]) execute(it poolItem[R]) {
	t := it.task
	var zero R
	p.opts.Metrics.Dequeued()
	if err := p.ctx.Err(); err != nil {
		p.resolve(it.index, t, StatusInterrupted, zero, err)
		return
	}
	brk := p.breakerFor(t.Scenario)
	defer p.releaseBreaker(t.Scenario, brk)
	if brk != nil && !brk.admit() {
		p.resolve(it.index, t, StatusBreakerOpen, zero,
			fmt.Errorf("runner: scenario %s: %w", t.Scenario, ErrBreakerOpen))
		return
	}
	if p.opts.OnEvent != nil {
		p.opts.OnEvent(TaskEvent{ID: t.ID, Phase: PhaseStart})
	}
	res, err := p.run(t)
	switch {
	case err == nil:
		if brk != nil {
			brk.success()
		}
		p.checkpoint(t, res)
		p.resolve(it.index, t, StatusDone, res, nil)
	case p.ctx.Err() != nil:
		// Parent cancellation, not a task fault: don't trip the breaker —
		// report interrupted so the batch is resumable.
		p.resolve(it.index, t, StatusInterrupted, zero,
			fmt.Errorf("runner: task %s interrupted: %w", t.ID, err))
	default:
		if brk != nil {
			brk.failure()
		}
		runErr := &RunError{ID: t.ID, Err: err}
		var pc *panicCapture
		if errors.As(err, &pc) {
			runErr.PanicValue, runErr.Stack = pc.value, pc.stack
		}
		p.resolve(it.index, t, StatusFailed, zero, runErr)
	}
}

// run executes the task's function once under the per-task deadline,
// converting panics and deadline expiries into errors that say so.
func (p *Pool[R]) run(t Task[R]) (R, error) {
	ctx := p.ctx
	var cancel context.CancelFunc
	if p.opts.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, p.opts.Timeout)
		defer cancel()
	}
	res, err := protect(ctx, t.Run)
	if err != nil && p.opts.Timeout > 0 &&
		p.ctx.Err() == nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		err = fmt.Errorf("runner: task %s exceeded the %.3gs deadline: %w", t.ID, p.opts.Timeout.Seconds(), err)
	}
	return res, err
}

// panicCapture carries a recovered panic and its stack out of protect.
type panicCapture struct {
	value any
	stack string
}

func (p *panicCapture) Error() string { return fmt.Sprintf("panic: %v", p.value) }

// protect invokes fn, converting a panic into a *panicCapture error so
// one exploding run cannot take down its worker or siblings.
func protect[R any](ctx context.Context, fn func(context.Context) (R, error)) (res R, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicCapture{value: r, stack: string(debug.Stack())}
		}
	}()
	return fn(ctx)
}

// checkpoint journals a completed run; I/O errors are remembered and
// surfaced by Drain (the in-memory result is still good).
func (p *Pool[R]) checkpoint(t Task[R], res R) {
	if p.journal == nil {
		return
	}
	raw, err := json.Marshal(res)
	if err == nil {
		p.jmu.Lock()
		defer p.jmu.Unlock()
		err = p.journal.append(journalRecord{ID: t.ID, Result: raw})
		if err == nil {
			return
		}
		if p.jerr == nil {
			p.jerr = err
		}
		return
	}
	p.jmu.Lock()
	defer p.jmu.Unlock()
	if p.jerr == nil {
		p.jerr = fmt.Errorf("runner: journal marshal %s: %w", t.ID, err)
	}
}

// Run executes a fixed task set through a fresh pool and reports every
// task in submission order. Shed and interrupted tasks still appear in
// the report; the error mirrors Drain's.
func Run[R any](ctx context.Context, opts Options, tasks []Task[R]) (*Report[R], error) {
	p, err := NewPool[R](ctx, opts)
	if err != nil {
		return nil, err
	}
	for _, t := range tasks {
		// Submit records the outcome (shed / interrupted) itself; keep
		// going so every task is accounted for in the report.
		switch err := p.Submit(t); {
		case err == nil, errors.Is(err, ErrShed):
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		default:
			p.Drain()
			return nil, err
		}
	}
	return p.Drain()
}
