package obs

import "time"

// SimMetrics is the simulator's standard instrument set. The simulator
// records into it once per completed run — scalar deltas only, so the
// hot loop stays allocation-free — and every consumer (the server's
// /metrics and /v1/stats, the CLI's -metrics summary) reads the same
// counters.
type SimMetrics struct {
	// Runs counts completed simulation runs; Slots the task slots they
	// simulated; Fuel the stack charge they consumed (A·s).
	Runs, Slots, Fuel *Counter
	// MemoHits and MemoMisses aggregate fuelcell.Memo.Stats deltas.
	MemoHits, MemoMisses *Counter
	// RunSeconds is the per-run wall-time distribution.
	RunSeconds *Histogram
}

// NewSimMetrics registers the simulator series on r.
func NewSimMetrics(r *Registry) *SimMetrics {
	return &SimMetrics{
		Runs:       r.Counter("fcdpm_sim_runs_total", "Completed simulation runs."),
		Slots:      r.Counter("fcdpm_sim_slots_total", "Task slots simulated across completed runs."),
		Fuel:       r.Counter("fcdpm_sim_fuel_as_total", "Stack charge consumed across completed runs (A·s)."),
		MemoHits:   r.Counter("fcdpm_sim_memo_hits_total", "Fuel-map memo lookup hits."),
		MemoMisses: r.Counter("fcdpm_sim_memo_misses_total", "Fuel-map memo lookup misses."),
		RunSeconds: r.Histogram("fcdpm_sim_run_seconds", "Simulation wall time per completed run.", DurationBuckets),
	}
}

// RecordRun folds one completed run into the set. Safe on a nil
// receiver (uninstrumented runs cost one predicted branch) and
// allocation-free.
func (m *SimMetrics) RecordRun(slots int, fuel float64, memoHits, memoMisses uint64, wall time.Duration) {
	if m == nil {
		return
	}
	m.Runs.Inc()
	m.Slots.Add(float64(slots))
	m.Fuel.Add(fuel)
	m.MemoHits.Add(float64(memoHits))
	m.MemoMisses.Add(float64(memoMisses))
	m.RunSeconds.Observe(wall.Seconds())
}

// LaneBuckets is the lane-width layout of the batch-execution histogram:
// powers of two up to the widest batches the sweep fabric submits.
var LaneBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// BatchMetrics instruments the batched simulation core (sim.BatchRunner):
// how wide the batches are and how much per-lane planning the lane
// grouping amortized away.
type BatchMetrics struct {
	// Batches counts completed batch runs; Lanes is the distribution of
	// their lane widths.
	Batches *Counter
	Lanes   *Histogram
	// PlanGroupHits counts slot executions a follower lane inherited from
	// its plan group's leader instead of planning and integrating itself —
	// the work the batch core never had to do.
	PlanGroupHits *Counter
}

// NewBatchMetrics registers the batch-execution series on r.
func NewBatchMetrics(r *Registry) *BatchMetrics {
	return &BatchMetrics{
		Batches:       r.Counter("fcdpm_sim_batches_total", "Completed BatchRunner runs."),
		Lanes:         r.Histogram("fcdpm_sim_batch_lanes", "Lane width per completed batch run.", LaneBuckets),
		PlanGroupHits: r.Counter("fcdpm_sim_batch_plan_group_hits_total", "Slot executions follower lanes inherited from their plan-group leader."),
	}
}

// RecordBatch folds one completed batch run into the set. Nil-safe and
// allocation-free.
func (m *BatchMetrics) RecordBatch(lanes int, planGroupHits uint64) {
	if m == nil {
		return
	}
	m.Batches.Inc()
	m.Lanes.Observe(float64(lanes))
	m.PlanGroupHits.Add(float64(planGroupHits))
}

// PoolMetrics is the run-orchestration engine's instrument set:
// admission, resolution, and breaker activity of one runner.Pool.
type PoolMetrics struct {
	// Submitted counts tasks admitted to the queue (journal-resumed
	// tasks never enqueue and are counted under Resumed only).
	Submitted *Counter
	// Resolution counters, one per runner.Status.
	Done, Resumed, Failed, Shed, BreakerSkipped, Interrupted *Counter
	// BreakerOpens and BreakerCloses count circuit-breaker state
	// transitions into open (including a failed half-open probe
	// re-opening) and back to closed.
	BreakerOpens, BreakerCloses *Counter
	// BreakersOpen and BreakersHalfOpen track how many scenario
	// breakers are in each non-closed state right now. The transition
	// counters above answer "how often has this flapped"; these answer
	// the operator's on-call question, "which fraction of scenarios is
	// quarantined at this moment".
	BreakersOpen, BreakersHalfOpen *Gauge
	// QueueDepth tracks tasks admitted but not yet picked up by a
	// worker.
	QueueDepth *Gauge
}

// NewPoolMetrics registers the pool series on r.
func NewPoolMetrics(r *Registry) *PoolMetrics {
	return &PoolMetrics{
		Submitted:        r.Counter("fcdpm_pool_tasks_submitted_total", "Tasks admitted to the pool queue."),
		Done:             r.Counter("fcdpm_pool_tasks_done_total", "Tasks that ran to completion."),
		Resumed:          r.Counter("fcdpm_pool_tasks_resumed_total", "Tasks restored from the checkpoint journal."),
		Failed:           r.Counter("fcdpm_pool_tasks_failed_total", "Tasks whose run failed."),
		Shed:             r.Counter("fcdpm_pool_tasks_shed_total", "Tasks rejected at admission (queue full)."),
		BreakerSkipped:   r.Counter("fcdpm_pool_tasks_breaker_skipped_total", "Tasks rejected by an open scenario breaker."),
		Interrupted:      r.Counter("fcdpm_pool_tasks_interrupted_total", "Tasks cut short by batch cancellation."),
		BreakerOpens:     r.Counter("fcdpm_pool_breaker_opens_total", "Circuit-breaker transitions into open."),
		BreakerCloses:    r.Counter("fcdpm_pool_breaker_closes_total", "Circuit-breaker transitions back to closed."),
		BreakersOpen:     r.Gauge("fcdpm_pool_breakers_open", "Scenario breakers currently open."),
		BreakersHalfOpen: r.Gauge("fcdpm_pool_breakers_half_open", "Scenario breakers currently half-open (probe in flight)."),
		QueueDepth:       r.Gauge("fcdpm_pool_queue_depth", "Tasks admitted but not yet executing."),
	}
}

// Admitted records one task entering the queue. Nil-safe.
func (m *PoolMetrics) Admitted() {
	if m == nil {
		return
	}
	m.Submitted.Inc()
	m.QueueDepth.Add(1)
}

// Dequeued records one task leaving the queue for a worker. Nil-safe.
func (m *PoolMetrics) Dequeued() {
	if m == nil {
		return
	}
	m.QueueDepth.Add(-1)
}

// BreakerChanged records a circuit-breaker state transition; states are
// the breaker's String names ("closed", "open", "half-open"). Besides
// counting open/close transitions it keeps the current-state gauges in
// step: the from-state's gauge drops, the to-state's rises. Nil-safe.
func (m *PoolMetrics) BreakerChanged(from, to string) {
	if m == nil {
		return
	}
	switch from {
	case "open":
		m.BreakersOpen.Add(-1)
	case "half-open":
		m.BreakersHalfOpen.Add(-1)
	}
	switch to {
	case "open":
		m.BreakerOpens.Inc()
		m.BreakersOpen.Add(1)
	case "closed":
		m.BreakerCloses.Inc()
	case "half-open":
		m.BreakersHalfOpen.Add(1)
	}
}

// Resolved folds one task resolution into the set; status is the
// runner.Status string. Nil-safe.
func (m *PoolMetrics) Resolved(status string) {
	if m == nil {
		return
	}
	switch status {
	case "done":
		m.Done.Inc()
	case "resumed":
		m.Resumed.Inc()
	case "failed":
		m.Failed.Inc()
	case "shed":
		m.Shed.Inc()
	case "breaker-open":
		m.BreakerSkipped.Inc()
	case "interrupted":
		m.Interrupted.Inc()
	}
}
