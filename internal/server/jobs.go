package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fcdpm/internal/config"
	"fcdpm/internal/predict"
	"fcdpm/internal/report"
	"fcdpm/internal/runner"
	"fcdpm/internal/runreport"
	"fcdpm/internal/workload"
)

// jobKind separates single runs from sweeps.
type jobKind string

const (
	jobRun   jobKind = "run"
	jobSweep jobKind = "sweep"
)

// jobStatus is a job's lifecycle state as reported over the API.
type jobStatus string

const (
	jobQueued jobStatus = "queued"
	jobDone   jobStatus = "done"
	jobFailed jobStatus = "failed"
	jobShed   jobStatus = "shed"
)

// Specs execute and render through runreport.Execute — the one seam the
// server, the dispatcher's workers, and `fcdpm batch` share, so a result
// is byte-identical wherever it was computed.

// cellState is one sweep scenario's progress, embedded in the sweep
// report once every cell resolves.
type cellState struct {
	Name   string `json:"name"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Cached bool   `json:"cached,omitempty"`
	Err    string `json:"error,omitempty"`
}

// job is one accepted unit of API work: a single run or a whole sweep.
// Its event log streams progress; done closes when the job resolves.
type job struct {
	id     string
	kind   jobKind
	key    string // content address; run jobs only
	name   string
	events *eventLog
	done   chan struct{}

	mu       sync.Mutex
	status   jobStatus
	report   []byte // rendered response body, valid once status == jobDone
	errMsg   string
	httpCode int
	// retryAfter, when set on a 503 resolution, tells the client when to
	// come back (rendered as a Retry-After header).
	retryAfter time.Duration
	// Sweep bookkeeping: cells in submission order, count still pending.
	cells     []cellState
	remaining int
	finished  bool
}

// setReport stashes the rendered bytes for the resolve event to publish.
func (j *job) setReport(b []byte) {
	j.mu.Lock()
	j.report = b
	j.mu.Unlock()
}

// finish resolves the job exactly once: records the outcome, appends the
// terminal event, closes the stream and the done channel.
func (j *job) finish(status jobStatus, body []byte, errMsg string, httpCode int, cached bool) {
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		return
	}
	j.finished = true
	j.status = status
	j.report = body
	j.errMsg = errMsg
	j.httpCode = httpCode
	j.mu.Unlock()
	j.events.append(Event{
		Kind: "resolved", Job: j.id, Status: string(status),
		Cached: cached, Detail: errMsg,
	})
	j.events.close()
	close(j.done)
}

// outcome snapshots the resolved state for response writing.
func (j *job) outcome() (status jobStatus, body []byte, errMsg string, httpCode int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.report, j.errMsg, j.httpCode
}

// retryAfterHint reports the Retry-After duration for 503 resolutions.
func (j *job) retryAfterHint() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.retryAfter
}

// setRetryAfter records the backoff hint before finish resolves the job.
func (j *job) setRetryAfter(d time.Duration) {
	j.mu.Lock()
	j.retryAfter = d
	j.mu.Unlock()
}

// registry owns every job the server has accepted: lookup by ID,
// coalescing of identical in-flight runs by content address, and a
// bounded retention of completed jobs so the map cannot grow without
// bound under sustained traffic.
type registry struct {
	mu       sync.Mutex
	seq      int
	jobs     map[string]*job
	inflight map[string]*job // cache key → unfinished run job
	// finished is a FIFO of completed job IDs; the oldest are forgotten
	// once more than retainJobs have completed.
	finished []string
}

func newRegistry() *registry {
	return &registry{
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
	}
}

// newJob allocates and registers a job with a fresh sequential ID.
func (r *registry) newJob(kind jobKind, key, name string) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	j := &job{
		id:     fmt.Sprintf("%s-%06d", kind, r.seq),
		kind:   kind,
		key:    key,
		name:   name,
		status: jobQueued,
		events: newEventLog(),
		done:   make(chan struct{}),
	}
	r.jobs[j.id] = j
	return j
}

// leaseRun returns the unfinished run job already computing key (second
// result true), or registers a fresh one (false) that the caller must
// submit. Coalescing means ten identical concurrent POSTs cost one
// simulation.
func (r *registry) leaseRun(key, name string) (*job, bool) {
	r.mu.Lock()
	if j, ok := r.inflight[key]; ok {
		r.mu.Unlock()
		return j, true
	}
	r.mu.Unlock()
	j := r.newJob(jobRun, key, name)
	r.mu.Lock()
	// Re-check under the lock: a racing lease may have won registration.
	if prior, ok := r.inflight[key]; ok {
		// Drop the orphan; its sequence number stays burned — a gap is
		// harmless, a reused ID would collide.
		delete(r.jobs, j.id)
		r.mu.Unlock()
		return prior, true
	}
	r.inflight[key] = j
	r.mu.Unlock()
	return j, false
}

// lookup returns the job by ID, if retained.
func (r *registry) lookup(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// complete moves a finished job out of the coalescing map and into the
// bounded retention window, evicting the oldest completed job beyond it.
func (r *registry) complete(j *job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j.kind == jobRun && r.inflight[j.key] == j {
		delete(r.inflight, j.key)
	}
	r.finished = append(r.finished, j.id)
	for len(r.finished) > retainJobs {
		delete(r.jobs, r.finished[0])
		r.finished = r.finished[1:]
	}
}

// counts reports registry occupancy for /v1/stats.
func (r *registry) counts() (active, retained int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	retained = len(r.finished)
	active = len(r.jobs) - retained
	return active, retained
}

// taskRef routes a runner.TaskEvent back to its job and the sweep cells
// its task covers (none for a single run).
type taskRef struct {
	job   *job
	cells []int
	// outcomes holds each covered cell's resolution. The task body is its
	// only writer and the resolve hook reads it only after the pool
	// publishes the task's resolution, so no lock is needed.
	outcomes []laneOutcome
}

// laneOutcome is one sweep cell's resolution, recorded by the task body
// and read by the resolve hook.
type laneOutcome struct {
	status runner.Status
	errMsg string
}

// task builds the pool task body for one single run or one sweep chunk:
// runreport.Execute runs the cells as lanes of one BatchRunner batch
// (identical cells collapse onto one executing lane), then each rendered
// body populates the cache and each lane's audit log replays into the
// job's stream. A task covering one run or cell hands its error to the
// pool, so its breaker applies; a wider chunk resolves each cell with
// its own outcome, and the task itself fails only when its context ends,
// where chunkResolved still keeps the cells that finished.
func (s *Server) task(ref taskRef, cells []runreport.Cell) func(context.Context) (struct{}, error) {
	j := ref.job
	return func(ctx context.Context) (struct{}, error) {
		rows := runreport.Execute(ctx, s.engine, cells, s.metrics.sim, s.metrics.batch)
		var firstErr error
		for i, row := range rows {
			if row.Err != nil {
				ref.outcomes[i] = laneOutcome{status: runner.StatusFailed, errMsg: row.Err.Error()}
				if firstErr == nil {
					firstErr = row.Err
				}
				continue
			}
			s.cache.Put(cells[i].Key, row.Body)
			cell := ""
			if ref.cells != nil {
				cell = cellName(j, ref.cells[i])
			}
			for _, ev := range row.Res.Events {
				j.events.append(Event{
					Kind: "sim", Job: j.id, Cell: cell,
					T: ev.T, Detail: string(ev.Kind) + ": " + ev.Detail,
				})
			}
			ref.outcomes[i] = laneOutcome{status: runner.StatusDone}
		}
		if ref.cells == nil {
			// Cell bytes live in the cache (the sweep report embeds only
			// per-cell status and content address); single runs serve the
			// body directly.
			j.setReport(rows[0].Body)
		}
		if len(cells) == 1 || ctx.Err() != nil {
			return struct{}{}, firstErr
		}
		return struct{}{}, nil
	}
}

// cellName returns the cell's display name.
func cellName(j *job, cell int) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cell < len(j.cells) {
		return j.cells[cell].Name
	}
	return ""
}

// onTaskEvent is the runner.Options.OnEvent hook: it maps pool lifecycle
// notifications onto job progress and resolution. It runs on worker and
// submitter goroutines and must stay quick.
func (s *Server) onTaskEvent(e runner.TaskEvent) {
	v, ok := s.taskJobs.Load(e.ID)
	if !ok {
		return
	}
	ref := v.(taskRef)
	j := ref.job
	switch e.Phase {
	case runner.PhaseStart:
		cell := ""
		if len(ref.cells) == 1 {
			cell = cellName(j, ref.cells[0])
		}
		j.events.append(Event{Kind: "attempt", Job: j.id, Cell: cell})
	case runner.PhaseResolve:
		s.taskJobs.Delete(e.ID)
		s.metrics.inflight.Add(-1)
		errMsg := ""
		if e.Err != nil {
			errMsg = e.Err.Error()
		}
		if ref.cells != nil {
			s.chunkResolved(ref, e.Status, errMsg)
			return
		}
		switch e.Status {
		case runner.StatusDone:
			j.mu.Lock()
			body := j.report
			j.mu.Unlock()
			s.metrics.runsDone.Inc()
			j.finish(jobDone, body, "", 200, false)
		case runner.StatusShed:
			s.metrics.runsShed.Inc()
			j.setRetryAfter(shedRetryAfter)
			j.finish(jobShed, nil, "admission queue full, run shed", 503, false)
		case runner.StatusBreakerOpen:
			s.metrics.runsFailed.Inc()
			j.setRetryAfter(runner.DefaultBreakerCooldown)
			j.finish(jobFailed, nil, "scenario circuit breaker open", 503, false)
		case runner.StatusInterrupted:
			s.metrics.runsFailed.Inc()
			j.setRetryAfter(drainRetryAfter)
			j.finish(jobFailed, nil, "run interrupted by shutdown", 503, false)
		default: // StatusFailed (StatusResumed cannot happen: no journal)
			s.metrics.runsFailed.Inc()
			code := 500
			if clientFault(e.Err) {
				code = 400
			}
			j.finish(jobFailed, nil, errMsg, code, false)
		}
		s.reg.complete(j)
	}
}

// clientFault reports whether a failed run's cause is a defect in the
// submitted scenario rather than in the engine: spec fields that fail
// validation only at build time (a trace file with an invalid record, a
// predictor parameter out of range). These map to HTTP 400 — retrying
// the identical request cannot succeed — while genuine engine failures
// keep 500. errors.As traverses the pool's RunError / retry wrappers.
func clientFault(err error) bool {
	var cve *config.ValidationError
	var wve *workload.ValidationError
	var pce *predict.ConfigError
	return errors.As(err, &cve) || errors.As(err, &wve) || errors.As(err, &pce)
}

// chunkResolved fans one sweep chunk's resolution out to its cells: a
// completed task resolves each cell with its own lane outcome, and a
// cell whose lane finished (its body is cached) stays done whatever
// became of the task. Every other cell of a shed, interrupted or failed
// task — one that ran out its deadline mid-walk, say — takes the task's
// status.
func (s *Server) chunkResolved(ref taskRef, status runner.Status, errMsg string) {
	for li, ci := range ref.cells {
		if o := ref.outcomes[li]; status == runner.StatusDone || o.status == runner.StatusDone {
			s.cellDone(ref.job, ci, o.status, false, o.errMsg)
			continue
		}
		s.cellDone(ref.job, ci, status, false, errMsg)
	}
}

// cellDone is the single place a sweep cell resolves — from the pool
// (via chunkResolved) or synchronously on a cache hit (cached == true).
func (s *Server) cellDone(j *job, cell int, status runner.Status, cached bool, errMsg string) {
	j.mu.Lock()
	if cell >= len(j.cells) || j.finished {
		j.mu.Unlock()
		return
	}
	c := &j.cells[cell]
	c.Status = string(status)
	c.Cached = cached
	c.Err = errMsg
	name := c.Name
	j.remaining--
	last := j.remaining == 0
	j.mu.Unlock()

	switch status {
	case runner.StatusDone:
		s.metrics.runsDone.Inc()
	case runner.StatusShed:
		s.metrics.runsShed.Inc()
	default:
		s.metrics.runsFailed.Inc()
	}
	j.events.append(Event{
		Kind: "cell", Job: j.id, Cell: name,
		Status: string(status), Cached: cached, Detail: errMsg,
	})
	if last {
		s.finalizeSweep(j)
	}
}

// sweepReport is the JSON body served for a completed sweep.
type sweepReport struct {
	ID     string      `json:"id"`
	Name   string      `json:"name"`
	Engine string      `json:"engine"`
	Cells  []cellState `json:"cells"`
	Done   int         `json:"done"`
	Cached int         `json:"cached"`
	Failed int         `json:"failed"`
}

// finalizeSweep renders the aggregate report and resolves the job.
func (s *Server) finalizeSweep(j *job) {
	j.mu.Lock()
	sr := sweepReport{ID: j.id, Name: j.name, Engine: s.engine,
		Cells: append([]cellState(nil), j.cells...)}
	j.mu.Unlock()
	for _, c := range sr.Cells {
		switch {
		case c.Status == string(runner.StatusDone) && c.Cached:
			sr.Done++
			sr.Cached++
		case c.Status == string(runner.StatusDone):
			sr.Done++
		default:
			sr.Failed++
		}
	}
	body, err := report.StableJSON(sr)
	status, code, errMsg := jobDone, 200, ""
	if err != nil {
		status, code, errMsg, body = jobFailed, 500, err.Error(), nil
	} else if sr.Failed > 0 {
		// The sweep completed but not every cell did; the report still
		// serves, the status says so.
		status = jobFailed
		errMsg = fmt.Sprintf("%d of %d cells failed", sr.Failed, len(sr.Cells))
	}
	j.finish(status, body, errMsg, code, false)
	s.reg.complete(j)
}
