// Package server turns the simulator into a long-running service:
// an HTTP/JSON API that validates scenario specs, executes them on a
// shared bounded runner pool, streams per-run progress and supervisor
// audit events as NDJSON, and serves repeated scenarios byte-identically
// from a content-addressed result cache keyed by the canonical spec hash
// and the engine build — see DESIGN.md §8.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fcdpm/internal/cache"
	"fcdpm/internal/config"
	"fcdpm/internal/httpx"
	"fcdpm/internal/runner"
	"fcdpm/internal/runreport"
	"fcdpm/internal/version"
)

// Serving defaults.
const (
	// DefaultAddr binds loopback only; serving is an operator tool, not
	// an internet face.
	DefaultAddr = "127.0.0.1:8080"
	// DefaultCacheBytes bounds the in-memory result cache (64 MiB).
	DefaultCacheBytes = 64 << 20
	// DefaultDrainTimeout bounds how long shutdown waits for in-flight
	// runs before force-canceling them.
	DefaultDrainTimeout = 30 * time.Second
	// maxBodyBytes bounds a request body (scenario specs are small); an
	// oversized body is refused with 413 before it is read.
	maxBodyBytes = 8 << 20
	// retainJobs bounds how many completed jobs stay queryable.
	retainJobs = 512
	// maxSweepCells bounds one sweep request.
	maxSweepCells = 4096
	// drainRetryAfter is the Retry-After hint on 503s emitted while the
	// server drains: long enough for a restart, short enough that
	// clients reconnect promptly.
	drainRetryAfter = 5 * time.Second
	// shedRetryAfter is the Retry-After hint when the admission queue
	// sheds: overload is transient, probe again soon.
	shedRetryAfter = 1 * time.Second
)

// Options tunes the service. The zero value serves on DefaultAddr with
// a GOMAXPROCS-wide pool, a 64 MiB memory cache, and no disk tier.
type Options struct {
	// Addr is the listen address (default DefaultAddr).
	Addr string
	// Workers and Queue size the shared runner pool (runner.Options).
	Workers, Queue int
	// RunTimeout is the simulation deadline of one pool task — a single
	// run, or one sweep chunk whose cells share it; 0 means none.
	RunTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (default DefaultDrainTimeout).
	DrainTimeout time.Duration
	// CacheBytes bounds the memory result cache (default
	// DefaultCacheBytes); negative disables the memory tier.
	CacheBytes int64
	// CacheDir, when set, persists every cached report to disk with the
	// journal's fsync+atomic-rename discipline, surviving restarts.
	CacheDir string
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiler exposes goroutine stacks and heap contents,
	// so it is opt-in (`fcdpm serve -pprof`) and belongs behind the same
	// trust boundary as the rest of the service.
	EnablePprof bool
	// Logf receives operational log lines; nil silences them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = DefaultAddr
	}
	// Mirror the pool's sizing defaults so /v1/stats reports real values.
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Queue <= 0 {
		o.Queue = 2 * o.Workers
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = DefaultCacheBytes
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = DefaultDrainTimeout
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Server is the simulation service: a shared runner pool, a job
// registry, and the content-addressed result cache behind an
// http.Handler.
type Server struct {
	opts     Options
	engine   string
	started  time.Time
	cache    *cache.Store
	reg      *registry
	pool     *runner.Pool[struct{}]
	poolStop context.CancelFunc
	mux      *http.ServeMux

	// metrics is the unified obs registry: /metrics, /v1/stats, the sim
	// configs, and the pool all record into and read from it.
	metrics *serverMetrics

	// taskJobs maps in-flight pool task IDs to their taskRef.
	taskJobs sync.Map

	draining atomic.Bool

	closeOnce sync.Once
	closeErr  error
}

// New builds a Server. The pool gets its own context — deliberately not
// the serve context — so that shutdown *drains* in-flight runs instead
// of canceling them; Close force-cancels only after DrainTimeout.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	metrics := newServerMetrics(opts.Logf)
	store, err := cache.New(opts.CacheBytes, opts.CacheDir, metrics.registry)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		engine:  version.Engine(),
		started: time.Now(),
		cache:   store,
		reg:     newRegistry(),
		metrics: metrics,
	}
	metrics.registry.GaugeFunc("fcdpm_server_jobs_active", "Jobs queued or running.", func() float64 {
		active, _ := s.reg.counts()
		return float64(active)
	})
	metrics.registry.GaugeFunc("fcdpm_server_jobs_retained", "Completed jobs still queryable.", func() float64 {
		_, retained := s.reg.counts()
		return float64(retained)
	})
	poolCtx, cancel := context.WithCancel(context.Background())
	s.poolStop = cancel
	pool, err := runner.NewPool[struct{}](poolCtx, runner.Options{
		Workers: opts.Workers, Queue: opts.Queue, Timeout: opts.RunTimeout,
		ShedOverflow: true, StreamOutcomes: true,
		OnEvent: s.onTaskEvent,
		Metrics: metrics.pool,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	s.pool = pool
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	m := s.metrics
	s.mux.HandleFunc("POST /v1/runs", m.endpoint("POST /v1/runs", s.handleRunPost))
	s.mux.HandleFunc("GET /v1/runs/{id}", m.endpoint("GET /v1/runs/{id}", s.handleJobGet))
	s.mux.HandleFunc("GET /v1/runs/{id}/events", m.endpoint("GET /v1/runs/{id}/events", s.handleJobEvents))
	s.mux.HandleFunc("POST /v1/sweeps", m.endpoint("POST /v1/sweeps", s.handleSweepPost))
	s.mux.HandleFunc("GET /v1/sweeps/{id}", m.endpoint("GET /v1/sweeps/{id}", s.handleJobGet))
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", m.endpoint("GET /v1/sweeps/{id}/events", s.handleJobEvents))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", m.endpoint("GET /v1/stats", s.handleStats))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opts.EnablePprof {
		// Mounted explicitly rather than via the package's init side
		// effect on http.DefaultServeMux, which this server never uses.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// The JSON conventions live in internal/httpx, shared with the sweep
// dispatcher; local names keep the handlers terse.
var (
	writeJSON = httpx.WriteJSON
	writeBody = httpx.WriteBody
	writeErr  = httpx.WriteErr
)

// writeJobErr renders a job failure, attaching the Retry-After hint on
// 503s so client backoff is protocol-driven.
func writeJobErr(w http.ResponseWriter, code int, retryAfter time.Duration, format string, args ...any) {
	if code == http.StatusServiceUnavailable && retryAfter > 0 {
		httpx.WriteUnavailable(w, retryAfter, format, args...)
		return
	}
	writeErr(w, code, format, args...)
}

// decodeSpec reads and validates one scenario spec from the bounded
// body; an oversized body is a 413, a malformed one a 400.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request) (*config.Scenario, bool) {
	spec, err := config.LoadValidated(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		if httpx.WriteBodyLimit(w, err) {
			return nil, false
		}
		writeErr(w, 400, "invalid scenario: %v", err)
		return nil, false
	}
	return spec, true
}

// handleRunPost accepts one scenario. Cache hit → the stored bytes,
// verbatim. Miss → coalesce with any identical in-flight run or submit
// a fresh pool task; respond when it resolves (or immediately with 202
// under ?async=1).
func (s *Server) handleRunPost(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	key, err := spec.CacheKey(s.engine)
	if err != nil {
		writeErr(w, 400, "invalid scenario: %v", err)
		return
	}
	w.Header().Set("X-Fcdpm-Key", key)
	if body, ok := s.cache.Get(key); ok {
		w.Header().Set("X-Fcdpm-Cache", "hit")
		writeBody(w, 200, body)
		return
	}
	if s.draining.Load() {
		httpx.WriteUnavailable(w, drainRetryAfter, "draining")
		return
	}
	name := spec.Name
	if name == "" {
		name = "run"
	}
	j, coalesced := s.reg.leaseRun(key, name)
	if coalesced {
		s.metrics.runsCoalesced.Inc()
	} else {
		s.metrics.runsSubmitted.Inc()
		j.events.append(Event{Kind: "accepted", Job: j.id, Detail: "key " + key})
		s.submit(j, nil, []runreport.Cell{{Spec: spec, Key: key}})
	}
	if isAsync(r) {
		// Mirror the sync path's X-Fcdpm-Cache taxonomy so async clients
		// can count coalesced admissions without waiting.
		tag := "miss"
		if coalesced {
			tag = "coalesced"
		}
		w.Header().Set("X-Fcdpm-Cache", tag)
		writeJSON(w, 202, map[string]string{
			"id": j.id, "key": key, "status": string(jobQueued),
			"events": "/v1/runs/" + j.id + "/events",
			"cache":  tag,
		})
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		writeErr(w, 499, "client went away")
		return
	}
	s.writeOutcome(w, j, coalesced)
}

// submit registers the task→job route and hands the pool one task
// executing cells: a single run (sweepCells nil) or the sweep cells
// sweepCells indexes. Shed/interrupted submissions resolve through
// onTaskEvent; only a closed pool refuses without an event, handled
// here.
func (s *Server) submit(j *job, sweepCells []int, cells []runreport.Cell) {
	ref := taskRef{job: j, cells: sweepCells, outcomes: make([]laneOutcome, len(cells))}
	id := j.id
	if sweepCells != nil {
		id = fmt.Sprintf("%s/%04d", j.id, sweepCells[0])
	}
	s.taskJobs.Store(id, ref)
	s.metrics.inflight.Add(1)
	err := s.pool.Submit(runner.Task[struct{}]{
		ID:       id,
		Scenario: cells[0].Key,
		Run:      s.task(ref, cells),
	})
	if !errors.Is(err, runner.ErrClosed) {
		return
	}
	s.taskJobs.Delete(id)
	s.metrics.inflight.Add(-1)
	if sweepCells != nil {
		for _, ci := range sweepCells {
			s.cellDone(j, ci, runner.StatusInterrupted, false, "draining")
		}
		return
	}
	s.metrics.runsFailed.Inc()
	j.setRetryAfter(drainRetryAfter)
	j.finish(jobFailed, nil, "draining", 503, false)
	s.reg.complete(j)
}

// maxChunkRuns caps how many distinct simulations one sweep pool task
// executes, so a single task never monopolizes a worker.
const maxChunkRuns = 64

// batchChunks splits cache-miss sweep cells into pool tasks. Cells with
// one cache key stay in one task, where they collapse onto one executing
// lane. The distinct keys, in first-seen order, are dealt into at least
// min(workers, keys) contiguous chunks of at most maxChunkRuns keys each,
// so an idle pool runs a sweep's simulations in parallel while a sweep of
// any size stays a few tasks. The split depends on the request alone, so
// cell resolution order is deterministic.
func batchChunks(keys []string, misses []int, workers int) [][]int {
	var units [][]int // the misses grouped by cache key
	unitOf := make(map[string]int, len(misses))
	for _, i := range misses {
		u, ok := unitOf[keys[i]]
		if !ok {
			u = len(units)
			unitOf[keys[i]] = u
			units = append(units, nil)
		}
		units[u] = append(units[u], i)
	}
	n := max(min(workers, len(units)), (len(units)+maxChunkRuns-1)/maxChunkRuns)
	chunks := make([][]int, n)
	for c := range chunks {
		for _, u := range units[c*len(units)/n : (c+1)*len(units)/n] {
			chunks[c] = append(chunks[c], u...)
		}
	}
	return chunks
}

// writeOutcome renders a resolved run job.
func (s *Server) writeOutcome(w http.ResponseWriter, j *job, coalesced bool) {
	status, body, errMsg, code := j.outcome()
	if status == jobDone {
		tag := "miss"
		if coalesced {
			tag = "coalesced"
		}
		w.Header().Set("X-Fcdpm-Cache", tag)
		writeBody(w, code, body)
		return
	}
	writeJobErr(w, code, j.retryAfterHint(), "%s", errMsg)
}

func isAsync(r *http.Request) bool {
	v := r.URL.Query().Get("async")
	return v == "1" || v == "true"
}

// sweepRequest is the POST /v1/sweeps body.
type sweepRequest struct {
	Name      string            `json:"name"`
	Scenarios []json.RawMessage `json:"scenarios"`
}

// handleSweepPost validates every cell up front (a sweep with a bad
// cell is rejected whole), resolves cached cells immediately, submits
// the rest, and returns 202 — sweep results are fetched by ID or
// streamed.
func (s *Server) handleSweepPost(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if httpx.WriteBodyLimit(w, err) {
			return
		}
		writeErr(w, 400, "invalid sweep request: %v", err)
		return
	}
	if len(req.Scenarios) == 0 {
		writeErr(w, 400, "sweep has no scenarios")
		return
	}
	if len(req.Scenarios) > maxSweepCells {
		writeErr(w, 400, "sweep exceeds %d cells", maxSweepCells)
		return
	}
	specs := make([]*config.Scenario, len(req.Scenarios))
	keys := make([]string, len(req.Scenarios))
	for i, raw := range req.Scenarios {
		spec, err := config.LoadValidated(bytes.NewReader(raw))
		if err != nil {
			writeErr(w, 400, "scenario %d: %v", i, err)
			return
		}
		key, err := spec.CacheKey(s.engine)
		if err != nil {
			writeErr(w, 400, "scenario %d: %v", i, err)
			return
		}
		specs[i], keys[i] = spec, key
	}
	if s.draining.Load() {
		httpx.WriteUnavailable(w, drainRetryAfter, "draining")
		return
	}
	name := req.Name
	if name == "" {
		name = "sweep"
	}
	j := s.reg.newJob(jobSweep, "", name)
	j.cells = make([]cellState, len(specs))
	j.remaining = len(specs)
	for i, spec := range specs {
		cn := spec.Name
		if cn == "" {
			cn = fmt.Sprintf("cell-%04d", i)
		}
		j.cells[i] = cellState{Name: cn, Key: keys[i], Status: "queued"}
	}
	j.events.append(Event{
		Kind: "accepted", Job: j.id,
		Detail: fmt.Sprintf("%d cells", len(specs)),
	})
	misses := make([]int, 0, len(specs))
	for i := range specs {
		if _, ok := s.cache.Get(keys[i]); ok {
			s.cellDone(j, i, runner.StatusDone, true, "")
			continue
		}
		s.metrics.runsSubmitted.Inc()
		misses = append(misses, i)
	}
	// Cache-miss cells run as lanes of one pool task per chunk, each on
	// its own trace; identical siblings collapse via their lane keys.
	for _, chunk := range batchChunks(keys, misses, s.opts.Workers) {
		cells := make([]runreport.Cell, len(chunk))
		for li, i := range chunk {
			cells[li] = runreport.Cell{Spec: specs[i], Key: keys[i]}
		}
		s.submit(j, chunk, cells)
	}
	writeJSON(w, 202, map[string]any{
		"id": j.id, "cells": len(keys), "status": string(jobQueued),
		"events": "/v1/sweeps/" + j.id + "/events",
	})
}

// handleJobGet reports a job: the stable report body once done, a
// status document while pending, the failure otherwise.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, 404, "unknown job")
		return
	}
	select {
	case <-j.done:
	default:
		st := map[string]any{"id": j.id, "status": string(jobQueued)}
		if j.kind == jobSweep {
			j.mu.Lock()
			st["remaining"] = j.remaining
			st["cells"] = len(j.cells)
			j.mu.Unlock()
		}
		writeJSON(w, 200, st)
		return
	}
	if j.kind == jobRun && j.key != "" {
		w.Header().Set("X-Fcdpm-Key", j.key)
	}
	status, body, errMsg, code := j.outcome()
	if body != nil {
		writeBody(w, code, body)
		return
	}
	writeJobErr(w, code, j.retryAfterHint(), "%s: %s", status, errMsg)
}

// handleJobEvents tails the job's event log as NDJSON until the job
// resolves or the client disconnects. Flushes per line, so progress is
// observable live.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, 404, "unknown job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(200)
	fl, _ := w.(http.Flusher)
	for i := 0; ; i++ {
		line, ok := j.events.next(r.Context(), i)
		if !ok {
			return
		}
		w.Write(line)
		w.Write([]byte("\n"))
		if fl != nil {
			fl.Flush()
		}
	}
}

// healthz is the liveness document: build identity and uptime.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, 200, map[string]any{
		"status":  status,
		"engine":  s.engine,
		"build":   version.Get(),
		"uptimeS": time.Since(s.started).Seconds(),
	})
}

// statsPayload is the /v1/stats document.
type statsPayload struct {
	Pool  poolStatsDoc  `json:"pool"`
	Runs  runStatsDoc   `json:"runs"`
	Cache cache.Stats   `json:"cache"`
	Jobs  jobStatsDoc   `json:"jobs"`
	Perf  perfStatsDoc  `json:"perf"`
	Batch batchStatsDoc `json:"batch"`
}

// batchStatsDoc snapshots the batched-execution instruments: how many
// BatchRunner walks served sweep chunks, how wide they were, and how
// many per-slot plan+integrate executions the lane grouping amortized
// away (the fcdpm_sim_batch_lanes / _plan_group_hits series /metrics
// exports).
type batchStatsDoc struct {
	Batches       int64   `json:"batches"`
	LanesTotal    int64   `json:"lanesTotal"`
	AvgLanes      float64 `json:"avgLanes"`
	PlanGroupHits int64   `json:"planGroupHits"`
}

// perfStatsDoc aggregates simulation wall time and slot throughput over
// every completed (non-cached) run since the server started.
type perfStatsDoc struct {
	Runs        int64   `json:"runs"`
	Slots       int64   `json:"slots"`
	WallSeconds float64 `json:"wallSeconds"`
	// AvgRunMs is the mean simulation wall time per run.
	AvgRunMs float64 `json:"avgRunMs"`
	// SlotsPerSec is the aggregate simulated-slot throughput.
	SlotsPerSec float64 `json:"slotsPerSec"`
	// RunP50Ms/P95Ms/P99Ms are bounded-bucket quantile estimates of the
	// per-run simulation wall time (obs.Histogram.Quantiles over the
	// same fcdpm_sim_run_seconds series /metrics exports).
	RunP50Ms float64 `json:"runP50Ms"`
	RunP95Ms float64 `json:"runP95Ms"`
	RunP99Ms float64 `json:"runP99Ms"`
}

type poolStatsDoc struct {
	Workers  int   `json:"workers"`
	Queue    int   `json:"queue"`
	Inflight int64 `json:"inflight"`
}

type runStatsDoc struct {
	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Shed      int64 `json:"shed"`
	Coalesced int64 `json:"coalesced"`
}

type jobStatsDoc struct {
	Active   int `json:"active"`
	Retained int `json:"retained"`
}

// handleStats renders the JSON stats document. Every number is read
// from the obs registry's instruments — the same source /metrics
// renders — so the two views cannot drift.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	active, retained := s.reg.counts()
	m := s.metrics
	writeJSON(w, 200, statsPayload{
		Pool: poolStatsDoc{
			Workers:  s.opts.Workers,
			Queue:    s.opts.Queue,
			Inflight: int64(m.inflight.Value()),
		},
		Runs: runStatsDoc{
			Submitted: int64(m.runsSubmitted.Value()),
			Done:      int64(m.runsDone.Value()),
			Failed:    int64(m.runsFailed.Value()),
			Shed:      int64(m.runsShed.Value()),
			Coalesced: int64(m.runsCoalesced.Value()),
		},
		Cache: s.cache.Stats(),
		Jobs:  jobStatsDoc{Active: active, Retained: retained},
		Perf:  s.perfStats(),
		Batch: s.batchStats(),
	})
}

// batchStats snapshots the BatchRunner instrument set.
func (s *Server) batchStats() batchStatsDoc {
	b := s.metrics.batch
	doc := batchStatsDoc{
		Batches:       int64(b.Batches.Value()),
		LanesTotal:    int64(b.Lanes.Sum()),
		PlanGroupHits: int64(b.PlanGroupHits.Value()),
	}
	if doc.Batches > 0 {
		doc.AvgLanes = float64(doc.LanesTotal) / float64(doc.Batches)
	}
	return doc
}

// perfStats snapshots the simulation-perf instruments. The loads are
// not mutually atomic; under concurrent runs the ratios are approximate,
// which is fine for an operational gauge.
func (s *Server) perfStats() perfStatsDoc {
	sim := s.metrics.sim
	doc := perfStatsDoc{
		Runs:        int64(sim.Runs.Value()),
		Slots:       int64(sim.Slots.Value()),
		WallSeconds: sim.RunSeconds.Sum(),
	}
	if doc.Runs > 0 {
		doc.AvgRunMs = doc.WallSeconds * 1e3 / float64(doc.Runs)
	}
	if doc.WallSeconds > 0 {
		doc.SlotsPerSec = float64(doc.Slots) / doc.WallSeconds
	}
	qs := sim.RunSeconds.Quantiles(0.5, 0.95, 0.99)
	doc.RunP50Ms, doc.RunP95Ms, doc.RunP99Ms = qs[0]*1e3, qs[1]*1e3, qs[2]*1e3
	return doc
}

// Close drains the service: admission stops, in-flight runs finish
// (bounded by DrainTimeout, then force-canceled). A forced drain
// returns an error wrapping runner.ErrInterrupted so callers keep the
// exit-code discipline (3: interrupted).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		done := make(chan error, 1)
		go func() {
			_, err := s.pool.Drain()
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(s.opts.DrainTimeout):
			s.opts.Logf("fcdpm serve: drain timeout after %s, canceling in-flight runs", s.opts.DrainTimeout)
			s.poolStop()
			err = <-done
		}
		s.poolStop()
		if err != nil {
			s.closeErr = fmt.Errorf("server: drain: %w", err)
		}
	})
	return s.closeErr
}

// Serve runs the service until ctx is canceled (SIGTERM/SIGINT in the
// CLI), then shuts down gracefully: the listener closes, in-flight
// requests and runs drain, the cache's disk tier is already durable. A
// clean drain returns nil; a forced one wraps runner.ErrInterrupted.
func Serve(ctx context.Context, opts Options) error {
	s, err := New(opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		s.Close()
		return fmt.Errorf("server: listen: %w", err)
	}
	s.opts.Logf("fcdpm serve: listening on http://%s (engine %s)", ln.Addr(), s.engine)
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		s.Close()
		return fmt.Errorf("server: %w", err)
	case <-ctx.Done():
	}
	s.opts.Logf("fcdpm serve: draining (admission closed, in-flight runs finishing)")
	// Pool drain and HTTP shutdown proceed together: handlers blocked on
	// pending jobs resolve as workers finish, which lets Shutdown return.
	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Close() }()
	shutCtx, cancel := context.WithTimeout(context.Background(),
		s.opts.DrainTimeout+5*time.Second)
	defer cancel()
	herr := hs.Shutdown(shutCtx)
	cerr := <-drainErr
	if cerr != nil {
		return cerr
	}
	if herr != nil {
		return fmt.Errorf("server: shutdown forced: %w (%v)", runner.ErrInterrupted, herr)
	}
	s.opts.Logf("fcdpm serve: drained cleanly")
	return nil
}
