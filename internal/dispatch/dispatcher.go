package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fcdpm/internal/cache"
	"fcdpm/internal/config"
	"fcdpm/internal/httpx"
	"fcdpm/internal/obs"
	"fcdpm/internal/report"
	"fcdpm/internal/runner"
	"fcdpm/internal/stream"
	"fcdpm/internal/version"
	"fcdpm/internal/vfs"
)

// Dispatcher defaults.
const (
	// DefaultAddr binds loopback; the fabric is an operator tool.
	DefaultAddr = "127.0.0.1:8081"
	// DefaultLeaseTTL is how long a granted lease lives without a
	// heartbeat before the shard is reclaimed.
	DefaultLeaseTTL = 15 * time.Second
	// DefaultCacheBytes bounds the in-memory result cache tier.
	DefaultCacheBytes = 64 << 20
	// maxBodyBytes bounds request bodies (413 beyond).
	maxBodyBytes = 8 << 20
	// maxSweepShards bounds one sweep submission.
	maxSweepShards = 4096
	// drainRetryAfter is the Retry-After hint on draining 503s.
	drainRetryAfter = 5 * time.Second
	// emptyQueueRetryAfter hints pollers when no work was available.
	emptyQueueRetryAfter = 1 * time.Second
	// fenceRetryAfter is the Retry-After hint while admissions are
	// fenced by a WAL write failure.
	fenceRetryAfter = 2 * time.Second
	// epochGenShift positions the replay generation in a shard's lease
	// epoch: epochs after the Nth restart start at N<<epochGenShift, so
	// a pre-crash lease token can never collide with a post-restart one.
	epochGenShift = 20
)

// Shard states. Only completed and failed are terminal (and journaled);
// queued, leased, and executing are reconstructed as queued on restart.
const (
	shardQueued    = "queued"
	shardLeased    = "leased"
	shardExecuting = "executing"
	shardCompleted = "completed"
	shardFailed    = "failed"
)

// Options tunes the dispatcher.
type Options struct {
	// Addr is the listen address (default DefaultAddr).
	Addr string
	// StateDir holds the WAL (dispatch.wal) and the disk tier of the
	// result cache (cache/). Empty means ephemeral: no durability, no
	// restart resume — fine for tests, not for real sweeps.
	StateDir string
	// LeaseTTL is the heartbeat deadline (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// CacheBytes bounds the memory cache tier (default DefaultCacheBytes).
	CacheBytes int64
	// Logf receives operational log lines; nil silences them.
	Logf func(format string, args ...any)
	// Now overrides the clock (tests, chaos trials); nil means time.Now.
	// Every dispatcher timestamp — lease expiry, worker liveness, event
	// stream timestamps, uptime — reads this clock.
	Now func() time.Time
	// FS overrides the filesystem under the WAL and the result cache's
	// disk tier (chaos trials); nil means the real one.
	FS vfs.FS
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = DefaultAddr
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = DefaultCacheBytes
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.FS == nil {
		o.FS = vfs.Default
	}
	return o
}

// shard is one scenario cell's dispatch state.
type shard struct {
	doc      shardDoc
	state    string
	cached   bool
	errMsg   string
	worker   string
	epoch    int
	expires  time.Time
	enqueued time.Time
}

// sweep is one accepted sweep: its shards in submission order, progress
// accounting, and the NDJSON event stream.
type sweep struct {
	id, name  string
	shards    []*shard
	remaining int
	completed int
	cached    int
	failed    int
	events    *eventLog
	done      chan struct{}
}

func (s *sweep) status() string {
	switch {
	case s.remaining > 0:
		return "running"
	case s.failed > 0:
		return "failed"
	default:
		return "done"
	}
}

// shardRef addresses a shard in the dispatch queue.
type shardRef struct {
	sweep string
	index int
}

// Dispatcher owns the durable sweep queue: accepts sweeps, leases
// shards to workers, reclaims expired leases, journals every durable
// transition, and serves results byte-identically from the
// content-addressed cache.
type Dispatcher struct {
	opts    Options
	engine  string
	started time.Time
	cache   *cache.Store
	wal     *wal // nil when ephemeral
	metrics *dispatchMetrics
	mux     *http.ServeMux

	draining atomic.Bool
	// fenced marks the WAL unwritable after an append failure: admissions
	// and leases answer 503 + Retry-After until an append succeeds again
	// (each fenced request probes the journal, so the fence self-heals).
	fenced atomic.Bool
	// gen is the journal's replay generation: how many times this state
	// dir has been opened. Lease epochs of requeued shards start at
	// gen<<epochGenShift so pre-crash tokens never collide.
	gen int
	// genDirty marks a generation bump that is not yet durable (startup
	// compaction failed and the immediate op=gen append failed too). The
	// next successful journal append flushes it — until then the fence
	// keeps admissions and leases shut anyway.
	genDirty atomic.Bool

	mu     sync.Mutex
	seq    int
	sweeps map[string]*sweep
	order  []string
	queue  []shardRef
	// workers maps worker name → last contact, for the liveness gauge.
	workers map[string]time.Time
	// inState counts shards by state for the gauges and /v1/stats.
	inState map[string]int

	closeOnce sync.Once
	closeErr  error
}

// New builds a Dispatcher, replaying the WAL when StateDir holds one:
// terminal shards keep their state (completed shards must still have
// their body in the disk cache, else they re-run), every other shard
// re-enters the queue, and the journal is compacted.
func New(opts Options) (*Dispatcher, error) {
	opts = opts.withDefaults()
	reg := obs.NewRegistry()
	cacheDir := ""
	if opts.StateDir != "" {
		cacheDir = filepath.Join(opts.StateDir, "cache")
	}
	store, err := cache.NewFS(opts.CacheBytes, cacheDir, reg, opts.FS)
	if err != nil {
		return nil, err
	}
	d := &Dispatcher{
		opts:    opts,
		engine:  version.Engine(),
		started: opts.Now(),
		cache:   store,
		metrics: newDispatchMetrics(reg),
		sweeps:  make(map[string]*sweep),
		workers: make(map[string]time.Time),
		inState: make(map[string]int),
	}
	reg.GaugeFunc("fcdpm_dispatch_queue_depth", "Shards waiting for a lease.", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.queue))
	})
	reg.GaugeFunc("fcdpm_dispatch_wal_fenced", "1 while admissions and leasing are fenced by a WAL write failure.", func() float64 {
		if d.fenced.Load() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("fcdpm_dispatch_shards_leased", "Shards leased, awaiting first heartbeat.", d.stateGauge(shardLeased))
	reg.GaugeFunc("fcdpm_dispatch_shards_executing", "Shards executing on workers.", d.stateGauge(shardExecuting))
	reg.GaugeFunc("fcdpm_dispatch_workers_live", "Workers heard from within 3 lease TTLs.", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		live := 0
		cutoff := d.opts.Now().Add(-3 * d.opts.LeaseTTL)
		for _, seen := range d.workers {
			if seen.After(cutoff) {
				live++
			}
		}
		return float64(live)
	})
	if opts.StateDir != "" {
		w, records, err := openWAL(opts.FS, filepath.Join(opts.StateDir, "dispatch.wal"))
		if err != nil {
			return nil, err
		}
		d.wal = w
		if err := d.replay(records); err != nil {
			w.close()
			return nil, err
		}
	}
	d.mux = http.NewServeMux()
	d.routes()
	return d, nil
}

func (d *Dispatcher) stateGauge(state string) func() float64 {
	return func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(d.inState[state])
	}
}

// Handler returns the HTTP surface.
func (d *Dispatcher) Handler() http.Handler { return d.mux }

func (d *Dispatcher) routes() {
	d.mux.HandleFunc("POST /v1/sweeps", d.handleSweepPost)
	d.mux.HandleFunc("GET /v1/sweeps/{id}", d.handleSweepGet)
	d.mux.HandleFunc("GET /v1/sweeps/{id}/events", d.handleSweepEvents)
	d.mux.HandleFunc("GET /v1/sweeps/{id}/results", d.handleSweepResults)
	d.mux.HandleFunc("POST /v1/lease", d.handleLease)
	d.mux.HandleFunc("POST /v1/heartbeat", d.handleHeartbeat)
	d.mux.HandleFunc("POST /v1/complete", d.handleComplete)
	d.mux.HandleFunc("GET /v1/stats", d.handleStats)
	d.mux.HandleFunc("GET /healthz", d.handleHealthz)
	d.mux.HandleFunc("GET /metrics", d.handleMetrics)
}

// replay rebuilds dispatch state from the journal and compacts it.
// Terminal shards keep their outcome; a "completed" shard whose body no
// longer exists in the cache is demoted to queued (the WAL and the disk
// cache live in the same state dir, but a missing blob must mean
// re-simulation, never a hole in the results). Everything else —
// whatever state it was in when the dispatcher died — re-enters the
// queue; re-dispatch is idempotent so this is always safe.
func (d *Dispatcher) replay(records []json.RawMessage) error {
	type opOnly struct {
		Op string `json:"op"`
	}
	requeued := 0
	for _, rec := range records {
		var op opOnly
		if err := json.Unmarshal(rec, &op); err != nil {
			continue
		}
		switch op.Op {
		case "gen":
			var g walGen
			if err := json.Unmarshal(rec, &g); err == nil && g.Gen > d.gen {
				d.gen = g.Gen
			}
		case "sweep":
			var ws walSweep
			if err := json.Unmarshal(rec, &ws); err != nil {
				return fmt.Errorf("dispatch: wal sweep record: %w", err)
			}
			if ws.Engine != d.engine {
				// A sweep journaled by a different build: its cache keys are
				// unreachable by this engine, so its pending shards would
				// produce rows the submitter's keys don't address. Refuse to
				// guess — fail startup loudly.
				return fmt.Errorf("dispatch: wal sweep %s was accepted by engine %s, this build is %s", ws.ID, ws.Engine, d.engine)
			}
			sw := &sweep{
				id: ws.ID, name: ws.Name,
				shards: make([]*shard, len(ws.Shards)),
				events: newEventLog(d.opts.Now),
				done:   make(chan struct{}),
			}
			for i, doc := range ws.Shards {
				state, cached, errMsg := doc.State, doc.Cached, doc.Err
				doc.State, doc.Cached, doc.Err = "", false, ""
				sh := &shard{doc: doc, state: shardQueued}
				if state == shardCompleted {
					if _, ok := d.cache.Get(doc.Key); ok {
						sh.state, sh.cached = shardCompleted, cached
					}
				} else if state == shardFailed {
					sh.state, sh.errMsg = shardFailed, errMsg
				}
				sw.shards[i] = sh
			}
			d.adoptSweep(sw)
			var n int
			fmt.Sscanf(ws.ID, "swp-%d", &n)
			if n > d.seq {
				d.seq = n
			}
		case "shard":
			var rec2 walShard
			if err := json.Unmarshal(rec, &rec2); err != nil {
				return fmt.Errorf("dispatch: wal shard record: %w", err)
			}
			sw, ok := d.sweeps[rec2.Sweep]
			if !ok || rec2.Index < 0 || rec2.Index >= len(sw.shards) {
				continue
			}
			sh := sw.shards[rec2.Index]
			if sh.state == shardCompleted || sh.state == shardFailed {
				continue
			}
			if rec2.State == shardCompleted {
				if _, ok := d.cache.Get(sh.doc.Key); !ok {
					continue // body lost: stay queued, re-simulate
				}
				sh.cached = rec2.Cached
			}
			sh.state = rec2.State
			sh.errMsg = rec2.Err
		}
	}
	// This open is one generation newer than whatever wrote the journal.
	d.gen++
	// Rebuild derived state: counts, queue, event streams. Requeued
	// shards restart their lease epochs at the new generation's base, so
	// a lease token granted before the crash can never equal one granted
	// after it — a dead holder's stale failure verdict must not be
	// mistaken for the new holder's.
	now := d.opts.Now()
	for _, id := range d.order {
		sw := d.sweeps[id]
		for i, sh := range sw.shards {
			d.inState[sh.state]++
			switch sh.state {
			case shardCompleted:
				sw.completed++
				if sh.cached {
					sw.cached++
				}
			case shardFailed:
				sw.failed++
			default:
				sw.remaining++
				sh.enqueued = now
				sh.epoch = d.gen << epochGenShift
				d.queue = append(d.queue, shardRef{sweep: id, index: i})
				requeued++
			}
		}
		sw.events.append(Event{Kind: "recovered", Sweep: id,
			Detail: fmt.Sprintf("%d of %d shards pending after restart", sw.remaining, len(sw.shards))})
		if sw.remaining == 0 {
			d.finalizeLocked(sw)
		}
	}
	if requeued > 0 {
		d.metrics.reclaimed.Add(float64(requeued))
		d.opts.Logf("fcdpm dispatchd: recovered %d sweeps, requeued %d shards", len(d.order), requeued)
	}
	// Compaction is an optimization, not a prerequisite: the journal just
	// replayed cleanly, so if the rewrite fails (disk full at startup)
	// the dispatcher keeps running on the uncompacted file. The one thing
	// that must still become durable is the generation bump — without it
	// a second restart would reuse this generation's lease-epoch base and
	// a stale pre-crash verdict could collide with a live lease. Append
	// it through the normal path; if even that fails, the fence is up and
	// the first successful append flushes it (walAppend checks genDirty).
	if err := d.wal.compact(d.compactRecords()); err != nil {
		d.opts.Logf("fcdpm dispatchd: startup compaction failed, continuing on uncompacted journal: %v", err)
		if aerr := d.walAppend(walGen{Op: "gen", Gen: d.gen}); aerr != nil {
			d.genDirty.Store(true)
		}
	}
	return nil
}

// adoptSweep registers a sweep under the state lock's protection (New
// runs single-threaded, handleSweepPost holds d.mu).
func (d *Dispatcher) adoptSweep(sw *sweep) {
	d.sweeps[sw.id] = sw
	d.order = append(d.order, sw.id)
}

// compactRecords folds terminal shard states into one sweep record per
// live sweep, headed by the generation record that anchors lease-epoch
// bases for the next replay.
func (d *Dispatcher) compactRecords() []any {
	recs := []any{walGen{Op: "gen", Gen: d.gen}}
	for _, id := range d.order {
		sw := d.sweeps[id]
		ws := walSweep{Op: "sweep", ID: sw.id, Name: sw.name, Engine: d.engine,
			Shards: make([]shardDoc, len(sw.shards))}
		for i, sh := range sw.shards {
			doc := sh.doc
			if sh.state == shardCompleted || sh.state == shardFailed {
				doc.State, doc.Cached, doc.Err = sh.state, sh.cached, sh.errMsg
			}
			ws.Shards[i] = doc
		}
		recs = append(recs, ws)
	}
	return recs
}

// handleSweepPost validates every scenario up front (a sweep with one
// bad cell is rejected whole), journals the sweep, resolves cache-hit
// shards immediately, queues the rest, and answers 202.
func (d *Dispatcher) handleSweepPost(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if httpx.WriteBodyLimit(w, err) {
			return
		}
		httpx.WriteErr(w, 400, "invalid sweep request: %v", err)
		return
	}
	if len(req.Scenarios) == 0 {
		httpx.WriteErr(w, 400, "sweep has no scenarios")
		return
	}
	if len(req.Scenarios) > maxSweepShards {
		httpx.WriteErr(w, 400, "sweep exceeds %d shards", maxSweepShards)
		return
	}
	docs := make([]shardDoc, len(req.Scenarios))
	for i, raw := range req.Scenarios {
		spec, err := config.LoadValidated(bytes.NewReader(raw))
		if err != nil {
			httpx.WriteErr(w, 400, "scenario %d: %v", i, err)
			return
		}
		canon, err := spec.Canonical()
		if err != nil {
			httpx.WriteErr(w, 400, "scenario %d: %v", i, err)
			return
		}
		key, err := spec.CacheKey(d.engine)
		if err != nil {
			httpx.WriteErr(w, 400, "scenario %d: %v", i, err)
			return
		}
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("cell-%04d", i)
		}
		docs[i] = shardDoc{Name: name, RunID: ShardRunID(key), Key: key, Spec: canon}
	}
	if d.draining.Load() {
		httpx.WriteUnavailable(w, drainRetryAfter, "draining")
		return
	}
	name := req.Name
	if name == "" {
		name = "sweep"
	}

	d.mu.Lock()
	d.seq++
	sw := &sweep{
		id: fmt.Sprintf("swp-%06d", d.seq), name: name,
		shards:    make([]*shard, len(docs)),
		remaining: len(docs),
		events:    newEventLog(d.opts.Now),
		done:      make(chan struct{}),
	}
	now := d.opts.Now()
	for i, doc := range docs {
		sw.shards[i] = &shard{doc: doc, state: shardQueued, enqueued: now}
	}
	// Journal the sweep before any shard becomes visible: once a 202
	// leaves, a restart must be able to finish the sweep. A failed append
	// fences the dispatcher and answers 503 + Retry-After: the client
	// retries, each retry probes the journal, and the first successful
	// append lifts the fence — admission degrades to back-pressure
	// instead of corrupting state or failing the sweep outright.
	if err := d.walAppend(walSweep{Op: "sweep", ID: sw.id, Name: sw.name, Engine: d.engine, Shards: docs}); err != nil {
		d.seq-- // the sweep was never admitted; don't burn the ID
		d.mu.Unlock()
		httpx.WriteUnavailable(w, fenceRetryAfter, "journal unwritable: %v", err)
		return
	}
	d.adoptSweep(sw)
	d.metrics.sweeps.Inc()
	d.metrics.shards.Add(float64(len(docs)))
	for range docs {
		d.inState[shardQueued]++
	}
	sw.events.append(Event{Kind: "accepted", Sweep: sw.id,
		Detail: fmt.Sprintf("%d shards", len(docs))})
	for i, sh := range sw.shards {
		if _, ok := d.cache.Get(sh.doc.Key); ok {
			if d.completeLocked(sw, i, shardCompleted, true, "", "") {
				continue
			}
			// The journal refused the cache-hit completion (the sweep
			// record itself just landed, so this is a mid-admission disk
			// failure). The shard is still queued state-wise; without a
			// queue entry it could never be leased, so it would wedge the
			// sweep forever. Queue it — the lease path retries the
			// cache-hit completion once the journal recovers.
		}
		d.queue = append(d.queue, shardRef{sweep: sw.id, index: i})
	}
	id, n := sw.id, len(docs)
	d.mu.Unlock()

	d.opts.Logf("fcdpm dispatchd: accepted %s (%d shards)", id, n)
	httpx.WriteJSON(w, 202, SweepAccepted{ID: id, Shards: n, Events: "/v1/sweeps/" + id + "/events"})
}

// walAppend journals one record; a nil WAL (ephemeral mode) accepts
// everything. Called with d.mu held so journal order matches state
// order. An append failure raises the fence (admissions and leases shed
// with 503 until the journal writes again); the first success after a
// failure lowers it.
func (d *Dispatcher) walAppend(v any) error {
	if d.wal == nil {
		return nil
	}
	if err := d.wal.append(v); err != nil {
		if !d.fenced.Swap(true) {
			d.metrics.fenceEvents.Inc()
			d.opts.Logf("fcdpm dispatchd: WAL append failed, fencing admissions: %v", err)
		}
		return err
	}
	if d.fenced.Swap(false) {
		d.opts.Logf("fcdpm dispatchd: WAL writable again, fence lifted")
	}
	if d.genDirty.Load() && d.wal.append(walGen{Op: "gen", Gen: d.gen}) == nil {
		d.genDirty.Store(false)
	}
	return nil
}

// walProbe is the op=probe record: a no-op line appended by a fenced
// lease path to test whether the journal recovered. Replay skips it;
// compaction drops it.
type walProbe struct {
	Op string `json:"op"`
}

// probeFence re-tests a fenced journal with a throwaway append, holding
// d.mu. Reports whether the dispatcher is still fenced afterwards.
func (d *Dispatcher) probeFence() bool {
	if !d.fenced.Load() {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.fenced.Load() {
		return false
	}
	return d.walAppend(walProbe{Op: "probe"}) != nil
}

// completeLocked is the single place a shard reaches a terminal state:
// from a worker's delivery, from a cache hit at submission or lease
// time, or from replay-free failure paths. Caller holds d.mu. It
// reports whether the transition committed: false means the journal
// refused the record and the shard is still in its prior state — a
// caller that owns the shard's queue membership must put it back in the
// queue, or it can never be leased again.
func (d *Dispatcher) completeLocked(sw *sweep, idx int, state string, cached bool, errMsg, worker string) bool {
	sh := sw.shards[idx]
	if sh.state == shardCompleted || sh.state == shardFailed {
		return true
	}
	if err := d.walAppend(walShard{Op: "shard", Sweep: sw.id, Index: idx, State: state, Cached: cached, Err: errMsg}); err != nil {
		// The transition is not durable; leave the shard pending so it
		// re-dispatches rather than silently losing the outcome.
		d.opts.Logf("fcdpm dispatchd: journal append failed, holding %s/%d pending: %v", sw.id, idx, err)
		return false
	}
	d.inState[sh.state]--
	d.inState[state]++
	sh.state, sh.cached, sh.errMsg, sh.worker = state, cached, errMsg, worker
	sw.remaining--
	switch state {
	case shardCompleted:
		sw.completed++
		d.metrics.completed.Inc()
		if cached {
			sw.cached++
			d.metrics.cached.Inc()
		}
	case shardFailed:
		sw.failed++
		d.metrics.failed.Inc()
	}
	d.metrics.shardSeconds.Observe(d.opts.Now().Sub(sh.enqueued).Seconds())
	sw.events.append(Event{Kind: "shard", Sweep: sw.id, Shard: sh.doc.Name,
		State: state, Cached: cached, Worker: worker, Detail: errMsg})
	if sw.remaining == 0 {
		d.finalizeLocked(sw)
	}
	return true
}

// finalizeLocked resolves a sweep: terminal event, stream close, done.
func (d *Dispatcher) finalizeLocked(sw *sweep) {
	sw.events.append(Event{Kind: "resolved", Sweep: sw.id, State: sw.status(),
		Detail: fmt.Sprintf("%d completed (%d cached), %d failed", sw.completed, sw.cached, sw.failed)})
	sw.events.close()
	close(sw.done)
}

// handleLease grants up to Max queued shards to a worker. Shards whose
// result landed in the cache since they queued complete immediately
// instead of being granted — the lazy half of idempotent re-dispatch.
func (d *Dispatcher) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !d.decodeBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		httpx.WriteErr(w, 400, "missing worker name")
		return
	}
	if req.Engine != d.engine {
		httpx.WriteErr(w, http.StatusConflict,
			"engine mismatch: dispatcher %s, worker %s", d.engine, req.Engine)
		return
	}
	if d.draining.Load() {
		httpx.WriteUnavailable(w, drainRetryAfter, "draining")
		return
	}
	// While the journal is unwritable, granting leases only burns worker
	// cycles: the resulting completions could not be journaled and would
	// be held pending anyway. Probe (so the fence lifts the moment the
	// disk recovers) and shed if still fenced.
	if d.probeFence() {
		httpx.WriteUnavailable(w, fenceRetryAfter, "journal unwritable: leasing fenced")
		return
	}
	if req.Max <= 0 {
		req.Max = 1
	}

	d.mu.Lock()
	d.workers[req.Worker] = d.opts.Now()
	var granted []Shard
	// Bounded by the queue length at entry: a cache-hit shard whose
	// completion the journal refuses goes back on the queue, and an
	// unbounded loop would spin on it forever while the journal is down.
	for pops := len(d.queue); len(granted) < req.Max && len(d.queue) > 0 && pops > 0; pops-- {
		ref := d.queue[0]
		d.queue = d.queue[1:]
		sw := d.sweeps[ref.sweep]
		sh := sw.shards[ref.index]
		if sh.state != shardQueued {
			continue // reclaimed-and-completed while queued twice; skip
		}
		if _, ok := d.cache.Get(sh.doc.Key); ok {
			if !d.completeLocked(sw, ref.index, shardCompleted, true, "", "") {
				// Journal refused the completion: the shard is still
				// queued, and it just left the queue slice — put it back
				// or it can never be leased again.
				d.queue = append(d.queue, ref)
			}
			continue
		}
		now := d.opts.Now()
		sh.epoch++
		sh.worker = req.Worker
		sh.expires = now.Add(d.opts.LeaseTTL)
		d.inState[sh.state]--
		d.inState[shardLeased]++
		sh.state = shardLeased
		granted = append(granted, Shard{
			Sweep: sw.id, Index: ref.index, Name: sh.doc.Name,
			RunID: sh.doc.RunID, Key: sh.doc.Key, Spec: sh.doc.Spec,
			Lease: leaseToken(sw.id, ref.index, sh.epoch),
			TTLMs: d.opts.LeaseTTL.Milliseconds(),
		})
	}
	d.metrics.leases.Add(float64(len(granted)))
	d.mu.Unlock()

	if len(granted) == 0 {
		// Not an error: an empty grant with a poll hint.
		w.Header().Set("Retry-After", "1")
	}
	httpx.WriteJSON(w, 200, LeaseResponse{Shards: granted})
}

// leaseToken encodes a lease's identity; parseLease inverts it.
func leaseToken(sweepID string, index, epoch int) string {
	return fmt.Sprintf("%s/%d/%d", sweepID, index, epoch)
}

func parseLease(token string) (sweepID string, index, epoch int, ok bool) {
	parts := strings.Split(token, "/")
	if len(parts) != 3 {
		return "", 0, 0, false
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &index); err != nil {
		return "", 0, 0, false
	}
	if _, err := fmt.Sscanf(parts[2], "%d", &epoch); err != nil {
		return "", 0, 0, false
	}
	return parts[0], index, epoch, true
}

// ShardRunID derives the deterministic run identity of a shard from its
// content address: every re-dispatch of the same simulation shares one
// run ID, which is what "exactly one result row per RunID" means.
func ShardRunID(key string) string {
	return runner.RunID("shard", "key="+key)
}

// handleHeartbeat renews the presented leases. A lease that cannot be
// renewed (expired and reclaimed, superseded epoch, finished shard) is
// reported lost; the worker cancels that execution.
func (d *Dispatcher) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !d.decodeBody(w, r, &req) {
		return
	}
	resp := HeartbeatResponse{}
	d.mu.Lock()
	d.workers[req.Worker] = d.opts.Now()
	for _, token := range req.Leases {
		sweepID, idx, epoch, ok := parseLease(token)
		var sh *shard
		var sw *sweep
		if ok {
			if sw = d.sweeps[sweepID]; sw != nil && idx >= 0 && idx < len(sw.shards) {
				sh = sw.shards[idx]
			}
		}
		if sh == nil || sh.epoch != epoch || (sh.state != shardLeased && sh.state != shardExecuting) {
			resp.Lost = append(resp.Lost, token)
			continue
		}
		if sh.state == shardLeased {
			// First heartbeat: the worker confirmed pickup.
			d.inState[shardLeased]--
			d.inState[shardExecuting]++
			sh.state = shardExecuting
		}
		sh.expires = d.opts.Now().Add(d.opts.LeaseTTL)
		resp.Renewed = append(resp.Renewed, token)
	}
	d.mu.Unlock()
	httpx.WriteJSON(w, 200, resp)
}

// handleComplete accepts one shard outcome, at-least-once. Dedup rules:
//
//   - shard already terminal → duplicate:true (the worker drops it);
//     a success body is still cached, because results are free.
//   - stale epoch + success → accepted: a result is a result, whoever
//     computed it. The reclaimed twin will dedup at its own delivery.
//   - stale epoch + failure → ignored as duplicate: the lease was
//     reclaimed, so the failure verdict belongs to the new holder.
func (d *Dispatcher) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !d.decodeBody(w, r, &req) {
		return
	}
	sweepID, idx, epoch, ok := parseLease(req.Lease)
	if !ok {
		httpx.WriteErr(w, 400, "malformed lease %q", req.Lease)
		return
	}
	if req.OK {
		if len(req.Body) == 0 || !json.Valid(req.Body) {
			httpx.WriteErr(w, 400, "success completion without a valid body")
			return
		}
		// Cache before taking the lock: content-addressed, so this is
		// safe even for duplicates and stale leases.
		d.cache.Put(req.Key, req.Body)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if req.Worker != "" {
		d.workers[req.Worker] = d.opts.Now()
	}
	sw := d.sweeps[sweepID]
	if sw == nil || idx < 0 || idx >= len(sw.shards) {
		httpx.WriteErr(w, 404, "unknown shard %s/%d", sweepID, idx)
		return
	}
	sh := sw.shards[idx]
	if sh.state == shardCompleted || sh.state == shardFailed {
		d.metrics.duplicates.Inc()
		httpx.WriteJSON(w, 200, CompleteResponse{Duplicate: true})
		return
	}
	if req.OK {
		d.completeLocked(sw, idx, shardCompleted, false, "", req.Worker)
		httpx.WriteJSON(w, 200, CompleteResponse{})
		return
	}
	if sh.epoch != epoch {
		d.metrics.duplicates.Inc()
		httpx.WriteJSON(w, 200, CompleteResponse{Duplicate: true})
		return
	}
	d.completeLocked(sw, idx, shardFailed, false, req.Error, req.Worker)
	httpx.WriteJSON(w, 200, CompleteResponse{})
}

// decodeBody reads one bounded JSON body; 413 oversize, 400 malformed.
func (d *Dispatcher) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		if !httpx.WriteBodyLimit(w, err) {
			httpx.WriteErr(w, 400, "invalid request: %v", err)
		}
		return false
	}
	return true
}

// ReclaimExpired returns every shard whose lease expired to the queue
// under a fresh epoch. The old holder's heartbeat will report the lease
// lost; its success delivery, should one still arrive, is accepted by
// the stale-epoch rule. A lease is reclaimed only once it has been
// expired for a third of its TTL, the skew grace: a worker whose clock
// runs slow by a bounded factor (up to ~25 % at the TTL/3 heartbeat
// cadence) still lands its heartbeat inside the padded window instead
// of losing work to clock skew. Exported for the chaos harness, which
// drives reclamation from its own clock.
func (d *Dispatcher) ReclaimExpired() int {
	now := d.opts.Now()
	grace := d.opts.LeaseTTL / 3
	n := 0
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, id := range d.order {
		sw := d.sweeps[id]
		for i, sh := range sw.shards {
			if sh.state != shardLeased && sh.state != shardExecuting {
				continue
			}
			if sh.expires.Add(grace).After(now) {
				continue
			}
			d.inState[sh.state]--
			d.inState[shardQueued]++
			worker := sh.worker
			sh.state, sh.worker = shardQueued, ""
			sh.epoch++ // invalidate the dead holder's failure verdicts
			d.queue = append(d.queue, shardRef{sweep: id, index: i})
			d.metrics.expired.Inc()
			d.metrics.reclaimed.Inc()
			sw.events.append(Event{Kind: "reclaimed", Sweep: id, Shard: sh.doc.Name,
				Worker: worker, Detail: "lease expired"})
			n++
		}
	}
	return n
}

// handleSweepGet reports a sweep's progress document.
func (d *Dispatcher) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	sw, ok := d.sweeps[r.PathValue("id")]
	if !ok {
		d.mu.Unlock()
		httpx.WriteErr(w, 404, "unknown sweep")
		return
	}
	st := SweepStatus{
		ID: sw.id, Name: sw.name, Status: sw.status(),
		Shards: len(sw.shards), Remaining: sw.remaining,
		Completed: sw.completed, Cached: sw.cached, Failed: sw.failed,
		Cells: make([]ShardStatus, len(sw.shards)),
	}
	for i, sh := range sw.shards {
		st.Cells[i] = ShardStatus{Name: sh.doc.Name, Key: sh.doc.Key,
			State: sh.state, Cached: sh.cached, Worker: sh.worker, Err: sh.errMsg}
	}
	d.mu.Unlock()
	httpx.WriteJSON(w, 200, st)
}

// handleSweepEvents tails the sweep's NDJSON stream until it resolves
// or the client disconnects.
func (d *Dispatcher) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	sw, ok := d.sweeps[r.PathValue("id")]
	d.mu.Unlock()
	if !ok {
		httpx.WriteErr(w, 404, "unknown sweep")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(200)
	fl, _ := w.(http.Flusher)
	for i := 0; ; i++ {
		line, ok := sw.events.next(r.Context(), i)
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

// handleSweepResults streams one NDJSON line per completed shard, in
// submission order, each the exact cached report body — byte-identical
// to a local batch of the same specs. 409 until the sweep resolves.
func (d *Dispatcher) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	sw, ok := d.sweeps[r.PathValue("id")]
	var keys []string
	if ok {
		if sw.remaining > 0 {
			d.mu.Unlock()
			httpx.WriteErr(w, http.StatusConflict, "sweep still running (%d shards pending)", sw.remaining)
			return
		}
		for _, sh := range sw.shards {
			if sh.state == shardCompleted {
				keys = append(keys, sh.doc.Key)
			}
		}
	}
	d.mu.Unlock()
	if !ok {
		httpx.WriteErr(w, 404, "unknown sweep")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(200)
	for _, key := range keys {
		body, ok := d.cache.Get(key)
		if !ok {
			// A completed shard's body has vanished (ephemeral dispatcher
			// under memory pressure). Emit a typed error line: the client
			// fails loudly instead of silently missing a row.
			body, _ = json.Marshal(httpx.Error{Error: "result evicted: " + key})
			d.opts.Logf("fcdpm dispatchd: result body missing for key %s", key)
		}
		w.Write(body)
		w.Write([]byte("\n"))
	}
}

// statsPayload is the /v1/stats document.
type statsPayload struct {
	Sweeps  int            `json:"sweeps"`
	Queue   int            `json:"queue"`
	Workers int            `json:"workers"`
	Shards  map[string]int `json:"shards"`
	Cache   cache.Stats    `json:"cache"`
}

func (d *Dispatcher) handleStats(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	shards := make(map[string]int, len(d.inState))
	for k, v := range d.inState {
		if v != 0 {
			shards[k] = v
		}
	}
	doc := statsPayload{
		Sweeps: len(d.sweeps), Queue: len(d.queue),
		Workers: len(d.workers), Shards: shards,
	}
	d.mu.Unlock()
	doc.Cache = d.cache.Stats()
	httpx.WriteJSON(w, 200, doc)
}

func (d *Dispatcher) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if d.draining.Load() {
		status = "draining"
	}
	httpx.WriteJSON(w, 200, map[string]any{
		"status":  status,
		"engine":  d.engine,
		"build":   version.Get(),
		"uptimeS": d.opts.Now().Sub(d.started).Seconds(),
	})
}

func (d *Dispatcher) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	d.metrics.registry.WritePrometheus(w)
}

// eventLog marshals Events onto a stream.Log; the mutex keeps Seq dense
// under concurrent appends (same shape as the server's job streams).
// Timestamps come from the injected clock so fake-clock tests and chaos
// trials see consistent event times.
type eventLog struct {
	mu  sync.Mutex
	now func() time.Time
	log *stream.Log
}

func newEventLog(now func() time.Time) *eventLog {
	return &eventLog{now: now, log: stream.NewLog()}
}

func (l *eventLog) append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.log.Len()
	e.Ts = l.now().UTC().Format(time.RFC3339Nano)
	line, err := report.StableJSON(e)
	if err != nil {
		return
	}
	l.log.Append(line)
}

func (l *eventLog) close() { l.log.Close() }

func (l *eventLog) next(ctx context.Context, i int) ([]byte, bool) {
	return l.log.Next(ctx, i)
}

// Close flushes and closes the WAL. Dispatch state is already durable;
// in-flight leases simply expire on the next start.
func (d *Dispatcher) Close() error {
	d.closeOnce.Do(func() {
		d.draining.Store(true)
		if d.wal != nil {
			d.closeErr = d.wal.close()
		}
	})
	return d.closeErr
}
