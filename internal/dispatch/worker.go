package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"fcdpm/internal/client"
	"fcdpm/internal/config"
	"fcdpm/internal/obs"
	"fcdpm/internal/runner"
	"fcdpm/internal/runreport"
	"fcdpm/internal/version"
	"fcdpm/internal/vfs"
)

// Worker defaults.
const (
	// DefaultPollMin/Max bound the jittered exponential backoff between
	// lease polls (empty queue or unreachable dispatcher).
	DefaultPollMin = 200 * time.Millisecond
	DefaultPollMax = 5 * time.Second
	// completeAttempts bounds delivery retries before a result spools.
	completeAttempts = 5
)

// WorkerOptions tunes one worker daemon.
type WorkerOptions struct {
	// Dispatcher is the dispatcher's base URL (http://host:port).
	Dispatcher string
	// Name identifies this worker in leases and metrics; default
	// hostname-pid.
	Name string
	// Workers bounds concurrent shard executions (default GOMAXPROCS via
	// the pool) and the lease batch size.
	Workers int
	// RunTimeout is the per-shard simulation deadline; 0 means none.
	RunTimeout time.Duration
	// PollMin/PollMax bound the lease-poll backoff.
	PollMin, PollMax time.Duration
	// SpoolDir, when set, buffers results the dispatcher could not
	// receive; the spool drains on reconnect. Empty disables spooling —
	// an undeliverable result is dropped and the shard re-dispatches.
	SpoolDir string
	// SpoolShedPeriod is how long the worker stops taking new leases
	// after a disk-full spool write (default 5s): with nowhere durable to
	// put undeliverable results, more leases would only produce more work
	// to drop.
	SpoolShedPeriod time.Duration
	// Addr, when set, serves /metrics and /healthz for this worker.
	Addr string
	// Logf receives operational log lines; nil silences them.
	Logf func(format string, args ...any)
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Clock paces heartbeats and backoff sleeps (tests, chaos trials);
	// nil means the wall clock. Lease-TTL skew tolerance is exercised by
	// handing the worker a clock that runs slow.
	Clock runner.Clock
	// FS is the filesystem under the result spool (chaos trials); nil
	// means the real one.
	FS vfs.FS
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	o.Dispatcher = strings.TrimRight(o.Dispatcher, "/")
	if o.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "workd"
		}
		o.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.PollMin <= 0 {
		o.PollMin = DefaultPollMin
	}
	if o.PollMax <= 0 {
		o.PollMax = DefaultPollMax
	}
	if o.SpoolShedPeriod <= 0 {
		o.SpoolShedPeriod = 5 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Clock == nil {
		o.Clock = runner.WallClock
	}
	if o.FS == nil {
		o.FS = vfs.Default
	}
	return o
}

// activeShard is one lease this worker holds: the shard, the cancel
// hook for its execution, and whether the dispatcher reclaimed it.
type activeShard struct {
	shard  Shard
	cancel context.CancelFunc
	lost   bool
}

// Worker polls the dispatcher for shards, executes them on a local
// runner.Pool, heartbeats its leases, and delivers results with
// at-least-once semantics: push with retries, spool to disk when the
// dispatcher is unreachable, drain the spool on reconnect.
type Worker struct {
	opts     WorkerOptions
	engine   string
	hc       *http.Client
	metrics  *workerMetrics
	pool     *runner.Pool[struct{}]
	poolStop context.CancelFunc

	mu     sync.Mutex
	active map[string]*activeShard
	ttl    time.Duration
	// shedUntil pauses leasing after a disk-full spool write: until this
	// instant the lease loop sleeps instead of polling.
	shedUntil time.Time
	// hbDue marks a lease granted since the last heartbeat, and wakeHB
	// cuts the heartbeat loop's current sleep short, so pickup is
	// confirmed at once and the cadence follows the granted TTL.
	hbDue  bool
	wakeHB context.CancelFunc

	// slotFree pulses when a lease releases, waking the lease loop.
	slotFree chan struct{}
	// deliveries tracks in-flight result pushes across shutdown.
	deliveries sync.WaitGroup
}

// NewWorker builds a worker daemon.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	opts = opts.withDefaults()
	if opts.Dispatcher == "" {
		return nil, errors.New("dispatch: worker needs a dispatcher URL")
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	w := &Worker{
		opts:     opts,
		engine:   version.Engine(),
		hc:       opts.Client,
		metrics:  newWorkerMetrics(obs.NewRegistry()),
		active:   make(map[string]*activeShard),
		ttl:      DefaultLeaseTTL,
		slotFree: make(chan struct{}, 1),
	}
	poolCtx, cancel := context.WithCancel(context.Background())
	w.poolStop = cancel
	pool, err := runner.NewPool[struct{}](poolCtx, runner.Options{
		Workers: opts.Workers,
		Queue:   w.capacity(),
		Timeout: opts.RunTimeout,
		// The daemon never reads per-shard outcomes (results travel by
		// push), and retaining one per shard would grow for its lifetime.
		StreamOutcomes: true,
		Metrics:        w.metrics.pool,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	w.pool = pool
	return w, nil
}

// capacity is how many leases this worker will hold at once: one per
// pool worker, so every leased shard is either executing or next in
// line.
func (w *Worker) capacity() int { return w.opts.Workers }

// Run polls, executes, and delivers until ctx is canceled, then drains:
// no new leases, in-flight shards finish and their results push (or
// spool). Returns nil on a clean drain; a fatal protocol error (engine
// mismatch) returns immediately.
func (w *Worker) Run(ctx context.Context) error {
	w.opts.Logf("fcdpm workd: %s polling %s (engine %s, %d slots)",
		w.opts.Name, w.opts.Dispatcher, w.engine, w.capacity())
	stopMetrics, err := w.serveMetrics()
	if err != nil {
		return err
	}
	defer stopMetrics()

	// Heartbeats outlive ctx: leases must stay renewed while the drain
	// finishes in-flight shards.
	hbCtx, hbStop := context.WithCancel(context.Background())
	defer hbStop()
	go w.heartbeatLoop(hbCtx)

	fatal := w.leaseLoop(ctx)

	// Graceful drain: finish in-flight simulations, then wait for their
	// deliveries (each pushes or spools).
	w.pool.Drain()
	w.deliveries.Wait()
	hbStop()
	w.poolStop()
	if fatal != nil {
		return fatal
	}
	w.opts.Logf("fcdpm workd: %s drained cleanly", w.opts.Name)
	return nil
}

// leaseLoop is the acquisition side: poll with jittered exponential
// backoff, honor Retry-After, drain the spool whenever the dispatcher
// answers, start every granted shard.
func (w *Worker) leaseLoop(ctx context.Context) error {
	netFails, idle := 0, 0
	for ctx.Err() == nil {
		w.mu.Lock()
		shed := w.shedUntil
		w.mu.Unlock()
		if wait := shed.Sub(w.opts.Clock.Now()); wait > 0 {
			// Spool-full shed: no durable place for undeliverable results,
			// so taking more work would only drop it.
			w.sleep(ctx, wait)
			continue
		}
		free := w.capacity() - w.held()
		if free <= 0 {
			w.waitSlot(ctx)
			continue
		}
		var resp LeaseResponse
		err := client.PostJSON(ctx, w.hc, w.opts.Dispatcher+"/v1/lease",
			LeaseRequest{Worker: w.opts.Name, Engine: w.engine, Max: free}, &resp)
		var he *client.Error
		switch {
		case err == nil:
			netFails = 0
			w.drainSpool(ctx)
			if len(resp.Shards) == 0 {
				idle++
				w.sleep(ctx, runner.BackoffDelay(w.opts.PollMin, w.opts.PollMax, w.opts.Name+"/idle", idle))
				continue
			}
			idle = 0
			w.metrics.leased.Add(float64(len(resp.Shards)))
			for _, sh := range resp.Shards {
				w.start(sh)
			}
		case errors.As(err, &he):
			netFails = 0
			if he.Code == http.StatusConflict {
				// Engine mismatch can never heal without a rebuild.
				return fmt.Errorf("dispatch: %s", he.Msg)
			}
			delay := he.RetryAfter
			if delay <= 0 {
				idle++
				delay = runner.BackoffDelay(w.opts.PollMin, w.opts.PollMax, w.opts.Name+"/http", idle)
			}
			w.sleep(ctx, delay)
		default:
			if ctx.Err() != nil {
				break
			}
			netFails++
			if netFails == 1 {
				w.opts.Logf("fcdpm workd: dispatcher unreachable, backing off: %v", err)
			}
			w.sleep(ctx, runner.BackoffDelay(w.opts.PollMin, w.opts.PollMax, w.opts.Name+"/net", netFails))
		}
	}
	return nil
}

func (w *Worker) held() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.active)
}

// sleep blocks on the injected clock; false means ctx canceled.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	return w.opts.Clock.Sleep(ctx, d) == nil
}

func (w *Worker) waitSlot(ctx context.Context) {
	t := time.NewTimer(w.opts.PollMax)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-w.slotFree:
	case <-t.C:
	}
}

// start registers the lease and submits the shard to the pool. The
// task ID is the lease token — unique even when two shards share a
// RunID (identical specs in one sweep).
func (w *Worker) start(sh Shard) {
	act := &activeShard{shard: sh}
	w.mu.Lock()
	w.active[sh.Lease] = act
	if ttl := time.Duration(sh.TTLMs) * time.Millisecond; ttl > 0 {
		w.ttl = ttl
	}
	w.hbDue = true
	if w.wakeHB != nil {
		w.wakeHB()
	}
	w.mu.Unlock()
	// The task carries no scenario, so no local breaker can skip it: the
	// dispatcher owns retry and quarantine policy, and a worker that
	// silently skipped shards would wedge leases.
	err := w.pool.Submit(runner.Task[struct{}]{
		ID: sh.Lease,
		Run: func(ctx context.Context) (struct{}, error) {
			runCtx, cancel := context.WithCancel(ctx)
			defer cancel()
			w.mu.Lock()
			lost := act.lost
			act.cancel = cancel
			w.mu.Unlock()
			if lost {
				return struct{}{}, context.Canceled
			}
			body, err := w.execute(runCtx, sh)
			w.metrics.executed.Inc()
			w.deliveries.Add(1)
			go w.deliver(act, body, err)
			return struct{}{}, err
		},
	})
	if err != nil {
		// Pool closed under us (shutdown raced a grant): forget the
		// lease; it expires and the shard re-dispatches.
		w.release(act)
	}
}

// execute runs one shard's spec through runreport.Execute, rendering
// the stable report body that every serving surface agrees on.
func (w *Worker) execute(ctx context.Context, sh Shard) ([]byte, error) {
	spec, err := config.LoadValidated(bytes.NewReader(sh.Spec))
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", sh.RunID, err)
	}
	row := runreport.Execute(ctx, w.engine, []runreport.Cell{{Spec: spec, Key: sh.Key}}, w.metrics.sim, nil)[0]
	return row.Body, row.Err
}

// deliver pushes one outcome with at-least-once semantics: bounded
// retries honoring Retry-After, then the disk spool. Runs outside the
// pool so a slow dispatcher never blocks a simulation slot; the lease
// is held (and heartbeated) until the result is safe somewhere.
func (w *Worker) deliver(act *activeShard, body []byte, execErr error) {
	defer w.deliveries.Done()
	defer w.release(act)
	w.mu.Lock()
	lost := act.lost
	w.mu.Unlock()
	if lost {
		// Reclaimed: a failure verdict is no longer ours to give, and a
		// success from a canceled run has no body worth pushing.
		return
	}
	req := CompleteRequest{
		Worker: w.opts.Name, Lease: act.shard.Lease,
		RunID: act.shard.RunID, Key: act.shard.Key,
		OK: execErr == nil, Body: body,
	}
	if execErr != nil {
		req.Error = execErr.Error()
	}
	if w.pushComplete(context.Background(), req, completeAttempts) {
		return
	}
	w.spool(req)
}

// pushComplete attempts delivery up to attempts times. True means the
// dispatcher answered (accepted, duplicate, or permanently rejected);
// false means it stayed unreachable.
func (w *Worker) pushComplete(ctx context.Context, req CompleteRequest, attempts int) bool {
	for attempt := 1; ; attempt++ {
		var resp CompleteResponse
		err := client.PostJSON(ctx, w.hc, w.opts.Dispatcher+"/v1/complete", req, &resp)
		if err == nil {
			w.metrics.pushed.Inc()
			if resp.Duplicate {
				w.opts.Logf("fcdpm workd: %s was already complete (deduplicated)", req.RunID)
			}
			return true
		}
		var he *client.Error
		if errors.As(err, &he) && he.Code/100 == 4 {
			// Permanent rejection (stale sweep, malformed): nothing to
			// retry, nothing to spool.
			w.opts.Logf("fcdpm workd: completion for %s rejected: %v", req.RunID, err)
			return true
		}
		w.metrics.pushErrs.Inc()
		if attempt >= attempts {
			return false
		}
		delay := runner.BackoffDelay(w.opts.PollMin, w.opts.PollMax, req.Lease, attempt)
		if errors.As(err, &he) && he.RetryAfter > delay {
			delay = he.RetryAfter
		}
		if !w.sleep(ctx, delay) {
			return false
		}
	}
}

// release forgets a lease and wakes the lease loop.
func (w *Worker) release(act *activeShard) {
	w.mu.Lock()
	delete(w.active, act.shard.Lease)
	w.mu.Unlock()
	select {
	case w.slotFree <- struct{}{}:
	default:
	}
}

// heartbeatLoop renews held leases a few times per TTL, and at once
// when a lease is granted: the first heartbeat confirms pickup, and a
// worker that has just learned a shorter TTL must not wait out a period
// sized for the default. Leases the dispatcher reports lost are
// canceled locally — the shard was reclaimed and re-dispatched, so
// finishing it here is wasted work.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		tick := max(w.ttl/3, 100*time.Millisecond)
		sleepCtx, wake := context.WithCancel(ctx)
		if w.hbDue {
			wake()
		}
		w.hbDue, w.wakeHB = false, wake
		w.mu.Unlock()
		w.opts.Clock.Sleep(sleepCtx, tick)
		wake()
		if ctx.Err() != nil {
			return
		}
		w.mu.Lock()
		tokens := make([]string, 0, len(w.active))
		for tok, act := range w.active {
			if !act.lost {
				tokens = append(tokens, tok)
			}
		}
		w.mu.Unlock()
		if len(tokens) == 0 {
			continue
		}
		var resp HeartbeatResponse
		err := client.PostJSON(ctx, w.hc, w.opts.Dispatcher+"/v1/heartbeat",
			HeartbeatRequest{Worker: w.opts.Name, Leases: tokens}, &resp)
		if err != nil {
			continue // unreachable: keep executing, leases may expire
		}
		for _, tok := range resp.Lost {
			w.mu.Lock()
			act := w.active[tok]
			var cancel context.CancelFunc
			if act != nil && !act.lost {
				act.lost = true
				cancel = act.cancel
			}
			w.mu.Unlock()
			if act != nil {
				w.metrics.lost.Inc()
				w.opts.Logf("fcdpm workd: lease %s lost (reclaimed by dispatcher)", tok)
			}
			if cancel != nil {
				cancel()
			}
		}
	}
}

// spool buffers an undeliverable result to disk, durably. A disk-full
// failure additionally sheds leasing for SpoolShedPeriod: the result is
// lost either way (the shard re-dispatches), but taking more work while
// the spool volume is full would only manufacture more losses.
func (w *Worker) spool(req CompleteRequest) {
	if w.opts.SpoolDir == "" {
		w.opts.Logf("fcdpm workd: dropping undeliverable result %s (no spool dir); the shard will re-dispatch", req.RunID)
		return
	}
	b, err := json.Marshal(req)
	if err != nil {
		return
	}
	name := strings.ReplaceAll(req.Lease, "/", "_") + ".json"
	werr := w.opts.FS.MkdirAll(w.opts.SpoolDir)
	if werr == nil {
		werr = w.opts.FS.WriteFileAtomic(filepath.Join(w.opts.SpoolDir, name), b)
	}
	if werr != nil {
		w.metrics.spoolErrs.Inc()
		if vfs.IsDiskFull(werr) {
			w.mu.Lock()
			w.shedUntil = w.opts.Clock.Now().Add(w.opts.SpoolShedPeriod)
			w.mu.Unlock()
			w.metrics.sheds.Inc()
			w.opts.Logf("fcdpm workd: spool full, shedding leases for %s: %v", w.opts.SpoolShedPeriod, werr)
		} else {
			w.opts.Logf("fcdpm workd: spool write: %v", werr)
		}
		return
	}
	w.metrics.spooled.Inc()
	w.opts.Logf("fcdpm workd: spooled result %s (dispatcher unreachable)", req.RunID)
}

// drainSpool redelivers buffered results after a reconnect. Each file
// gets one attempt per drain; the spool empties as the dispatcher
// answers (duplicates included — at-least-once is the contract).
func (w *Worker) drainSpool(ctx context.Context) {
	if w.opts.SpoolDir == "" {
		return
	}
	names, err := w.opts.FS.ReadDir(w.opts.SpoolDir)
	if err != nil {
		return
	}
	for _, name := range names {
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(w.opts.SpoolDir, name)
		b, err := w.opts.FS.ReadFile(path)
		if err != nil {
			continue
		}
		var req CompleteRequest
		if err := json.Unmarshal(b, &req); err != nil {
			w.opts.FS.Remove(path) // corrupt spool entry: unrecoverable
			continue
		}
		if !w.pushComplete(ctx, req, 1) {
			return // still unreachable; try again next drain
		}
		w.opts.FS.Remove(path)
		w.metrics.drained.Inc()
		w.opts.Logf("fcdpm workd: drained spooled result %s", req.RunID)
	}
}

// WorkerStats is a lifetime-counter snapshot, read by the chaos
// harness's invariant checks (re-execution accounting in particular).
type WorkerStats struct {
	Leased    int64 `json:"leased"`
	Executed  int64 `json:"executed"`
	Pushed    int64 `json:"pushed"`
	Spooled   int64 `json:"spooled"`
	Drained   int64 `json:"drained"`
	Lost      int64 `json:"lost"`
	SpoolErrs int64 `json:"spoolErrs"`
	Sheds     int64 `json:"sheds"`
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Leased:    int64(w.metrics.leased.Value()),
		Executed:  int64(w.metrics.executed.Value()),
		Pushed:    int64(w.metrics.pushed.Value()),
		Spooled:   int64(w.metrics.spooled.Value()),
		Drained:   int64(w.metrics.drained.Value()),
		Lost:      int64(w.metrics.lost.Value()),
		SpoolErrs: int64(w.metrics.spoolErrs.Value()),
		Sheds:     int64(w.metrics.sheds.Value()),
	}
}

// serveMetrics optionally exposes /metrics and /healthz.
func (w *Worker) serveMetrics() (func(), error) {
	if w.opts.Addr == "" {
		return func() {}, nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.metrics.registry.WritePrometheus(rw)
	})
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(rw, `{"status":"ok","worker":%q,"held":%d}`+"\n", w.opts.Name, w.held())
	})
	ln, err := net.Listen("tcp", w.opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("dispatch: worker listen: %w", err)
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln)
	return func() { hs.Close() }, nil
}

// RunWorker builds and runs a worker daemon until ctx cancels.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	w, err := NewWorker(opts)
	if err != nil {
		return err
	}
	return w.Run(ctx)
}
