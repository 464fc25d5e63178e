package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"fcdpm/internal/cache"
	"fcdpm/internal/config"
	"fcdpm/internal/dvs"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/multistack"
	"fcdpm/internal/runner"
	"fcdpm/internal/runreport"
	"fcdpm/internal/server"
	"fcdpm/internal/sim"
	"fcdpm/internal/workload"
)

// span is one timed call. Spans of one request share req; parent links a
// span to the one that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(req, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// open starts a span that close ends, so children can name it as their
// parent while it runs.
func (t *tracer) open(req, parent int, name string) int {
	now := time.Now()
	return t.add(req, parent, name, now, now)
}

func (t *tracer) close(id int) {
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// call times fn as one span.
func (t *tracer) call(req, parent int, name string, fn func() error) error {
	id := t.open(req, parent, name)
	err := fn()
	t.close(id)
	return err
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// stage is the aggregate of one span name over the replay.
type stage struct {
	calls int
	total time.Duration
}

func (s stage) meanUS() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.total) / float64(time.Microsecond) / float64(s.calls)
}

// stages sums the spans by name.
func (t *tracer) stages(names ...string) map[string]stage {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]stage)
	for _, s := range t.spans {
		if want[s.Name] {
			st := out[s.Name]
			st.calls++
			st.total += time.Duration(s.End - s.Start)
			out[s.Name] = st
		}
	}
	return out
}

// The replayed stages, in the order the server calls them. Request-path
// stages run inside the server's request handler (or, for a sweep, its
// admission); the split stages re-run one part of Build on its own, so
// the table can show which part of Build a workload pays for.
var (
	requestStages = []string{"config.load", "config.key", "cache.get"}
	taskStages    = []string{"runner.queue_wait", "config.build", "sim.run", "sim.batch_new", "sim.batch_run", "runreport.render", "cache.put"}
	splitStages   = []string{"workload.gen", "multistack.presolve"}
)

// replayer re-sends a window's inputs through each layer's public
// functions, in the order the server calls them, with one span per call:
// a local result store stands in for the server's cache and a 2-worker
// runner.Pool for its pool.
type replayer struct {
	tr     *tracer
	engine string
	store  *cache.Store
	pool   *runner.Pool[struct{}]
	// One task is in flight at a time; the pool reports its start and
	// resolution here.
	started  chan time.Time
	resolved chan error
	// execSlots counts the slots simulation groups executed, over simTime;
	// lanes and groups record each batch's width and executing groups.
	execSlots     int64
	simTime       time.Duration
	lanes, groups []int
}

func newReplayer(ctx context.Context, tr *tracer, engine string) (*replayer, error) {
	store, err := cache.New(server.DefaultCacheBytes, "", nil)
	if err != nil {
		return nil, err
	}
	r := &replayer{tr: tr, engine: engine, store: store,
		started: make(chan time.Time, 1), resolved: make(chan error, 1)}
	r.pool, err = runner.NewPool[struct{}](ctx, runner.Options{
		Workers: poolWorkers, StreamOutcomes: true, BreakerThreshold: -1,
		OnEvent: func(e runner.TaskEvent) {
			switch e.Phase {
			case runner.PhaseStart:
				r.started <- time.Now()
			case runner.PhaseResolve:
				r.resolved <- e.Err
			}
		},
	})
	return r, err
}

func (r *replayer) close() {
	if _, err := r.pool.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: replay pool:", err)
	}
}

// submit runs fn as one pool task and waits for it, recording the time
// from submit to start as runner.queue_wait.
func (r *replayer) submit(req, parent int, fn func(ctx context.Context) error) error {
	t0 := time.Now()
	err := r.pool.Submit(runner.Task[struct{}]{ID: fmt.Sprint(req), Scenario: "replay",
		Run: func(ctx context.Context) (struct{}, error) { return struct{}{}, fn(ctx) }})
	if err != nil {
		return err
	}
	// The worker reports the start before it runs fn and the resolution
	// after, so once the resolution is in, a start is too, unless the
	// task was interrupted before it ran.
	err = <-r.resolved
	select {
	case start := <-r.started:
		r.tr.add(req, parent, "runner.queue_wait", t0, start)
	default:
	}
	return err
}

// admit replays the admission of one scenario: parse and validate, key,
// cache lookup.
func (r *replayer) admit(req, parent int, doc []byte) (*config.Scenario, string, bool, error) {
	var spec *config.Scenario
	var key string
	var hit bool
	err := r.tr.call(req, parent, "config.load", func() (err error) {
		spec, err = config.LoadValidated(bytes.NewReader(doc))
		return err
	})
	if err == nil {
		err = r.tr.call(req, parent, "config.key", func() (err error) {
			key, err = spec.CacheKey(r.engine)
			return err
		})
	}
	if err == nil {
		r.tr.call(req, parent, "cache.get", func() error {
			_, hit = r.store.Get(key)
			return nil
		})
	}
	return spec, key, hit, err
}

// build replays Build, and splits it: the parts of Build that can
// dominate it, the spec's trace generation and its rack pre-solve, run
// once more on their own next to it, so config.build minus them is the
// rest of Build. Odd requests split before Build and even ones after, so
// neither side is always the one that runs on warm caches.
func (r *replayer) build(req, parent int, spec *config.Scenario) (sim.Config, error) {
	var cfg sim.Config
	build := func() error {
		return r.tr.call(req, parent, "config.build", func() (err error) {
			cfg, err = spec.Build()
			return err
		})
	}
	split := func() error {
		if err := r.tr.call(req, parent, "workload.gen", func() error { return generate(spec) }); err != nil {
			return err
		}
		if spec.System.Stacks < 2 {
			return nil
		}
		return r.tr.call(req, parent, "multistack.presolve", func() error { return presolve(spec) })
	}
	first, second := build, split
	if req%2 == 1 {
		first, second = split, build
	}
	if err := first(); err != nil {
		return cfg, err
	}
	return cfg, second()
}

// run replays one POST /v1/runs request.
func (r *replayer) run(in *input) error {
	req := in.idx
	root := r.tr.open(req, 0, "request")
	spec, key, hit, err := r.admit(req, root, in.body)
	if err == nil && !hit {
		err = r.submit(req, root, func(ctx context.Context) error {
			cfg, err := r.build(req, root, spec)
			if err != nil {
				return err
			}
			var res *sim.Result
			t0 := time.Now()
			if err := r.tr.call(req, root, "sim.run", func() (err error) {
				res, err = sim.RunContext(ctx, cfg)
				return err
			}); err != nil {
				return err
			}
			r.simTime += time.Since(t0)
			r.execSlots += int64(res.Slots)
			return r.renderPut(req, root, spec.Name, key, res)
		})
	}
	r.tr.close(root)
	return err
}

func (r *replayer) renderPut(req, parent int, name, key string, res *sim.Result) error {
	var body []byte
	err := r.tr.call(req, parent, "runreport.render", func() (err error) {
		body, err = runreport.Render(name, key, r.engine, res)
		return err
	})
	if err == nil {
		r.tr.call(req, parent, "cache.put", func() error { r.store.Put(key, body); return nil })
	}
	return err
}

// sweep replays one POST /v1/sweeps: the admission of every cell, then
// the one batched pool task the server makes of 64 same-trace cells.
func (r *replayer) sweep(in *input) error {
	req := in.idx
	root := r.tr.open(req, 0, "sweep")
	specs, keys, err := r.admitSweep(req, root, in.cells)
	if err == nil {
		err = r.submit(req, root, func(ctx context.Context) error {
			return r.batch(ctx, req, root, specs, keys)
		})
	}
	r.tr.close(root)
	return err
}

func (r *replayer) admitSweep(req, parent int, cells [][]byte) ([]*config.Scenario, []string, error) {
	admit := r.tr.open(req, parent, "server.admit")
	defer r.tr.close(admit)
	specs := make([]*config.Scenario, len(cells))
	keys := make([]string, len(cells))
	for i, doc := range cells {
		spec, key, hit, err := r.admit(req, admit, doc)
		if err != nil {
			return nil, nil, err
		}
		if hit {
			return nil, nil, fmt.Errorf("replay: sweep %d cell %d already cached", req, i)
		}
		specs[i], keys[i] = spec, key
	}
	return specs, keys, nil
}

// batch replays the server's batched sweep task: Build per cell, one
// BatchRunner over all lanes, then render and cache each lane.
func (r *replayer) batch(ctx context.Context, req, parent int, specs []*config.Scenario, keys []string) error {
	lanes := make([]sim.Lane, len(specs))
	for i, spec := range specs {
		cfg, err := r.build(req, parent, spec)
		if err != nil {
			return err
		}
		lanes[i] = sim.Lane{Cfg: cfg, Key: keys[i]}
	}
	var b *sim.BatchRunner
	if err := r.tr.call(req, parent, "sim.batch_new", func() (err error) {
		b, err = sim.NewBatchRunner(lanes)
		return err
	}); err != nil {
		return err
	}
	var out []sim.LaneResult
	t0 := time.Now()
	if err := r.tr.call(req, parent, "sim.batch_run", func() (err error) {
		out, err = b.RunContext(ctx)
		return err
	}); err != nil {
		return err
	}
	r.simTime += time.Since(t0)
	r.execSlots += int64(b.Groups()) * int64(lanes[0].Cfg.Trace.Len())
	r.lanes = append(r.lanes, b.Lanes())
	r.groups = append(r.groups, b.Groups())
	for i, lr := range out {
		if lr.Err != nil {
			return lr.Err
		}
		if err := r.renderPut(req, parent, specs[i].Name, keys[i], lr.Res); err != nil {
			return err
		}
	}
	return nil
}

// generate calls the spec's trace generator with the config Build
// resolves for it.
func generate(s *config.Scenario) error {
	var err error
	switch strings.ToLower(s.Trace.Kind) {
	case "", "camcorder":
		cfg := workload.DefaultCamcorderConfig()
		override(&cfg.Seed, &cfg.Duration, s.Trace)
		_, err = workload.Camcorder(cfg)
	case "synthetic":
		cfg := workload.DefaultSyntheticConfig()
		override(&cfg.Seed, &cfg.Duration, s.Trace)
		_, err = workload.Synthetic(cfg)
	case "bursty":
		cfg := workload.DefaultBurstyConfig()
		override(&cfg.Seed, &cfg.Duration, s.Trace)
		_, err = workload.Bursty(cfg)
	case "heavytail":
		cfg := workload.DefaultHeavyTailConfig()
		override(&cfg.Seed, &cfg.Duration, s.Trace)
		_, err = workload.HeavyTail(cfg)
	case "racksurge":
		cfg := workload.DefaultRackSurgeConfig()
		override(&cfg.Seed, &cfg.Duration, s.Trace)
		if s.Trace.Intensity != 0 {
			cfg.Intensity = s.Trace.Intensity
		}
		_, err = workload.RackSurge(cfg)
	case "dvs":
		proc := dvs.XScale600()
		dur := s.Trace.Duration
		if dur <= 0 {
			dur = 28 * 60
		}
		_, err = proc.Trace(dvs.Task{Cycles: 1e8, Period: 1, Jobs: int(math.Ceil(dur))}, s.Trace.Level)
	default:
		err = fmt.Errorf("replay: no generator for trace kind %q", s.Trace.Kind)
	}
	return err
}

func override(seed *uint64, dur *float64, t config.TraceSpec) {
	if t.Seed != 0 {
		*seed = t.Seed
	}
	if t.Duration > 0 {
		*dur = t.Duration
	}
}

// presolve builds the spec's rack from its single-stack system and
// pre-solves it, as Build does for system.stacks >= 2.
func presolve(s *config.Scenario) error {
	sys, err := fuelcell.NewSystem(orDefault(s.System.VF, 12), orDefault(s.System.Zeta, 37.5),
		orDefault(s.System.MinOutput, 0.1), orDefault(s.System.MaxOutput, 1.2),
		fuelcell.LinearEfficiency{Alpha: orDefault(s.System.Alpha, 0.45), Beta: orDefault(s.System.Beta, 0.13)})
	if err != nil {
		return err
	}
	alloc, err := multistack.ParseAllocator(s.System.Alloc)
	if err != nil {
		return err
	}
	_, err = multistack.Uniform(sys, s.System.Stacks, alloc, s.System.Degrade)
	return err
}

func orDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// replayWindow replays the first count inputs in index order until
// budget is spent or maxReplay are done, ending on a whole block of the
// mix and after at least minReplay inputs (when there are that many).
func replayWindow(ctx context.Context, r *replayer, w *mix, next func(i int) *input, count int, budget time.Duration) (int, error) {
	const minReplay, maxReplay = 4, 20000
	end := time.Now().Add(budget)
	n := 0
	for i := 0; i < count; i++ {
		in := next(i)
		if n >= minReplay && n%w.block == 0 && (n >= maxReplay || time.Now().After(end)) {
			break
		}
		if err := ctx.Err(); err != nil {
			return n, err
		}
		var err error
		if w.sweep {
			err = r.sweep(in)
		} else {
			err = r.run(in)
		}
		if err != nil {
			return n, fmt.Errorf("replay of request %d: %w", in.idx, err)
		}
		n++
	}
	return n, nil
}

// stageTable prints the replay's stage means and each stage's share of
// the replayed request time, then returns the stages by name.
func stageTable(tr *tracer, name string, requests int) map[string]stage {
	all := append(append(append([]string{}, requestStages...), taskStages...), splitStages...)
	st := tr.stages(all...)
	var sum time.Duration
	for _, n := range append(append([]string{}, requestStages...), taskStages...) {
		sum += st[n].total
	}
	fmt.Printf("stage table (%s, %d replayed requests; the split rows re-run part of config.build on its own):\n", name, requests)
	fmt.Printf("  %-22s %8s %12s %8s\n", "stage", "calls", "mean_us", "share")
	for _, n := range all {
		s := st[n]
		if s.calls == 0 {
			continue
		}
		share := 0.0
		if sum > 0 {
			share = float64(s.total) / float64(sum)
		}
		fmt.Printf("  %-22s %8d %12.2f %7.1f%%\n", n, s.calls, s.meanUS(), 100*share)
	}
	return st
}
