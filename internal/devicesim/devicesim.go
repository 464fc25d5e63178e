package devicesim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"fcdpm/internal/client"
	"fcdpm/internal/runner"
)

// Options tunes a fleet run.
type Options struct {
	// Target is the `fcdpm serve` base URL.
	Target string
	// Count is the number of concurrent virtual devices.
	Count int
	// Cadence is the mean per-device submit interval; each interval is
	// jittered deterministically into [0.5, 1.5) × Cadence.
	Cadence time.Duration
	// StopAfter is the scheduling window: no submission starts after
	// it, then the fleet drains whatever is still in flight.
	StopAfter time.Duration
	// Seed determines the population and schedule (byte-reproducible).
	Seed uint64
	// Template is the scenario template (DefaultTemplate if zero-ish;
	// callers should pass a validated one).
	Template Template
	// Addr, when non-empty, serves the harness's own /metrics there.
	Addr string
	// Out receives the final human-readable report (nil: none).
	Out io.Writer
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Count <= 0 {
		o.Count = 100
	}
	if o.Cadence <= 0 {
		o.Cadence = 2 * time.Second
	}
	if o.StopAfter <= 0 {
		o.StopAfter = 30 * time.Second
	}
	if o.Target == "" {
		o.Target = "http://127.0.0.1:8080"
	}
	o.Target = strings.TrimRight(o.Target, "/")
	if len(o.Template.Families) == 0 {
		o.Template = DefaultTemplate()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// fleetTransport sizes the connection pool for thousands of concurrent
// devices against one host; the stdlib default of 2 idle conns per
// host would thrash.
func fleetTransport() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 512
	t.MaxIdleConnsPerHost = 512
	return &http.Client{Transport: t}
}

// Run drives the fleet: every device is an independent agent walking
// its deterministic submission schedule, submitting runs (sync or
// async per its identity), honoring 429/503 Retry-After, and tailing
// async runs to resolution. Returns the final report; sheds are
// counted, not fatal — only ctx cancellation is an error.
func Run(ctx context.Context, o Options) (Report, error) {
	o = o.withDefaults()
	if err := o.Template.Validate(); err != nil {
		return Report{}, err
	}
	devices := BuildPopulation(o.Template, o.Count, o.Seed)
	sched := Schedule(devices, o.Cadence, o.StopAfter, o.Seed)
	perDev := make([][]Submission, len(devices))
	for _, s := range sched {
		perDev[s.Device] = append(perDev[s.Device], s)
	}
	m := newFleetMetrics()
	if o.Addr != "" {
		addr, stop, err := m.serve(o.Addr)
		if err != nil {
			return Report{}, fmt.Errorf("devicesim: metrics listener: %w", err)
		}
		defer stop()
		o.Logf("devicesim: metrics at http://%s/metrics", addr)
	}
	f := &fleet{opts: o, hc: fleetTransport(), m: m}
	o.Logf("devicesim: %d devices, %d submissions over %s (seed %d)",
		len(devices), len(sched), o.StopAfter, o.Seed)

	start := time.Now()
	var wg sync.WaitGroup
	for i := range devices {
		if len(perDev[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(d Device, subs []Submission) {
			defer wg.Done()
			f.agent(ctx, d, subs, start)
		}(devices[i], perDev[i])
	}
	wg.Wait()

	rep := buildReport(m, len(devices), len(sched), time.Since(start).Seconds())
	if o.Out != nil {
		rep.Write(o.Out)
	}
	if ctx.Err() != nil {
		return rep, fmt.Errorf("devicesim: %w", runner.ErrInterrupted)
	}
	return rep, nil
}

// fleet is the shared state of one Run.
type fleet struct {
	opts Options
	hc   *http.Client
	m    *fleetMetrics
}

// agent is one device's life: sleep until each scheduled submission,
// submit, follow to resolution, repeat. A device is a serial client —
// if a run resolves late, the next submission fires immediately rather
// than piling up.
func (f *fleet) agent(ctx context.Context, d Device, subs []Submission, start time.Time) {
	spec := d.Scenario(f.opts.Template.Policy)
	for _, s := range subs {
		if !client.Sleep(ctx, time.Until(start.Add(s.At))) {
			return
		}
		f.submitOne(ctx, d, spec)
		if ctx.Err() != nil {
			return
		}
	}
}

// asyncDoc is the 202 body of POST /v1/runs?async=1.
type asyncDoc struct {
	ID     string `json:"id"`
	Cache  string `json:"cache"`
	Events string `json:"events"`
}

// submitOne performs one scheduled submission and classifies the
// outcome into the fleet's counters. Never returns an error: sheds and
// failures are counted, and the agent moves to its next slot.
func (f *fleet) submitOne(ctx context.Context, d Device, spec any) {
	f.m.inflight.Add(1)
	defer f.m.inflight.Add(-1)
	f.m.submitted.Inc()
	begin := time.Now()
	if d.Async {
		f.submitAsync(ctx, d, spec, begin)
		return
	}
	_, hdr, err := client.PostJSONMeta(ctx, f.hc, f.opts.Target+"/v1/runs", spec, nil)
	if err != nil {
		f.classifyError(ctx, d, err)
		return
	}
	f.countCacheTag(hdr.Get("X-Fcdpm-Cache"))
	f.m.completed.Inc()
	f.m.latency.Observe(time.Since(begin).Seconds())
}

// submitAsync submits with ?async=1 and tails the run's event stream
// to resolution; client-observed latency spans the whole arc.
func (f *fleet) submitAsync(ctx context.Context, d Device, spec any, begin time.Time) {
	var doc asyncDoc
	status, hdr, err := client.PostJSONMeta(ctx, f.hc, f.opts.Target+"/v1/runs?async=1", spec, &doc)
	if err != nil {
		f.classifyError(ctx, d, err)
		return
	}
	tag := hdr.Get("X-Fcdpm-Cache")
	f.countCacheTag(tag)
	if status == http.StatusOK {
		// The cache answered before admission: resolved already.
		f.m.completed.Inc()
		f.m.latency.Observe(time.Since(begin).Seconds())
		return
	}
	resolved := ""
	follow := client.Follow{
		Tail: func(ctx context.Context) error {
			return client.TailNDJSON(ctx, f.hc, f.opts.Target+doc.Events, func(line string) {
				var ev struct {
					Kind   string `json:"kind"`
					Status string `json:"status"`
				}
				if json.Unmarshal([]byte(line), &ev) == nil && ev.Kind == "resolved" {
					resolved = ev.Status
				}
			})
		},
		Poll: func(ctx context.Context) (bool, error) {
			var st struct {
				Status string `json:"status"`
			}
			if err := client.GetJSON(ctx, f.hc, f.opts.Target+"/v1/runs/"+doc.ID, &st); err != nil {
				return false, err
			}
			// A queued job reports {"status":"queued"}; a done job's body
			// is the result report, which has no status field.
			return st.Status != "queued", nil
		},
		ID: d.ID,
	}
	err = follow.Run(ctx)
	switch {
	case resolved == "done" || (err == nil && resolved == ""):
		f.m.completed.Inc()
		f.m.latency.Observe(time.Since(begin).Seconds())
	case resolved == "shed":
		f.m.shed.Inc()
	case errors.Is(err, runner.ErrInterrupted):
		// Canceled mid-flight: not a device outcome.
	case resolved != "":
		f.opts.Logf("devicesim: %s: run %s resolved %s", d.ID, doc.ID, resolved)
		f.m.failed.Inc()
	default:
		// Follow ended on a typed refusal (e.g. the job's status GET
		// reported the failure) with no resolved event observed.
		f.classifyError(ctx, d, err)
	}
}

// countCacheTag maps the server's cache taxonomy onto the fleet's
// counters.
func (f *fleet) countCacheTag(tag string) {
	switch tag {
	case "hit":
		f.m.cacheHits.Inc()
	case "coalesced":
		f.m.coalesced.Inc()
	default:
		f.m.misses.Inc()
	}
}

// classifyError buckets a submission error: retryable refusals (503
// shed, 429) are counted as sheds and their Retry-After hint honored
// before the agent's next slot; cancellation is silent; anything else
// is a harness-visible failure.
func (f *fleet) classifyError(ctx context.Context, d Device, err error) {
	var he *client.Error
	if errors.As(err, &he) && he.Retryable() {
		f.m.shed.Inc()
		if he.RetryAfter > 0 {
			f.m.retries.Inc()
			client.Sleep(ctx, he.RetryAfter)
		}
		return
	}
	if ctx.Err() != nil || errors.Is(err, runner.ErrInterrupted) {
		return
	}
	f.m.failed.Inc()
	f.opts.Logf("devicesim: %s: submit failed: %v", d.ID, err)
}
