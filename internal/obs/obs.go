// Package obs is the dependency-free observability layer shared by the
// simulator, the run-orchestration engine, and the serving tier: a
// metrics registry of counters, gauges, and bounded histograms with a
// deterministic bucket layout, rendered in the Prometheus text
// exposition format, plus a lightweight run-trace facility (spans with
// monotonic timestamps and slow-run threshold logging).
//
// Every instrument's mutation path is a plain atomic operation — no
// locks, no maps, no allocation — so instrumentation can sit on the
// simulator's zero-allocation hot path without perturbing it. The
// registry itself is locked only at registration and render time.
//
// The package depends on the standard library only; nothing in it knows
// about simulations, pools, or HTTP. The metric *sets* the rest of the
// repo shares (SimMetrics, PoolMetrics) live in sets.go as plain
// bundles of instruments with stable metric names.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64. The zero value is
// usable but unregistered; instruments that should appear on /metrics
// come from Registry.Counter.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v. Negative or NaN deltas are ignored —
// a counter only ever goes up.
func (c *Counter) Add(v float64) {
	if c == nil || !(v > 0) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Add shifts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. The bucket layout is chosen
// at construction and never changes, so two processes built from the
// same code render identical label sets — deterministic enough to diff.
// Observations are lock-free: one atomic add on the owning bucket, one
// on the sum.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// newHistogram validates and copies the bucket bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	// Drop duplicates and non-finite bounds; +Inf is always implicit.
	out := bs[:0]
	for _, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			continue
		}
		if len(out) == 0 || out[len(out)-1] != b {
			out = append(out, b)
		}
	}
	return &Histogram{bounds: out, counts: make([]atomic.Uint64, len(out)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot returns the per-bucket counts (last entry is the overflow /
// +Inf bucket), the total observation count, and the sum.
func (h *Histogram) Snapshot() (counts []uint64, count uint64, sum float64) {
	if h == nil {
		return nil, 0, 0
	}
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		count += counts[i]
	}
	return counts, count, math.Float64frombits(h.sumBits.Load())
}

// Quantiles estimates several quantiles (each q in [0, 1]) of the
// observed distribution from one consistent snapshot, so p50/p95/p99 in
// a report cannot straddle concurrent observations. Each estimate
// interpolates linearly inside the owning bucket — the classic
// bounded-bucket estimator: find the bucket holding the q·count rank,
// then interpolate between its bounds by the rank's position within the
// bucket's count. The first bucket interpolates up from 0 (every repo
// histogram observes non-negative quantities); the +Inf overflow bucket
// has no upper edge to interpolate toward, so ranks landing there clamp
// to the highest finite bound. An empty histogram reports 0; q outside
// [0, 1] clamps.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if h == nil {
		return out
	}
	counts, count, _ := h.Snapshot()
	for i, q := range qs {
		out[i] = quantileFromCounts(h.bounds, counts, count, q)
	}
	return out
}

// quantileFromCounts runs the interpolation over a snapshot.
func quantileFromCounts(bounds []float64, counts []uint64, count uint64, q float64) float64 {
	if count == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	cum := 0.0
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if rank > cum {
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: clamp to the top finite bound.
			if len(bounds) == 0 {
				return 0
			}
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	// Unreachable (rank <= total cum by construction); defensive clamp.
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DurationBuckets is the canonical latency layout (seconds): 1 ms to
// ~100 s in roughly-3x steps. Shared by every duration histogram so
// dashboards line up across subsystems.
var DurationBuckets = []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100}

// ioWriteFailures counts every durable-write path (fsync, atomic
// rename, journal append) that failed, process-wide. It is global
// rather than per-registry because the writers it instruments — the
// runner journal, the cache disk tier, the dispatcher WAL, the worker
// spool — live below the component registries; each component exports
// it with RegisterIOWriteFailures so the count appears on every
// /metrics surface under one name.
var ioWriteFailures Counter

// IOWriteFailures returns the process-global durable-write failure
// counter (series fcdpm_io_write_failures_total).
func IOWriteFailures() *Counter { return &ioWriteFailures }

// RegisterIOWriteFailures exposes the global write-failure counter on
// reg as fcdpm_io_write_failures_total.
func RegisterIOWriteFailures(reg *Registry) {
	reg.CounterFunc("fcdpm_io_write_failures_total",
		"Durable writes (fsync / atomic rename / journal append) that failed, process-wide.",
		ioWriteFailures.Value)
}

// Label is one constant key="value" pair attached to a metric at
// registration. Dynamic label values are deliberately unsupported:
// every series is declared up front, so cardinality is bounded by code.
type Label struct {
	Key, Value string
}

// kind is the Prometheus metric type.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// metric is one registered series.
type metric struct {
	name   string
	help   string
	labels string // pre-rendered, sorted: `k1="v1",k2="v2"` or ""
	kind   kind

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// Registry holds the registered instruments and renders them. All
// methods are safe for concurrent use. Registration is idempotent: the
// same (name, labels) returns the same instrument, so independent
// subsystems can share a series without coordination; re-registering
// under a different kind panics (a programming error worth failing
// loudly on).
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// renderLabels sorts and formats constant labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// labelEscaper applies the exposition-format escapes to a label value.
// A Replacer is safe for concurrent use, so registries share this one.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// register adds (or finds) the series.
func (r *Registry) register(name, help string, k kind, labels []Label) *metric {
	ls := renderLabels(labels)
	key := name + "{" + ls + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[key]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", key, k, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, labels: ls, kind: k}
	r.metrics = append(r.metrics, m)
	r.index[key] = m
	return m
}

// Counter registers (or returns) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge registers (or returns) a settable gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// GaugeFunc registers a gauge whose value is read from fn at render
// time — the bridge for state that already lives elsewhere (queue
// lengths, cache occupancy) without double bookkeeping.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	m := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	m.gaugeFn = fn
}

// CounterFunc registers a counter series whose value is read from fn at
// render time — for monotone counts that live outside the registry
// (the process-global I/O failure counter).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	m := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	m.gaugeFn = fn
}

// Histogram registers (or returns) a histogram series with the given
// bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	m := r.register(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.hist == nil {
		m.hist = newHistogram(buckets)
	}
	return m.hist
}

// formatValue renders a float the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sampleName renders `name{labels}` with optional extra labels appended.
func sampleName(name, labels, extra string) string {
	all := labels
	if extra != "" {
		if all != "" {
			all += ","
		}
		all += extra
	}
	if all == "" {
		return name
	}
	return name + "{" + all + "}"
}

// WritePrometheus renders every registered series in the text
// exposition format (version 0.0.4), sorted by name then label set, so
// two renders of the same state are byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].labels < ms[j].labels
	})
	var b strings.Builder
	prev := ""
	for _, m := range ms {
		if m.name != prev {
			prev = m.name
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.name, strings.ReplaceAll(m.help, "\n", " "))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		}
		switch m.kind {
		case kindCounter:
			v := 0.0
			if m.gaugeFn != nil {
				v = m.gaugeFn()
			} else {
				v = m.counter.Value()
			}
			fmt.Fprintf(&b, "%s %s\n", sampleName(m.name, m.labels, ""), formatValue(v))
		case kindGauge:
			v := 0.0
			if m.gaugeFn != nil {
				v = m.gaugeFn()
			} else {
				v = m.gauge.Value()
			}
			fmt.Fprintf(&b, "%s %s\n", sampleName(m.name, m.labels, ""), formatValue(v))
		case kindHistogram:
			counts, count, sum := m.hist.Snapshot()
			cum := uint64(0)
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(m.hist.bounds) {
					le = formatValue(m.hist.bounds[i])
				}
				fmt.Fprintf(&b, "%s %d\n",
					sampleName(m.name+"_bucket", m.labels, `le="`+le+`"`), cum)
			}
			fmt.Fprintf(&b, "%s %s\n", sampleName(m.name+"_sum", m.labels, ""), formatValue(sum))
			fmt.Fprintf(&b, "%s %d\n", sampleName(m.name+"_count", m.labels, ""), count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
