package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentAdds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "test counter")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
	// Counters never go down.
	c.Add(-5)
	c.Add(math.NaN())
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter after bad deltas = %v, want 8000", got)
	}
}

func TestGaugeAdd(t *testing.T) {
	var g Gauge
	g.Add(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(1)
	g.Add(1)
	h.Observe(1)
	if _, n, _ := h.Snapshot(); c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 || n != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	var m *SimMetrics
	m.RecordRun(10, 1.5, 2, 3, time.Second)
	var pm *PoolMetrics
	pm.Resolved("done")
	pm.BreakerChanged("closed", "open")
}

// TestPoolMetricsBreakerGauges walks one breaker through its full
// lifecycle and checks the current-state gauges track it exactly: the
// transition counters say how often it flapped, the gauges say where it
// is now.
func TestPoolMetricsBreakerGauges(t *testing.T) {
	m := NewPoolMetrics(NewRegistry())
	check := func(step string, open, half float64) {
		t.Helper()
		if got := m.BreakersOpen.Value(); got != open {
			t.Errorf("%s: open gauge = %v, want %v", step, got, open)
		}
		if got := m.BreakersHalfOpen.Value(); got != half {
			t.Errorf("%s: half-open gauge = %v, want %v", step, got, half)
		}
	}
	check("initial", 0, 0)
	m.BreakerChanged("closed", "open")
	check("tripped", 1, 0)
	m.BreakerChanged("open", "half-open")
	check("probing", 0, 1)
	m.BreakerChanged("half-open", "open")
	check("probe failed", 1, 0)
	m.BreakerChanged("open", "half-open")
	m.BreakerChanged("half-open", "closed")
	check("recovered", 0, 0)
	if got := m.BreakerOpens.Value(); got != 2 {
		t.Errorf("opens counter = %v, want 2", got)
	}
	if got := m.BreakerCloses.Value(); got != 1 {
		t.Errorf("closes counter = %v, want 1", got)
	}
	// A second breaker tripping while the first is closed: gauges count
	// breakers, not transitions.
	m.BreakerChanged("closed", "open")
	m.BreakerChanged("closed", "open")
	check("two tripped", 2, 0)
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 10} {
		h.Observe(v)
	}
	counts, count, sum := h.Snapshot()
	// Buckets: ≤1 gets {0.5, 1}; ≤2 gets {1.5, 2}; ≤5 gets {4}; +Inf {10}.
	want := []uint64{2, 2, 1, 1}
	if len(counts) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(counts), len(want))
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, counts[i], want[i], counts)
		}
	}
	if count != 6 {
		t.Fatalf("count = %d, want 6", count)
	}
	if sum != 19 {
		t.Fatalf("sum = %v, want 19", sum)
	}
}

func TestHistogramDeterministicLayout(t *testing.T) {
	// Unsorted, duplicated, and non-finite bounds collapse to one layout.
	a := newHistogram([]float64{5, 1, 2, 2, math.Inf(1), math.NaN()})
	b := newHistogram([]float64{1, 2, 5})
	if len(a.bounds) != len(b.bounds) {
		t.Fatalf("layouts differ: %v vs %v", a.bounds, b.bounds)
	}
	for i := range a.bounds {
		if a.bounds[i] != b.bounds[i] {
			t.Fatalf("layouts differ: %v vs %v", a.bounds, b.bounds)
		}
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("dup_total", "dup")
	c2 := r.Counter("dup_total", "dup")
	if c1 != c2 {
		t.Fatal("same (name, labels) must return the same counter")
	}
	l1 := r.Counter("dup_total", "dup", Label{Key: "k", Value: "v"})
	if l1 == c1 {
		t.Fatal("distinct label sets must be distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("dup_total", "dup")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "a counter").Add(2)
	r.Gauge("a_gauge", "a gauge").Add(1.5)
	r.GaugeFunc("a_fn_gauge", "a callback gauge", func() float64 { return 42 })
	h := r.Histogram("c_seconds", "a histogram", []float64{0.1, 1},
		Label{Key: "path", Value: "/v1/runs"})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	// A label value is escaped per the exposition format.
	r.Counter("d_total", "an escaped label", Label{Key: "v", Value: "a\\b\"c\nd"}).Add(1)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE a_fn_gauge gauge\na_fn_gauge 42\n",
		"# TYPE a_gauge gauge\na_gauge 1.5\n",
		"# TYPE b_total counter\nb_total 2\n",
		`c_seconds_bucket{path="/v1/runs",le="0.1"} 1` + "\n",
		`c_seconds_bucket{path="/v1/runs",le="1"} 2` + "\n",
		`c_seconds_bucket{path="/v1/runs",le="+Inf"} 3` + "\n",
		`c_seconds_sum{path="/v1/runs"} 5.55` + "\n",
		`c_seconds_count{path="/v1/runs"} 3` + "\n",
		`d_total{v="a\\b\"c\nd"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Rendering is sorted by name: a_* before b_* before c_*.
	if strings.Index(out, "a_gauge") > strings.Index(out, "b_total") ||
		strings.Index(out, "b_total") > strings.Index(out, "c_seconds") {
		t.Fatalf("exposition not sorted:\n%s", out)
	}
	// Two renders of the same state are byte-identical.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatal("render is not deterministic")
	}
}

func TestTracerSlowSpanLogging(t *testing.T) {
	var logged []string
	var observed time.Duration
	tr := &Tracer{
		Slow: time.Nanosecond,
		Logf: func(format string, args ...any) { logged = append(logged, format) },
		OnEnd: func(name string, d time.Duration) {
			if name != "op" {
				t.Fatalf("span name %q, want op", name)
			}
			observed = d
		},
	}
	sp := tr.Start("op")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 || observed != d {
		t.Fatalf("span duration %v, OnEnd saw %v", d, observed)
	}
	if len(logged) != 1 {
		t.Fatalf("slow span logged %d times, want 1", len(logged))
	}
	// Below threshold: no log.
	quiet := &Tracer{Slow: time.Hour, Logf: func(string, ...any) { t.Fatal("fast span logged") }}
	quiet.Start("fast").End()
	// Zero tracer is usable.
	var zero Tracer
	if zero.Start("z").End() < 0 {
		t.Fatal("zero tracer returned a negative duration")
	}
}

func TestObserveIsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "")
	g := r.Gauge("alloc_gauge", "")
	h := r.Histogram("alloc_seconds", "", DurationBuckets)
	m := NewSimMetrics(r)
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Add(1)
		h.Observe(0.5)
		m.RecordRun(100, 2.5, 7, 3, time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("instrument mutation allocates %v times per op, want 0", allocs)
	}
}
