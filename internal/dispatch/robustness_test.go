package dispatch

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fcdpm/internal/vfs"
)

// countdownFS wraps the real filesystem and starts failing journal
// appends and atomic writes with a typed disk-full error once its
// budget of successful writes runs out. okLeft < 0 means unlimited.
type countdownFS struct {
	vfs.FS
	okLeft atomic.Int64
}

func newCountdownFS() *countdownFS {
	fs := &countdownFS{FS: vfs.Default}
	fs.okLeft.Store(-1)
	return fs
}

func (f *countdownFS) take() bool {
	for {
		n := f.okLeft.Load()
		if n < 0 {
			return true
		}
		if n == 0 {
			return false
		}
		if f.okLeft.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

func (f *countdownFS) WriteFileAtomic(path string, data []byte) error {
	if !f.take() {
		return &vfs.WriteError{Op: "write-atomic", Path: path, Err: vfs.ErrDiskFull}
	}
	return f.FS.WriteFileAtomic(path, data)
}

func (f *countdownFS) OpenAppend(path string) (vfs.AppendFile, error) {
	af, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &countdownAF{fs: f, path: path, inner: af}, nil
}

type countdownAF struct {
	fs    *countdownFS
	path  string
	inner vfs.AppendFile
}

func (a *countdownAF) Append(b []byte) error {
	if !a.fs.take() {
		return &vfs.WriteError{Op: "append", Path: a.path, Err: vfs.ErrDiskFull}
	}
	return a.inner.Append(b)
}

func (a *countdownAF) Truncate(size int64) error { return a.inner.Truncate(size) }
func (a *countdownAF) Close() error              { return a.inner.Close() }

// fakeClock is a mutable time source: Options.Now for a dispatcher,
// and a runner.Clock for a worker, whose sleeps end only when Advance
// moves the clock past them.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []*fakeSleep
}

// fakeSleep is one pending Sleep: its wake instant and the channel
// Advance closes when the clock reaches it.
type fakeSleep struct {
	until time.Time
	done  chan struct{}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 || ctx.Err() != nil {
		return ctx.Err()
	}
	c.mu.Lock()
	s := &fakeSleep{until: c.now.Add(d), done: make(chan struct{})}
	c.sleeps = append(c.sleeps, s)
	c.mu.Unlock()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		for i, p := range c.sleeps {
			if p == s {
				c.sleeps = append(c.sleeps[:i], c.sleeps[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
		return ctx.Err()
	}
}

// sleeping counts the goroutines blocked in Sleep.
func (c *fakeClock) sleeping() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sleeps)
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	pending := c.sleeps[:0]
	for _, s := range c.sleeps {
		if c.now.Before(s.until) {
			pending = append(pending, s)
		} else {
			close(s.done)
		}
	}
	c.sleeps = pending
}

// TestDispatcherFakeClock pins the clock-injection contract: every
// time-dependent dispatcher behavior — uptime, lease expiry, skew
// grace — must follow Options.Now, not the wall clock. (Two call sites
// used to read time.Now() directly, which made lease-TTL behavior
// untestable without real sleeps.)
func TestDispatcherFakeClock(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	ttl := 10 * time.Second
	d, ts := newTestDispatcher(t, Options{LeaseTTL: ttl, Now: clock.Now})

	// Uptime follows the fake clock exactly.
	clock.Advance(90 * time.Second)
	var health struct {
		UptimeS float64 `json:"uptimeS"`
	}
	httpGetJSON(t, ts.URL+"/healthz", &health)
	if health.UptimeS != 90 {
		t.Fatalf("uptimeS = %v, want exactly 90 (uptime must follow the injected clock)", health.UptimeS)
	}

	// Admit one shard and lease it.
	var acc SweepAccepted
	httpPostJSON(t, ts.URL+"/v1/sweeps", SweepRequest{Name: "t",
		Scenarios: []json.RawMessage{scenarioJSON("a", 1)}}, &acc)
	var lease LeaseResponse
	httpPostJSON(t, ts.URL+"/v1/lease", LeaseRequest{Worker: "w", Engine: d.engine, Max: 1}, &lease)
	if len(lease.Shards) != 1 {
		t.Fatalf("leased %d shards, want 1", len(lease.Shards))
	}

	// Expired by TTL but inside the skew grace (TTL/3): a worker whose
	// clock runs slow within tolerance must not lose its lease.
	clock.Advance(ttl + ttl/6)
	d.ReclaimExpired()
	if n := d.stateCount(shardLeased); n != 1 {
		t.Fatalf("shard reclaimed inside the skew-grace window (leased=%d, want 1)", n)
	}

	// Past TTL + grace: reclaimed.
	clock.Advance(ttl / 3)
	d.ReclaimExpired()
	if n := d.stateCount(shardQueued); n != 1 {
		t.Fatalf("shard not reclaimed after TTL+grace (queued=%d, want 1)", n)
	}
}

func (d *Dispatcher) stateCount(state string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inState[state]
}

// TestWALFenceAdmissions: a journal append failure must fence
// admissions behind 503 + Retry-After (never admit a sweep the WAL
// didn't record), and the fence must lift by itself once the journal
// writes again.
func TestWALFenceAdmissions(t *testing.T) {
	fs := newCountdownFS()
	_, ts := newTestDispatcher(t, Options{
		LeaseTTL: time.Second, StateDir: t.TempDir(), FS: fs,
	})

	fs.okLeft.Store(0) // disk full from now on
	req := SweepRequest{Name: "t", Scenarios: []json.RawMessage{scenarioJSON("a", 1)}}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with unwritable journal: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("fenced 503 has no Retry-After header")
	}

	fs.okLeft.Store(-1) // disk recovers
	var acc SweepAccepted
	httpPostJSON(t, ts.URL+"/v1/sweeps", req, &acc)
	if acc.Shards != 1 {
		t.Fatalf("post-recovery submit accepted %d shards, want 1", acc.Shards)
	}
}

// TestCacheHitSurvivesJournalFailure is the regression test for a wedge
// the chaos harness found: a sweep whose cache-hit completion the
// journal refuses mid-admission left the shard in the queued state but
// absent from the queue — unleasable forever, sweep never resolves. The
// shard must instead stay queued-and-queued, and complete (from cache,
// zero executions) once the journal recovers.
func TestCacheHitSurvivesJournalFailure(t *testing.T) {
	fs := newCountdownFS()
	_, ts := newTestDispatcher(t, Options{
		LeaseTTL: time.Second, StateDir: t.TempDir(), FS: fs,
	})
	w, _ := startTestWorker(t, "w1", ts.URL, 1)

	// First sweep executes for real and populates the cache.
	req := SweepRequest{Name: "t", Scenarios: []json.RawMessage{scenarioJSON("a", 1)}}
	var acc SweepAccepted
	httpPostJSON(t, ts.URL+"/v1/sweeps", req, &acc)
	waitSweepDone(t, ts, acc.ID, 15*time.Second)
	execsBefore := w.Stats().Executed

	// Second, identical sweep: the sweep record lands (budget 1), then
	// the cache-hit completion's shard record fails.
	fs.okLeft.Store(1)
	var acc2 SweepAccepted
	httpPostJSON(t, ts.URL+"/v1/sweeps", req, &acc2)

	// Journal recovers; the worker's next lease probes the fence, pops
	// the shard, and completes it from the cache.
	fs.okLeft.Store(-1)
	waitSweepDone(t, ts, acc2.ID, 15*time.Second)
	if d := w.Stats().Executed - execsBefore; d != 0 {
		t.Fatalf("recovery re-executed %d shard(s), want 0 (pure cache hit)", d)
	}
}

// TestWorkerSpoolShed: a disk-full spool write must count a shed and
// pause leasing for the shed period instead of silently dropping the
// result class again and again.
func TestWorkerSpoolShed(t *testing.T) {
	fs := newCountdownFS()
	fs.okLeft.Store(0)
	w, err := NewWorker(WorkerOptions{
		Dispatcher: "http://127.0.0.1:1", Name: "shed", Workers: 1,
		SpoolDir: t.TempDir(), SpoolShedPeriod: time.Minute,
		FS: fs, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.poolStop()

	w.spool(CompleteRequest{Worker: "shed", Lease: "swp-000001/0/1", RunID: "r", Key: "k", OK: true})
	st := w.Stats()
	if st.SpoolErrs != 1 || st.Sheds != 1 {
		t.Fatalf("stats after disk-full spool = %+v, want SpoolErrs=1 Sheds=1", st)
	}
	w.mu.Lock()
	shed := w.shedUntil
	w.mu.Unlock()
	if !shed.After(w.opts.Clock.Now()) {
		t.Fatal("disk-full spool did not raise the shed window")
	}
}

func httpGetJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func httpPostJSON(t *testing.T, url string, in, out any) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: HTTP %d", url, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}
