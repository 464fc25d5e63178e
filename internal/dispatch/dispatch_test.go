package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fcdpm/internal/client"
	"fcdpm/internal/config"
	"fcdpm/internal/runreport"
	"fcdpm/internal/version"
)

// scenarioJSON builds a small, fast, deterministic scenario spec.
func scenarioJSON(name string, seed int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(
		`{"name":%q,"trace":{"kind":"synthetic","seed":%d,"duration":60},"policy":{"kind":"fcdpm"}}`,
		name, seed))
}

// renderLocally computes the row `fcdpm batch -rows` writes for spec —
// the byte-identity oracle every test compares against.
func renderLocally(t *testing.T, spec json.RawMessage) []byte {
	t.Helper()
	scen, err := config.LoadValidated(bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	key, err := scen.CacheKey(version.Engine())
	if err != nil {
		t.Fatal(err)
	}
	row := runreport.Execute(context.Background(), version.Engine(), []runreport.Cell{{Spec: scen, Key: key}}, nil, nil)[0]
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	return row.Body
}

func newTestDispatcher(t *testing.T, opts Options) (*Dispatcher, *httptest.Server) {
	t.Helper()
	opts.Logf = t.Logf
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(func() { ts.Close(); d.Close() })
	return d, ts
}

// startTestWorker runs a fast-polling worker until the returned stop
// function is called (which waits for the drain).
func startTestWorker(t *testing.T, name, dispatcher string, workers int) (*Worker, func()) {
	t.Helper()
	w, err := NewWorker(WorkerOptions{
		Dispatcher: dispatcher, Name: name, Workers: workers,
		PollMin: 2 * time.Millisecond, PollMax: 20 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		})
	}
	t.Cleanup(stop)
	return w, stop
}

// TestSweepEndToEnd drives the full fabric in-process: submit through
// the client, execute on a real worker, and check the returned rows
// byte-for-byte against local simulation. A resubmission must resolve
// entirely from the cache without touching the worker again.
func TestSweepEndToEnd(t *testing.T) {
	_, ts := newTestDispatcher(t, Options{LeaseTTL: time.Second})
	w, _ := startTestWorker(t, "w1", ts.URL, 2)

	specs := []json.RawMessage{
		scenarioJSON("e2e-a", 1), scenarioJSON("e2e-b", 2), scenarioJSON("e2e-c", 3),
	}
	rows := filepath.Join(t.TempDir(), "rows.ndjson")
	var events bytes.Buffer
	err := SubmitSweep(context.Background(), ClientOptions{
		Base: ts.URL, Rows: rows, Events: &events, Logf: t.Logf,
	}, SweepRequest{Name: "e2e", Scenarios: specs})
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}

	got, err := os.ReadFile(rows)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, spec := range specs {
		want.Write(renderLocally(t, spec))
		want.WriteByte('\n')
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("rows differ from local simulation\ngot:  %s\nwant: %s", got, want.Bytes())
	}
	if ev := events.String(); !strings.Contains(ev, `"kind":"resolved"`) {
		t.Fatalf("event stream never resolved:\n%s", ev)
	}
	if n := w.metrics.executed.Value(); n != 3 {
		t.Fatalf("worker executed %v shards, want 3", n)
	}

	// Idempotent re-dispatch: same specs, zero new simulations.
	rows2 := filepath.Join(t.TempDir(), "rows2.ndjson")
	err = SubmitSweep(context.Background(), ClientOptions{Base: ts.URL, Rows: rows2},
		SweepRequest{Name: "e2e-again", Scenarios: specs})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	got2, err := os.ReadFile(rows2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, got2) {
		t.Fatal("cached resubmission rows differ from the original")
	}
	if n := w.metrics.executed.Value(); n != 3 {
		t.Fatalf("resubmission re-simulated: executed %v, want 3", n)
	}
}

// TestUnnamedShardRowMatchesLocal: the row of an unnamed spec's shard
// is the row a local run of the spec writes, wherever the spec sits in
// its sweep.
func TestUnnamedShardRowMatchesLocal(t *testing.T) {
	_, ts := newTestDispatcher(t, Options{LeaseTTL: time.Second})
	startTestWorker(t, "w1", ts.URL, 1)
	unnamed := json.RawMessage(`{"trace":{"kind":"synthetic","seed":13,"duration":60}}`)
	rows := filepath.Join(t.TempDir(), "rows.ndjson")
	err := SubmitSweep(context.Background(), ClientOptions{Base: ts.URL, Rows: rows, Logf: t.Logf},
		SweepRequest{Name: "unnamed", Scenarios: []json.RawMessage{scenarioJSON("first", 1), unnamed}})
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	got, err := os.ReadFile(rows)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d rows, want 2:\n%s", len(lines), got)
	}
	if want := renderLocally(t, unnamed); !bytes.Equal(lines[1], want) {
		t.Fatalf("remote row of the unnamed shard differs from the local row:\n%s\n%s", lines[1], want)
	}
}

// TestSweepFailedShard: a shard whose simulation cannot even build
// resolves the sweep as failed and the client reports it.
func TestSweepFailedShard(t *testing.T) {
	_, ts := newTestDispatcher(t, Options{LeaseTTL: time.Second})
	startTestWorker(t, "w1", ts.URL, 1)

	// Valid spec, impossible simulation: a file trace pointing nowhere
	// passes validation but fails at Build time on the worker.
	bad := json.RawMessage(`{"name":"bad","trace":{"kind":"file","file":"/nonexistent/trace.csv"},"policy":{"kind":"fcdpm"}}`)
	err := SubmitSweep(context.Background(), ClientOptions{Base: ts.URL},
		SweepRequest{Name: "failing", Scenarios: []json.RawMessage{scenarioJSON("ok", 1), bad}})
	if err == nil || !strings.Contains(err.Error(), "1 of 2 shards failed") {
		t.Fatalf("err = %v, want 1 of 2 shards failed", err)
	}
}

// TestLeaseExpiryReclaim covers the chaos invariant at the protocol
// level: a worker that leases a shard and dies silent loses the lease;
// the shard re-enters the queue under a fresh epoch; the dead holder's
// late failure verdict is ignored, its late success is accepted; and
// the final result set holds exactly one row for the RunID.
func TestLeaseExpiryReclaim(t *testing.T) {
	clock := time.Now()
	var mu sync.Mutex
	opts := Options{LeaseTTL: time.Second, Now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}}
	advance := func(d time.Duration) {
		mu.Lock()
		clock = clock.Add(d)
		mu.Unlock()
	}
	d, ts := newTestDispatcher(t, opts)

	spec := scenarioJSON("reclaim-me", 7)
	var acc SweepAccepted
	if err := client.PostJSON(context.Background(), ts.Client(), ts.URL+"/v1/sweeps",
		SweepRequest{Name: "chaos", Scenarios: []json.RawMessage{spec}}, &acc); err != nil {
		t.Fatal(err)
	}

	lease := func(worker string) LeaseResponse {
		var resp LeaseResponse
		if err := client.PostJSON(context.Background(), ts.Client(), ts.URL+"/v1/lease",
			LeaseRequest{Worker: worker, Engine: version.Engine(), Max: 1}, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	ghost := lease("ghost")
	if len(ghost.Shards) != 1 {
		t.Fatalf("ghost leased %d shards, want 1", len(ghost.Shards))
	}

	// The ghost never heartbeats; its lease expires and the shard is
	// reclaimed under a fresh epoch.
	advance(2 * time.Second)
	if n := d.ReclaimExpired(); n != 1 {
		t.Fatalf("reclaimExpired = %d, want 1", n)
	}
	if v := d.metrics.expired.Value(); v != 1 {
		t.Fatalf("lease_expirations_total = %v, want 1", v)
	}
	if v := d.metrics.reclaimed.Value(); v != 1 {
		t.Fatalf("shards_reclaimed_total = %v, want 1", v)
	}

	// The ghost's late FAILURE verdict must not fail the shard: the
	// lease was reclaimed, the verdict belongs to the next holder.
	var cresp CompleteResponse
	err := client.PostJSON(context.Background(), ts.Client(), ts.URL+"/v1/complete", CompleteRequest{
		Worker: "ghost", Lease: ghost.Shards[0].Lease, RunID: ghost.Shards[0].RunID,
		Key: ghost.Shards[0].Key, OK: false, Error: "killed mid-shard",
	}, &cresp)
	if err != nil || !cresp.Duplicate {
		t.Fatalf("stale failure: err=%v duplicate=%v, want ignored as duplicate", err, cresp.Duplicate)
	}

	// A second worker picks the shard up under the new epoch and
	// completes it for real.
	second := lease("w2")
	if len(second.Shards) != 1 {
		t.Fatalf("w2 leased %d shards, want 1", len(second.Shards))
	}
	if second.Shards[0].Lease == ghost.Shards[0].Lease {
		t.Fatal("reclaimed shard re-leased under the same epoch")
	}
	if second.Shards[0].RunID != ghost.Shards[0].RunID {
		t.Fatal("re-dispatch changed the shard's RunID")
	}
	body := renderLocally(t, spec)
	err = client.PostJSON(context.Background(), ts.Client(), ts.URL+"/v1/complete", CompleteRequest{
		Worker: "w2", Lease: second.Shards[0].Lease, RunID: second.Shards[0].RunID,
		Key: second.Shards[0].Key, OK: true, Body: body,
	}, &cresp)
	if err != nil || cresp.Duplicate {
		t.Fatalf("real completion: err=%v duplicate=%v", err, cresp.Duplicate)
	}

	// The ghost resurfaces and pushes its own success (the at-least-once
	// path): deduplicated, not double-counted.
	err = client.PostJSON(context.Background(), ts.Client(), ts.URL+"/v1/complete", CompleteRequest{
		Worker: "ghost", Lease: ghost.Shards[0].Lease, RunID: ghost.Shards[0].RunID,
		Key: ghost.Shards[0].Key, OK: true, Body: body,
	}, &cresp)
	if err != nil || !cresp.Duplicate {
		t.Fatalf("late duplicate success: err=%v duplicate=%v, want duplicate", err, cresp.Duplicate)
	}
	if v := d.metrics.duplicates.Value(); v != 2 {
		t.Fatalf("duplicate_completions_total = %v, want 2", v)
	}

	var st SweepStatus
	if err := client.GetJSON(context.Background(), ts.Client(), ts.URL+"/v1/sweeps/"+acc.ID, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "done" || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("status = %+v, want done with 1 completed", st)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + acc.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows bytes.Buffer
	rows.ReadFrom(resp.Body)
	if want := string(body) + "\n"; rows.String() != want {
		t.Fatalf("results = %q, want exactly one row %q", rows.String(), want)
	}
}

// TestStaleSuccessAccepted: a reclaimed worker's finished result is
// still a result — it completes the shard before the new holder even
// reports, and the new holder's push deduplicates.
func TestStaleSuccessAccepted(t *testing.T) {
	clock := time.Now()
	var mu sync.Mutex
	d, ts := newTestDispatcher(t, Options{LeaseTTL: time.Second, Now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}})

	spec := scenarioJSON("stale-win", 9)
	var acc SweepAccepted
	if err := client.PostJSON(context.Background(), ts.Client(), ts.URL+"/v1/sweeps",
		SweepRequest{Scenarios: []json.RawMessage{spec}}, &acc); err != nil {
		t.Fatal(err)
	}
	var first LeaseResponse
	if err := client.PostJSON(context.Background(), ts.Client(), ts.URL+"/v1/lease",
		LeaseRequest{Worker: "slow", Engine: version.Engine(), Max: 1}, &first); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	clock = clock.Add(2 * time.Second)
	mu.Unlock()
	if n := d.ReclaimExpired(); n != 1 {
		t.Fatalf("reclaimExpired = %d, want 1", n)
	}

	// The slow worker finishes anyway and delivers under its stale lease.
	body := renderLocally(t, spec)
	var cresp CompleteResponse
	err := client.PostJSON(context.Background(), ts.Client(), ts.URL+"/v1/complete", CompleteRequest{
		Worker: "slow", Lease: first.Shards[0].Lease, RunID: first.Shards[0].RunID,
		Key: first.Shards[0].Key, OK: true, Body: body,
	}, &cresp)
	if err != nil || cresp.Duplicate {
		t.Fatalf("stale success: err=%v duplicate=%v, want accepted", err, cresp.Duplicate)
	}
	var st SweepStatus
	if err := client.GetJSON(context.Background(), ts.Client(), ts.URL+"/v1/sweeps/"+acc.ID, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "done" || st.Completed != 1 {
		t.Fatalf("status = %+v, want done", st)
	}
}

// TestKillAndResumeSweep is the satellite-5 regression: a dispatcher
// killed mid-sweep and restarted on the same state dir resumes with the
// cache-hit shards still resolved, re-simulates nothing it already has,
// and serves rows byte-identical to a local batch of the same specs.
func TestKillAndResumeSweep(t *testing.T) {
	state := t.TempDir()
	specs := []json.RawMessage{
		scenarioJSON("resume-a", 11), scenarioJSON("resume-b", 12),
		scenarioJSON("resume-c", 13), scenarioJSON("resume-d", 14),
	}

	// Phase 1: complete half the shards so their bodies are in the disk
	// cache, then stop everything.
	d1, ts1 := newTestDispatcher(t, Options{StateDir: state, LeaseTTL: time.Second})
	w1, stop1 := startTestWorker(t, "w1", ts1.URL, 2)
	err := SubmitSweep(context.Background(), ClientOptions{Base: ts1.URL},
		SweepRequest{Name: "warmup", Scenarios: specs[:2]})
	if err != nil {
		t.Fatalf("warmup sweep: %v", err)
	}
	if n := w1.metrics.executed.Value(); n != 2 {
		t.Fatalf("warmup executed %v, want 2", n)
	}
	stop1()

	// Phase 2: submit the full sweep with no worker running — the two
	// warm shards resolve from cache instantly, two stay queued — then
	// kill the dispatcher mid-sweep.
	var acc SweepAccepted
	if err := client.PostJSON(context.Background(), ts1.Client(), ts1.URL+"/v1/sweeps",
		SweepRequest{Name: "resume", Scenarios: specs}, &acc); err != nil {
		t.Fatal(err)
	}
	var st SweepStatus
	if err := client.GetJSON(context.Background(), ts1.Client(), ts1.URL+"/v1/sweeps/"+acc.ID, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cached != 2 || st.Remaining != 2 {
		t.Fatalf("pre-kill status = %+v, want 2 cached / 2 remaining", st)
	}
	ts1.Close()
	d1.Close()

	// Phase 3: restart on the same state dir. The sweep must come back
	// mid-flight with its cache hits intact.
	d2, ts2 := newTestDispatcher(t, Options{StateDir: state, LeaseTTL: time.Second})
	if err := client.GetJSON(context.Background(), ts2.Client(), ts2.URL+"/v1/sweeps/"+acc.ID, &st); err != nil {
		t.Fatalf("sweep lost across restart: %v", err)
	}
	if st.Status != "running" || st.Completed != 2 || st.Cached != 2 || st.Remaining != 2 {
		t.Fatalf("post-restart status = %+v, want running with 2 cached completed", st)
	}
	if v := d2.metrics.reclaimed.Value(); v != 2 {
		t.Fatalf("restart requeued %v shards into reclaimed metric, want 2", v)
	}

	// A fresh worker finishes only the two cold shards.
	w2, stop2 := startTestWorker(t, "w2", ts2.URL, 2)
	waitSweepDone(t, ts2, acc.ID, 30*time.Second)
	stop2()
	if n := w2.metrics.executed.Value(); n != 2 {
		t.Fatalf("resumed worker executed %v shards, want 2 (zero re-simulation)", n)
	}

	// Rows: submission order, byte-identical to local simulation of the
	// same specs (which is what `fcdpm batch -rows` renders).
	resp, err := ts2.Client().Get(ts2.URL + "/v1/sweeps/" + acc.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	var want bytes.Buffer
	for _, spec := range specs {
		want.Write(renderLocally(t, spec))
		want.WriteByte('\n')
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("resumed rows differ from local batch\ngot:  %s\nwant: %s", got.Bytes(), want.Bytes())
	}
}

func waitSweepDone(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var st SweepStatus
		if err := client.GetJSON(context.Background(), ts.Client(), ts.URL+"/v1/sweeps/"+id, &st); err != nil {
			t.Fatal(err)
		}
		if st.Done() {
			if st.Failed > 0 {
				t.Fatalf("sweep failed: %+v", st)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not resolve within %s", id, timeout)
}

// TestResultsConflictWhileRunning: /results answers 409 until the sweep
// resolves, so a client can never read a partial row set.
func TestResultsConflictWhileRunning(t *testing.T) {
	_, ts := newTestDispatcher(t, Options{LeaseTTL: time.Second})
	var acc SweepAccepted
	if err := client.PostJSON(context.Background(), ts.Client(), ts.URL+"/v1/sweeps",
		SweepRequest{Scenarios: []json.RawMessage{scenarioJSON("pending", 3)}}, &acc); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + acc.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("results while running = %d, want 409", resp.StatusCode)
	}
}

// TestEngineMismatchRejected: a worker built from different source can
// never taint a sweep — its lease requests bounce with 409.
func TestEngineMismatchRejected(t *testing.T) {
	_, ts := newTestDispatcher(t, Options{LeaseTTL: time.Second})
	var resp LeaseResponse
	err := client.PostJSON(context.Background(), ts.Client(), ts.URL+"/v1/lease",
		LeaseRequest{Worker: "other", Engine: "fcdpm-other-build", Max: 1}, &resp)
	var he *client.Error
	if err == nil || !strings.Contains(err.Error(), "engine mismatch") {
		t.Fatalf("err = %v, want engine mismatch", err)
	}
	if !errors.As(err, &he) || he.Code != http.StatusConflict {
		t.Fatalf("err = %v, want 409", err)
	}
}

// TestDrainingRefusesWithRetryAfter: a draining dispatcher sheds
// submissions and leases with 503 + Retry-After, which the worker and
// client backoffs honor.
func TestDrainingRefusesWithRetryAfter(t *testing.T) {
	d, ts := newTestDispatcher(t, Options{LeaseTTL: time.Second})
	d.draining.Store(true)
	resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"scenarios":[{"policy":{"kind":"fcdpm"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 missing Retry-After")
	}
}

// TestWorkerSpoolDrain: a result the dispatcher cannot accept lands in
// the disk spool and is redelivered — exactly once — when the
// dispatcher answers again.
func TestWorkerSpoolDrain(t *testing.T) {
	var accept bool
	var gotMu sync.Mutex
	var got []CompleteRequest
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		gotMu.Lock()
		defer gotMu.Unlock()
		if !accept {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		var req CompleteRequest
		json.NewDecoder(r.Body).Decode(&req)
		got = append(got, req)
		json.NewEncoder(w).Encode(CompleteResponse{})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	spool := t.TempDir()
	w, err := NewWorker(WorkerOptions{
		Dispatcher: ts.URL, Name: "sp", Workers: 1, SpoolDir: spool,
		PollMin: time.Millisecond, PollMax: 2 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.poolStop()

	req := CompleteRequest{Worker: "sp", Lease: "swp-000001/0/1", RunID: "shard/key=k", Key: "k",
		OK: true, Body: json.RawMessage(`{"x":1}`)}
	if w.pushComplete(context.Background(), req, 2) {
		t.Fatal("pushComplete succeeded against a down dispatcher")
	}
	w.spool(req)
	entries, _ := os.ReadDir(spool)
	if len(entries) != 1 {
		t.Fatalf("spool holds %d files, want 1", len(entries))
	}

	// Dispatcher still down: the drain keeps the file.
	w.drainSpool(context.Background())
	if entries, _ = os.ReadDir(spool); len(entries) != 1 {
		t.Fatalf("drain against a down dispatcher left %d files, want 1", len(entries))
	}

	gotMu.Lock()
	accept = true
	gotMu.Unlock()
	w.drainSpool(context.Background())
	if entries, _ = os.ReadDir(spool); len(entries) != 0 {
		t.Fatalf("drained spool still holds %d files", len(entries))
	}
	gotMu.Lock()
	defer gotMu.Unlock()
	if len(got) != 1 || got[0].RunID != "shard/key=k" || !got[0].OK {
		t.Fatalf("dispatcher received %+v, want the spooled result once", got)
	}
	if v := w.metrics.drained.Value(); v != 1 {
		t.Fatalf("spool_drained_total = %v, want 1", v)
	}
}

// TestWorkerLostLeaseCancelsRun: when a heartbeat reports a lease lost,
// the worker cancels that execution and never pushes its verdict.
func TestWorkerLostLeaseCancelsRun(t *testing.T) {
	clock := time.Now()
	var mu sync.Mutex
	d, ts := newTestDispatcher(t, Options{LeaseTTL: time.Second, Now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}})
	w, err := NewWorker(WorkerOptions{
		Dispatcher: ts.URL, Name: "loser", Workers: 1,
		PollMin: time.Millisecond, PollMax: 2 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.poolStop()

	var acc SweepAccepted
	if err := client.PostJSON(context.Background(), ts.Client(), ts.URL+"/v1/sweeps",
		SweepRequest{Scenarios: []json.RawMessage{scenarioJSON("lost", 21)}}, &acc); err != nil {
		t.Fatal(err)
	}
	var lr LeaseResponse
	if err := client.PostJSON(context.Background(), ts.Client(), ts.URL+"/v1/lease",
		LeaseRequest{Worker: "loser", Engine: version.Engine(), Max: 1}, &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Shards) != 1 {
		t.Fatalf("leased %d shards, want 1", len(lr.Shards))
	}
	sh := lr.Shards[0]
	act := &activeShard{shard: sh}
	w.mu.Lock()
	w.active[sh.Lease] = act
	act.lost = true // what heartbeatLoop does on a Lost report
	w.mu.Unlock()

	w.deliveries.Add(1)
	w.deliver(act, nil, context.Canceled)
	if v := w.metrics.pushed.Value(); v != 0 {
		t.Fatalf("lost lease still pushed %v completions", v)
	}
	// The shard is untouched server-side: reclaim hands it to the next
	// worker rather than recording the canceled run's failure.
	mu.Lock()
	clock = clock.Add(2 * time.Second)
	mu.Unlock()
	if n := d.ReclaimExpired(); n != 1 {
		t.Fatalf("reclaimExpired = %d, want 1", n)
	}
}
