package dispatch

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"fcdpm/internal/client"
	"fcdpm/internal/runner"
)

// TestWorkerHeartbeatFollowsLeaseTTL: a worker starts on the default
// 15 s lease TTL and learns the dispatcher's 2 s TTL only from its first
// lease. Its first heartbeat must still land within TTL/3 of the grant,
// and a healthy shard it holds for longer than TTL + TTL/3 — the
// dispatcher's reclaim deadline — must not be reclaimed. Both clocks are
// one fake, so the test controls every instant.
func TestWorkerHeartbeatFollowsLeaseTTL(t *testing.T) {
	const ttl = 2 * time.Second
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	d, ts := newTestDispatcher(t, Options{LeaseTTL: ttl, Now: clock.Now})
	w, err := NewWorker(WorkerOptions{
		Dispatcher: ts.URL, Name: "hb", Workers: 1,
		PollMin: time.Millisecond, PollMax: 2 * time.Millisecond,
		Logf: t.Logf, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the worker's only pool slot, so the shard it leases stays
	// held, queued behind this task, until the test releases it.
	release, holding := make(chan struct{}), make(chan struct{})
	if err := w.pool.Submit(runner.Task[struct{}]{ID: "hold", Run: func(context.Context) (struct{}, error) {
		close(holding)
		<-release
		return struct{}{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-holding

	var acc SweepAccepted
	if err := client.PostJSON(context.Background(), ts.Client(), ts.URL+"/v1/sweeps",
		SweepRequest{Name: "hb", Scenarios: []json.RawMessage{scenarioJSON("hb", 5)}}, &acc); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	// The worker drains its pool on exit, so the hold ends first.
	releaseHold := sync.OnceFunc(func() { close(release) })
	defer releaseHold()

	// await polls, in real time, until the shard's state and lease
	// expiry satisfy ok.
	await := func(why string, ok func(state string, expires time.Time) bool) time.Time {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			d.mu.Lock()
			sh := d.sweeps[acc.ID].shards[0]
			state, expires := sh.state, sh.expires
			d.mu.Unlock()
			if ok(state, expires) {
				return expires
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: shard %s, lease expiring %s", why, state, expires)
			}
		}
	}

	// advance moves the clock once the heartbeat loop — the only sleeper
	// while the shard is held — is parked in Sleep, so no step slips
	// past it.
	advance := func(d time.Duration) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); clock.sleeping() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("heartbeat loop never slept")
			}
		}
		clock.Advance(d)
	}

	grant := clock.Now()
	await("no lease granted", func(state string, _ time.Time) bool { return state != shardQueued })
	advance(ttl/3 - time.Millisecond)
	expires := await("no heartbeat within TTL/3 of the grant", func(state string, _ time.Time) bool {
		return state == shardExecuting
	})
	if hb := expires.Add(-ttl).Sub(grant); hb > ttl/3 {
		t.Fatalf("first heartbeat %s after the grant, want within %s", hb, ttl/3)
	}

	// Hold the shard past the reclaim deadline, one heartbeat period at
	// a time: each step must renew the lease, and none may reclaim it.
	for clock.Now().Sub(grant) <= ttl+ttl/3+ttl/2 {
		advance(ttl/3 + 10*time.Millisecond)
		now := clock.Now()
		await("lease not renewed", func(_ string, expires time.Time) bool { return expires.Equal(now.Add(ttl)) })
		if n := d.ReclaimExpired(); n != 0 {
			t.Fatalf("healthy shard reclaimed %s after the grant", clock.Now().Sub(grant))
		}
	}
	releaseHold()
	waitSweepDone(t, ts, acc.ID, 10*time.Second)
	if v := d.metrics.reclaimed.Value(); v != 0 {
		t.Fatalf("shards_reclaimed_total = %v, want 0", v)
	}
}

// TestWorkerStreamsOutcomes: the daemon's pool lives as long as the
// daemon, so it must not keep one outcome per executed shard.
func TestWorkerStreamsOutcomes(t *testing.T) {
	_, ts := newTestDispatcher(t, Options{LeaseTTL: time.Second})
	w, stop := startTestWorker(t, "streamer", ts.URL, 2)
	specs := []json.RawMessage{scenarioJSON("o-a", 1), scenarioJSON("o-b", 2), scenarioJSON("o-c", 3)}
	var acc SweepAccepted
	if err := client.PostJSON(context.Background(), ts.Client(), ts.URL+"/v1/sweeps",
		SweepRequest{Name: "outcomes", Scenarios: specs}, &acc); err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, ts, acc.ID, 30*time.Second)
	stop()
	rep, err := w.pool.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done < len(specs) {
		t.Fatalf("pool resolved %d shards, want at least %d", rep.Done, len(specs))
	}
	if len(rep.Outcomes) != 0 {
		t.Fatalf("pool retained %d outcomes after %d shards, want 0", len(rep.Outcomes), rep.Done)
	}
}
