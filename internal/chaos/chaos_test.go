package chaos

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fcdpm/internal/vfs"
)

func TestScheduleDeterministic(t *testing.T) {
	a, b := NewPlan(42), NewPlan(42)
	other := NewPlan(43)
	var diverged bool
	for n := uint64(0); n < 1000; n++ {
		fa, fb := a.fraction("s", "op", n), b.fraction("s", "op", n)
		if fa != fb {
			t.Fatalf("same seed diverged at call %d: %v vs %v", n, fa, fb)
		}
		if fa < 0 || fa >= 1 {
			t.Fatalf("fraction %v outside [0,1)", fa)
		}
		if fa != other.fraction("s", "op", n) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
	if a.fraction("client", "cut", 7) == a.fraction("worker-1", "cut", 7) {
		t.Fatal("different surfaces share a schedule")
	}
}

func TestTransportInjectsAndHeals(t *testing.T) {
	var hits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	plan := NewPlan(7)
	plan.partStart = time.Hour // keep the partition window out of the way
	client := &http.Client{Transport: plan.Transport("t", nil)}

	const calls = 400
	var failures, storms int
	for i := 0; i < calls; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			failures++
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			storms++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("injected 503 lacks Retry-After")
			}
		}
		resp.Body.Close()
	}
	if failures == 0 || storms == 0 {
		t.Fatalf("schedule injected no faults over %d calls (failures=%d storms=%d)", calls, failures, storms)
	}

	// Healed: zero faults, every request reaches the server.
	plan.Stop()
	before := hits
	for i := 0; i < 50; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Fatalf("fault after Stop: %v", err)
		}
		resp.Body.Close()
	}
	if hits-before != 50 {
		t.Fatalf("stopped transport reached the server %d/50 times", hits-before)
	}
}

func TestTransportPartition(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	plan := NewPlan(1)
	plan.partStart, plan.partDur = 0, time.Hour // the whole trial is partitioned
	client := &http.Client{Transport: plan.Transport("t", nil)}
	_, err := client.Get(srv.URL)
	if err == nil || !errors.Is(err, ErrInjectedCut) {
		t.Fatalf("partitioned call returned %v, want ErrInjectedCut", err)
	}
}

func TestFSFaults(t *testing.T) {
	dir := t.TempDir()
	plan := NewPlan(11)
	fs := plan.FS(nil, func(path string) bool { return strings.HasSuffix(path, ".json") })

	// Atomic writes: some draw ENOSPC (typed, classified by IsDiskFull),
	// the rest land.
	var enospc, landed int
	for i := 0; i < 200; i++ {
		err := fs.WriteFileAtomic(filepath.Join(dir, "blob.json"), []byte(`{"v":1}`))
		switch {
		case err == nil:
			landed++
		case vfs.IsDiskFull(err):
			enospc++
		default:
			t.Fatalf("unexpected write error: %v", err)
		}
	}
	if enospc == 0 || landed == 0 {
		t.Fatalf("over 200 writes: enospc=%d landed=%d, want both > 0", enospc, landed)
	}

	// Rot: reads of matching paths eventually come back truncated —
	// detectably invalid, never silently wrong.
	full := []byte(`{"key":"value","n":123}`)
	os.WriteFile(filepath.Join(dir, "rot.json"), full, 0o644)
	var rotted bool
	for i := 0; i < 400 && !rotted; i++ {
		b, err := fs.ReadFile(filepath.Join(dir, "rot.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < len(full) {
			rotted = true
		}
	}
	if !rotted {
		t.Fatal("rot filter matched but no read ever rotted")
	}
	// Non-matching paths never rot.
	os.WriteFile(filepath.Join(dir, "dispatch.wal"), full, 0o644)
	for i := 0; i < 400; i++ {
		b, _ := fs.ReadFile(filepath.Join(dir, "dispatch.wal"))
		if len(b) != len(full) {
			t.Fatal("rot hit a path outside the filter")
		}
	}

	// Torn appends leave a real prefix on disk and report a typed error.
	af, err := fs.OpenAppend(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer af.Close()
	rec := []byte(`{"op":"x","data":"0123456789abcdef"}` + "\n")
	var torn bool
	for i := 0; i < 400 && !torn; i++ {
		if err := af.Append(rec); err != nil {
			var we *vfs.WriteError
			if !errors.As(err, &we) {
				t.Fatalf("append fault is not a *vfs.WriteError: %v", err)
			}
			if !vfs.IsDiskFull(err) {
				torn = true // the torn-fsync variant
			}
		}
	}
	if !torn {
		t.Fatal("no torn append over 400 draws")
	}
	st, err := os.Stat(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size()%int64(len(rec)) == 0 {
		t.Logf("journal size %d is a clean multiple of the record size; torn prefix may have aligned", st.Size())
	}
}

func TestClockSkew(t *testing.T) {
	c := NewClock(0.5)
	time.Sleep(40 * time.Millisecond)
	skewed := c.Now().Sub(c.base)
	if skewed < 10*time.Millisecond || skewed > 35*time.Millisecond {
		t.Fatalf("rate-0.5 clock advanced %v over ~40ms real, want ~20ms", skewed)
	}
	start := time.Now()
	if err := c.Sleep(context.Background(), 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if real := time.Since(start); real < 15*time.Millisecond {
		t.Fatalf("10ms skewed sleep took %v real, want ~20ms", real)
	}
}

// TestTrialShort runs one full seeded trial — the whole fabric, fault
// schedule, hard restart, convergence, and every invariant check. Seed
// 5 is one of the faster schedules (~1s).
func TestTrialShort(t *testing.T) {
	if testing.Short() {
		t.Skip("full fabric trial")
	}
	res := RunTrial(context.Background(), TrialOptions{Seed: 5, Logf: t.Logf})
	if !res.OK() {
		t.Fatalf("seed 5 failed invariants: %v (dir %s)", res.Violations, res.Dir)
	}
	if res.Executed == 0 {
		t.Fatal("trial executed nothing")
	}
}

// TestRunRefusesNoTrials: a run of fewer than one trial is an error, not
// one trial run in its place.
func TestRunRefusesNoTrials(t *testing.T) {
	for _, n := range []int{0, -1} {
		if res, err := Run(context.Background(), Options{Trials: n, Seed: 1}); err == nil {
			t.Errorf("Run with %d trials ran %d trial(s) without error", n, res.Trials)
		}
	}
}
