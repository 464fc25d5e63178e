package perf

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func artifactAt(ts string, metrics ...Metric) *Artifact {
	a := newArtifact(1)
	a.Timestamp = ts
	a.Metrics = metrics
	return a
}

func TestWriteLatestRoundTrip(t *testing.T) {
	dir := t.TempDir()

	if a, path, err := Latest(dir); err != nil || a != nil || path != "" {
		t.Fatalf("empty dir: got (%v, %q, %v), want (nil, \"\", nil)", a, path, err)
	}
	if a, _, err := Latest(dir + "/missing"); err != nil || a != nil {
		t.Fatalf("missing dir: got (%v, %v), want (nil, nil)", a, err)
	}

	old := artifactAt("2026-01-02T03:04:05Z", Metric{Name: "m", NsPerOp: 100})
	cur := artifactAt("2026-01-03T03:04:05Z", Metric{Name: "m", NsPerOp: 50})
	for _, a := range []*Artifact{old, cur} {
		if _, err := Write(dir, a); err != nil {
			t.Fatal(err)
		}
	}
	got, path, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Timestamp != cur.Timestamp {
		t.Fatalf("Latest loaded %s (%s), want the newer %s", got.Timestamp, path, cur.Timestamp)
	}
	if m := got.Metric("m"); m == nil || m.NsPerOp != 50 {
		t.Fatalf("Metric(m) = %+v, want ns/op 50", m)
	}
}

// TestLatestPrefersStampedArtifacts: an artifact named without a stamp,
// like the checked-in BENCH_seed.json, sorts after every stamp by name
// but is older than a baseline measured since.
func TestLatestPrefersStampedArtifacts(t *testing.T) {
	dir := t.TempDir()
	data, err := json.Marshal(artifactAt("2026-01-01T00:00:00Z", Metric{Name: "m", NsPerOp: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_seed.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	host := artifactAt("2026-01-03T03:04:05Z", Metric{Name: "m", NsPerOp: 2})
	if _, err := Write(dir, host); err != nil {
		t.Fatal(err)
	}
	got, path, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Timestamp != host.Timestamp {
		t.Fatalf("Latest loaded %s (%s), want the stamped artifact of %s", got.Timestamp, path, host.Timestamp)
	}
}

func TestWriteRejectsBadTimestamp(t *testing.T) {
	a := newArtifact(1)
	a.Timestamp = "not-a-time"
	if _, err := Write(t.TempDir(), a); err == nil {
		t.Fatal("Write accepted a malformed timestamp")
	}
}

func TestCompare(t *testing.T) {
	prev := artifactAt("2026-01-02T03:04:05Z",
		Metric{Name: "fast", NsPerOp: 100, AllocsPerOp: 0},
		Metric{Name: "slow", NsPerOp: 100, AllocsPerOp: 1},
		Metric{Name: "gone", NsPerOp: 100},
	)
	cur := artifactAt("2026-01-03T03:04:05Z",
		Metric{Name: "fast", NsPerOp: 90, AllocsPerOp: 0},
		Metric{Name: "slow", NsPerOp: 130, AllocsPerOp: 2},
		Metric{Name: "new", NsPerOp: 100},
	)
	deltas, regressed, err := Compare(prev, cur, 0.15)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if !regressed {
		t.Fatal("Compare missed the +30% regression")
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2 (unmatched names skipped)", len(deltas))
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if byName["fast"].Regressed {
		t.Fatal("an improvement was flagged as a regression")
	}
	if !byName["slow"].Regressed {
		t.Fatal("the +30% slowdown was not flagged")
	}

	// At a looser threshold the same data passes: alloc increases alone
	// must never fail the gate.
	if _, regressed, err := Compare(prev, cur, 0.5); err != nil || regressed {
		t.Fatalf("alloc-count increase failed the gate at a passing time threshold (err %v)", err)
	}
}

func TestCompareZeroOverlapErrors(t *testing.T) {
	// Regression: a wholesale suite rename once made the gate pass
	// vacuously — every current benchmark was "present on only one side",
	// so Compare returned (nil, false) and CI went green with nothing
	// compared. Zero overlap must be an explicit error.
	prev := artifactAt("2026-01-02T03:04:05Z",
		Metric{Name: "old-name-a", NsPerOp: 100},
		Metric{Name: "old-name-b", NsPerOp: 200},
	)
	cur := artifactAt("2026-01-03T03:04:05Z",
		Metric{Name: "new-name-a", NsPerOp: 500},
		Metric{Name: "new-name-b", NsPerOp: 900},
	)
	deltas, regressed, err := Compare(prev, cur, 0.15)
	if err == nil {
		t.Fatalf("Compare(zero overlap) = (%v, %v, nil), want error", deltas, regressed)
	}
	// Both empty artifacts and a baseline emptied by corruption hit the
	// same guard.
	if _, _, err := Compare(artifactAt("2026-01-02T03:04:05Z"), cur, 0.15); err == nil {
		t.Fatal("Compare(empty baseline) passed vacuously")
	}
}

// TestCompareRefusesOtherHosts: a baseline measured under another Go
// version, architecture or CPU count is an error naming the field.
func TestCompareRefusesOtherHosts(t *testing.T) {
	m := Metric{Name: "m", NsPerOp: 100}
	for field, change := range map[string]func(*Artifact){
		"go_version": func(a *Artifact) { a.GoVersion = "go1.0" },
		"goarch":     func(a *Artifact) { a.GOARCH = "vax" },
		"num_cpu":    func(a *Artifact) { a.NumCPU++ },
	} {
		prev := artifactAt("2026-01-02T03:04:05Z", m)
		change(prev)
		_, _, err := Compare(prev, artifactAt("2026-01-03T03:04:05Z", m), 0.15)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("baseline with another %s: got %v, want an error naming it", field, err)
		}
	}
}

func TestRunShortSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nested benchmarks")
	}
	start := time.Now()
	art, err := Run(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Metrics) == 0 {
		t.Fatal("short suite produced no metrics")
	}
	for _, m := range art.Metrics {
		if m.NsPerOp <= 0 {
			t.Fatalf("%s: ns/op %v not positive", m.Name, m.NsPerOp)
		}
	}
	t.Logf("short suite: %d metrics in %s", len(art.Metrics), time.Since(start))
}
