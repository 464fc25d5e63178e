// Package perf is the benchmark-regression harness behind `fcdpm bench`:
// it runs a fixed suite of micro- and macro-benchmarks through the
// standard testing.Benchmark driver, writes the measurements to a
// BENCH_<timestamp>.json artifact, and compares a fresh run against the
// latest stored artifact so CI can fail on throughput regressions.
//
// The suite is intentionally small and stable — a regression gate is only
// useful when the benchmark names persist across commits:
//
//   - optimize-slot: one §3 per-slot optimization (FC-DPM's online cost)
//   - stack-current: one Eq 4 fuel-map evaluation
//   - memo-fuel: one memoized fuel-map evaluation (the simulator's path)
//   - sim-throughput: a full camcorder-trace FC-DPM run on a reused
//     runner at the fuel-only record level (slots/sec is the headline)
//   - experiment1: the complete Table 2 three-policy comparison
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Metric is one benchmark's measurement.
type Metric struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// SlotsPerSec is the simulated-slot throughput, only set for
	// benchmarks that process a trace (0 otherwise).
	SlotsPerSec float64 `json:"slots_per_sec,omitempty"`
}

// Artifact is one stored benchmark run.
type Artifact struct {
	Timestamp string   `json:"timestamp"` // RFC 3339
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Repeat    int      `json:"repeat"`
	Metrics   []Metric `json:"metrics"`
}

// Metric returns the named measurement, or nil.
func (a *Artifact) Metric(name string) *Metric {
	for i := range a.Metrics {
		if a.Metrics[i].Name == name {
			return &a.Metrics[i]
		}
	}
	return nil
}

// filePrefix and fileExt frame artifact names as BENCH_<stamp>.json with a
// lexically sortable stamp, so Latest can pick the newest by name alone.
const (
	filePrefix = "BENCH_"
	fileExt    = ".json"
	stampFmt   = "20060102-150405"
)

// Write stores the artifact in dir as BENCH_<timestamp>.json and returns
// the path. The directory is created if needed.
func Write(dir string, a *Artifact) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("perf: %w", err)
	}
	ts, err := time.Parse(time.RFC3339, a.Timestamp)
	if err != nil {
		return "", fmt.Errorf("perf: bad artifact timestamp %q: %w", a.Timestamp, err)
	}
	path := filepath.Join(dir, filePrefix+ts.UTC().Format(stampFmt)+fileExt)
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return "", fmt.Errorf("perf: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("perf: %w", err)
	}
	return path, nil
}

// Latest loads the newest BENCH_*.json artifact in dir (by the sortable
// name stamp; a name without a stamp, such as a checked-in
// BENCH_seed.json, is older than every stamped one). A missing directory
// or an empty one returns (nil, "", nil) — no baseline yet is not an
// error.
func Latest(dir string) (*Artifact, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", nil
		}
		return nil, "", fmt.Errorf("perf: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, filePrefix) && strings.HasSuffix(n, fileExt) {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, "", nil
	}
	stamped := func(n string) bool {
		_, err := time.Parse(stampFmt, strings.TrimSuffix(strings.TrimPrefix(n, filePrefix), fileExt))
		return err == nil
	}
	sort.Slice(names, func(i, j int) bool {
		if si, sj := stamped(names[i]), stamped(names[j]); si != sj {
			return sj
		}
		return names[i] < names[j]
	})
	path := filepath.Join(dir, names[len(names)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("perf: %w", err)
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, "", fmt.Errorf("perf: %s: %w", path, err)
	}
	return &a, path, nil
}

// newArtifact stamps an empty artifact with the build identity.
func newArtifact(repeat int) *Artifact {
	return &Artifact{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Repeat:    repeat,
	}
}
