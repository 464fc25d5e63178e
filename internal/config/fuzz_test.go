package config_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fcdpm/internal/config"
	"fcdpm/internal/runreport"
)

// selectors are the string values a mutation draws from: every kind,
// mode and allocator spelling a spec can name, plus the empty default
// and one that no selector accepts.
var selectors = []string{
	"", "bogus",
	"camcorder", "synthetic", "bursty", "heavytail", "racksurge", "dvs", "file",
	"fcdpm", "conv", "asap", "flat", "quantized",
	"supercap", "liion",
	"predictive", "never", "always", "oracle", "timeout",
	"expavg", "lastvalue", "movingavg", "regression", "tree", "markov",
	"equal", "waterfill", "rotation",
	"stack-dropout", "sensor-noise", "load-surge", "efficiency-degrade",
}

// FuzzScenarioSpec checks the invariants the result cache rests on, for
// any spec: LoadValidated never panics; Normalized accepts every
// validated spec and is idempotent; a spec and its normalized form key
// alike and render byte-identical bodies; and a mutation of one field
// that changes the rendered body also changes the cache key.
//
// The render checks simulate, so they run only on specs that are cheap
// to simulate (see cheap): a file trace reads the disk, and a long trace
// or a large rack would make each input take seconds.
func FuzzScenarioSpec(f *testing.F) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed scenarios (%v)", err)
	}
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint16(i), 1.5)
		f.Add(data, uint16(7*i+3), 0.25)
	}
	// Specs whose work the caps bound: each once exhausted memory.
	for _, spec := range []string{
		`{"trace":{"kind":"synthetic","duration":1e11}}`,
		`{"trace":{"kind":"synthetic","duration":600},"faults":{"random":1000000000}}`,
		`{"trace":{"kind":"synthetic","duration":600},"policy":{"kind":"quantized","levels":1000000000}}`,
	} {
		f.Add([]byte(spec), uint16(0), 1.5)
	}
	f.Fuzz(func(t *testing.T, data []byte, field uint16, value float64) {
		s, err := config.LoadValidated(bytes.NewReader(data))
		if err != nil {
			return
		}
		n, err := s.Normalized()
		if err != nil {
			t.Fatalf("Normalized rejects a validated spec: %v", err)
		}
		nn, err := n.Normalized()
		if err != nil {
			t.Fatalf("Normalized rejects its own output: %v", err)
		}
		if !reflect.DeepEqual(n, nn) {
			t.Fatalf("Normalized is not idempotent:\n once %+v\ntwice %+v", n, nn)
		}
		key := cacheKey(t, s)
		if k := cacheKey(t, n); k != key {
			t.Fatalf("spec keys %s, its normalized form %s", key, k)
		}
		if !cheap(n) {
			return
		}
		body, err := render(s)
		if nbody, nerr := render(n); (err == nil) != (nerr == nil) || !bytes.Equal(body, nbody) {
			t.Fatalf("spec and its normalized form render differently:\n%s (%v)\n%s (%v)", body, err, nbody, nerr)
		}
		if err != nil {
			return
		}
		m := mutate(t, s, int(field), value)
		if m.Validate() != nil {
			return
		}
		mn, err := m.Normalized()
		if err != nil {
			t.Fatalf("Normalized rejects a validated spec: %v", err)
		}
		if !cheap(mn) {
			return
		}
		if mbody, err := render(m); err == nil && !bytes.Equal(mbody, body) && cacheKey(t, m) == key {
			t.Fatalf("a mutation changed the body but not the key %s:\n%s\n%s", key, body, mbody)
		}
	})
}

// cheap reports whether a normalized spec simulates in a few
// milliseconds: no file trace, at most 4 stacks and 600 s of trace, and
// small counts for the other knobs that scale the work.
func cheap(n *config.Scenario) bool {
	return n.Trace.Kind != "file" && n.System.Stacks <= 4 && n.Trace.Duration <= 600 &&
		n.Policy.Levels <= 16 && n.Faults.Random <= 16 && len(n.Faults.Events) <= 16
}

func cacheKey(t *testing.T, s *config.Scenario) string {
	t.Helper()
	key, err := s.CacheKey("fuzz")
	if err != nil {
		t.Fatalf("CacheKey of a validated spec: %v", err)
	}
	return key
}

// render runs s through the serving path's seam and returns its body,
// rendered under a fixed key so bodies compare by simulation alone.
func render(s *config.Scenario) ([]byte, error) {
	row := runreport.Execute(context.Background(), "fuzz", []runreport.Cell{{Spec: s, Key: "fuzz"}}, nil, nil)[0]
	return row.Body, row.Err
}

// mutate returns a deep copy of s with one leaf field, the field-th in
// declaration order (slice elements included), set from value: numbers
// take value, strings a selector it indexes.
func mutate(t *testing.T, s *config.Scenario, field int, value float64) *config.Scenario {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	m, err := config.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("a spec does not round-trip through JSON: %v", err)
	}
	var leaves []reflect.Value
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Float64, reflect.Int, reflect.Uint64, reflect.String:
			leaves = append(leaves, v)
		}
	}
	walk(reflect.ValueOf(m).Elem())
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	v := leaves[field%len(leaves)]
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(value)
	case reflect.Int:
		v.SetInt(int64(math.Max(math.Min(value, 1<<40), -1<<40)))
	case reflect.Uint64:
		v.SetUint(uint64(math.Min(math.Abs(value), 1<<40)))
	case reflect.String:
		v.SetString(selectors[int(math.Min(math.Abs(value), 1<<20))%len(selectors)])
	}
	return m
}
