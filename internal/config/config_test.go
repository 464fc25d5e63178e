package config

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fcdpm/internal/sim"
	"fcdpm/internal/workload"
)

func TestMinimalScenarioUsesPaperDefaults(t *testing.T) {
	s, err := Load(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Sys.VF != 12 || cfg.Sys.Zeta != 37.5 {
		t.Errorf("system defaults wrong: %+v", cfg.Sys)
	}
	if cfg.Sys.MinOutput != 0.1 || cfg.Sys.MaxOutput != 1.2 {
		t.Errorf("range defaults wrong")
	}
	if cfg.Dev.Name != "DVD camcorder" {
		t.Errorf("device default = %q", cfg.Dev.Name)
	}
	if cfg.Store.Capacity() != 6 || cfg.Store.Charge() != 1 {
		t.Errorf("storage defaults: cmax=%v q=%v", cfg.Store.Capacity(), cfg.Store.Charge())
	}
	if cfg.Policy.Name() != "FC-DPM" {
		t.Errorf("policy default = %q", cfg.Policy.Name())
	}
	// The built config must actually run.
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fuel <= 0 {
		t.Fatal("degenerate run")
	}
}

func TestScenarioOverrides(t *testing.T) {
	js := `{
		"name": "custom",
		"system": {"alpha": 0.5, "beta": 0.1, "maxOutput": 1.5},
		"device": {"kind": "synthetic"},
		"storage": {"kind": "liion", "capacityAs": 12, "initialAs": 3},
		"trace": {"kind": "synthetic", "seed": 7, "duration": 300},
		"policy": {"kind": "quantized", "levels": 4},
		"dpm": {"mode": "timeout", "timeout": 8},
		"slewRate": 0.5
	}`
	s, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Sys.MaxOutput != 1.5 {
		t.Errorf("max output = %v", cfg.Sys.MaxOutput)
	}
	if cfg.Sys.Efficiency(0) != 0.5 {
		t.Errorf("alpha not applied: %v", cfg.Sys.Efficiency(0))
	}
	if cfg.Dev.Name != "synthetic (Exp 2)" {
		t.Errorf("device = %q", cfg.Dev.Name)
	}
	if cfg.Store.Capacity() != 12 || cfg.Store.Charge() != 3 {
		t.Errorf("storage: %v/%v", cfg.Store.Charge(), cfg.Store.Capacity())
	}
	if cfg.Policy.Name() != "FC-DPM-q4" {
		t.Errorf("policy = %q", cfg.Policy.Name())
	}
	if cfg.DPM != sim.DPMTimeout || cfg.Timeout != 8 {
		t.Errorf("dpm = %v timeout %v", cfg.DPM, cfg.Timeout)
	}
	if cfg.SlewRate != 0.5 {
		t.Errorf("slew = %v", cfg.SlewRate)
	}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestConstantEtaSystem(t *testing.T) {
	s, err := Load(strings.NewReader(`{"system": {"constantEta": 0.37}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Sys.Efficiency(0.1) != 0.37 || cfg.Sys.Efficiency(1.2) != 0.37 {
		t.Error("constant efficiency not applied")
	}
}

func TestTraceFromFile(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "trace.csv")
	csv := "idle_s,active_s,active_current_a\n10,3,1.2\n12,3,1.1\n"
	if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	js := `{"trace": {"kind": "file", "file": ` + quote(csvPath) + `}}`
	s, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Trace.Len() != 2 {
		t.Fatalf("trace slots = %d", cfg.Trace.Len())
	}

	jsonPath := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(jsonPath,
		[]byte(`{"name":"t","slots":[{"idle":5,"active":2,"activeCurrent":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(strings.NewReader(`{"trace": {"kind": "file", "file": ` + quote(jsonPath) + `}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := s2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Trace.Len() != 1 {
		t.Fatalf("json trace slots = %d", cfg2.Trace.Len())
	}
}

func quote(s string) string { return `"` + strings.ReplaceAll(s, `\`, `\\`) + `"` }

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"polcy": {}}`)); err == nil {
		t.Fatal("typo field accepted")
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []string{
		`{"device": {"kind": "toaster"}}`,
		`{"storage": {"kind": "flywheel"}}`,
		`{"trace": {"kind": "nope"}}`,
		`{"trace": {"kind": "file"}}`,
		`{"trace": {"kind": "file", "file": "/nonexistent/x.csv"}}`,
		`{"policy": {"kind": "nope"}}`,
		`{"policy": {"kind": "quantized", "levels": 1}}`,
		`{"dpm": {"mode": "nope"}}`,
		`{"storage": {"capacityAs": -1}}`,
	}
	for _, js := range cases {
		s, err := Load(strings.NewReader(js))
		if err != nil {
			t.Fatalf("Load(%s): %v", js, err)
		}
		if _, err := s.Build(); err == nil {
			t.Errorf("Build accepted %s", js)
		}
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(path, []byte(`{"name": "from file"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "from file" {
		t.Fatalf("name = %q", s.Name)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestValidateRejectsBadFields(t *testing.T) {
	cases := []string{
		`{"predict": {"rho": 1.5}}`,
		`{"predict": {"rho": -0.1}}`,
		`{"predict": {"sigma": 2}}`,
		`{"predict": {"idleInitial": -1}}`,
		`{"slewRate": -0.5}`,
		`{"deficitLimit": -1}`,
		`{"dpm": {"timeout": -3}}`,
		`{"faults": {"random": -2}}`,
		`{"faults": {"events": [{"kind": "meteor-strike"}]}}`,
		`{"faults": {"random": 2, "kinds": ["nope"]}}`,
		`{"fallbacks": ["asap", "nope"]}`,
		`{"runner": {"workers": -1}}`,
		`{"runner": {"timeoutSec": -5}}`,
		`{"runner": {"retries": -2}}`,
	}
	for _, js := range cases {
		s, err := Load(strings.NewReader(js))
		if err != nil {
			t.Fatalf("Load(%s): %v", js, err)
		}
		if _, err := s.Build(); err == nil {
			t.Errorf("Build accepted %s", js)
		}
	}
	var ve *ValidationError
	s, _ := Load(strings.NewReader(`{"predict": {"rho": 1.5}}`))
	if _, err := s.Build(); !errors.As(err, &ve) || ve.Field != "predict.rho" {
		t.Fatalf("want *ValidationError on predict.rho, got %v", err)
	}
}

func TestRunnerSpecParses(t *testing.T) {
	js := `{"runner": {"workers": 4, "timeoutSec": 60, "retries": 2, "journal": "/tmp/j.jsonl"}}`
	s, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	want := RunnerSpec{Workers: 4, TimeoutSec: 60, Retries: 2, Journal: "/tmp/j.jsonl"}
	if s.Runner != want {
		t.Fatalf("runner spec = %+v, want %+v", s.Runner, want)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid runner spec rejected: %v", err)
	}
}

func TestFaultSpecBuilds(t *testing.T) {
	js := `{
		"trace": {"kind": "synthetic", "duration": 400},
		"fallbacks": ["asap", "conv"],
		"deficitLimit": 0.8,
		"faults": {
			"seed": 9,
			"events": [{"kind": "stack-dropout", "start": 100, "duration": 30}],
			"random": 4,
			"kinds": ["load-surge", "sensor-noise"]
		}
	}`
	s, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults == nil || len(cfg.Faults.Events) != 5 {
		t.Fatalf("fault schedule = %v", cfg.Faults)
	}
	if cfg.FaultSeed != 9 || len(cfg.Fallbacks) != 2 {
		t.Fatalf("seed %d, fallbacks %d", cfg.FaultSeed, len(cfg.Fallbacks))
	}
	if cfg.Supervisor.DeficitLimit != 0.8 {
		t.Fatalf("deficit limit %v", cfg.Supervisor.DeficitLimit)
	}
	// The whole config must run end to end under supervision.
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalPolicy == "" {
		t.Fatal("final policy not reported")
	}
	// And byte-identically on a rebuild.
	cfg2, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sim.Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("rebuilt scenario produced different results")
	}
}

// TestTraceKindFamilies: every generator family reachable from a scenario
// builds a runnable, non-degenerate trace.
func TestTraceKindFamilies(t *testing.T) {
	cases := []struct {
		name string
		js   string
	}{
		{"bursty", `{"trace":{"kind":"bursty","seed":11,"duration":300}}`},
		{"heavytail", `{"trace":{"kind":"heavytail","seed":12,"duration":300}}`},
		{"dvs-default-level", `{"trace":{"kind":"dvs","duration":120}}`},
		{"dvs-top-level", `{"trace":{"kind":"dvs","duration":120,"level":4}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Load(strings.NewReader(tc.js))
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			if len(cfg.Trace.Slots) == 0 {
				t.Fatal("empty trace")
			}
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Fuel <= 0 {
				t.Fatal("degenerate run")
			}
		})
	}
}

// TestTraceDVSLevelValidation: out-of-range operating points fail as
// typed validation errors before any model is built.
func TestTraceDVSLevelValidation(t *testing.T) {
	for _, js := range []string{
		`{"trace":{"kind":"dvs","level":-1}}`,
		`{"trace":{"kind":"dvs","level":5}}`,
	} {
		s, err := Load(strings.NewReader(js))
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Build()
		var ve *ValidationError
		if !errors.As(err, &ve) || ve.Field != "trace.level" {
			t.Fatalf("%s: err = %v, want trace.level validation error", js, err)
		}
	}
}

// TestTraceDVSDeterministic: the DVS generator has no randomness, so two
// builds at the same level produce identical slot sequences.
func TestTraceDVSDeterministic(t *testing.T) {
	build := func() *workload.Trace {
		s, err := Load(strings.NewReader(`{"trace":{"kind":"dvs","duration":60,"level":1}}`))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Trace
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.Slots, b.Slots) {
		t.Fatal("DVS trace not deterministic")
	}
}

// TestLoadValidatedBadRhoTypedError pins the PR 2 typed-error sweep end
// to end: a bad rho must surface from predict's own constructor as a
// *ValidationError through LoadValidated — not a panic, and not a
// generic string error.
func TestLoadValidatedBadRhoTypedError(t *testing.T) {
	for _, js := range []string{
		`{"predict": {"rho": 1.5}}`,
		`{"predict": {"rho": -0.1}}`,
	} {
		_, err := LoadValidated(strings.NewReader(js))
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Fatalf("LoadValidated(%s): want *ValidationError, got %v", js, err)
		}
		if ve.Field != "predict.rho" {
			t.Fatalf("LoadValidated(%s): field = %q, want predict.rho", js, ve.Field)
		}
	}
}

// TestPredictorKindsBuild exercises every predictor kind through the
// spec layer and pins the field each bad parameter is reported under.
func TestPredictorKindsBuild(t *testing.T) {
	good := []string{
		`{"predict": {"kind": "expavg", "rho": 0.3}}`,
		`{"predict": {"kind": "lastvalue"}}`,
		`{"predict": {"kind": "movingavg", "window": 3}}`,
		`{"predict": {"kind": "regression", "window": 4}}`,
		`{"predict": {"kind": "tree", "levels": 4, "depth": 2, "hi": 30}}`,
		`{"predict": {"kind": "markov", "levels": 4, "hi": 30}}`,
		`{"predict": {"kind": "markov", "levels": 256, "hi": 30}}`,
		// The deepest tree contexts whose key fits an int.
		`{"predict": {"kind": "tree", "depth": 20}}`,
		`{"predict": {"kind": "tree", "levels": 256, "depth": 7}}`,
		`{"predict": {"kind": "tree", "levels": 2, "depth": 62}}`,
	}
	for _, js := range good {
		s, err := Load(strings.NewReader(js))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Build(); err != nil {
			t.Errorf("Build(%s): %v", js, err)
		}
	}
	bad := map[string]string{
		`{"predict": {"kind": "movingavg", "window": -2}}`:         "predict.window",
		`{"predict": {"kind": "regression", "window": -1}}`:        "predict.window",
		`{"predict": {"kind": "tree", "levels": -3}}`:              "predict.levels",
		`{"predict": {"kind": "markov", "levels": 60000}}`:         "predict.levels",
		`{"predict": {"kind": "tree", "levels": 257}}`:             "predict.levels",
		`{"predict": {"kind": "tree", "depth": -1}}`:               "predict.depth",
		`{"predict": {"kind": "tree", "depth": 21}}`:               "predict.depth",
		`{"predict": {"kind": "tree", "depth": 55000}}`:            "predict.depth",
		`{"predict": {"kind": "tree", "levels": 256, "depth": 8}}`: "predict.depth",
		`{"predict": {"kind": "tree", "levels": 2, "depth": 63}}`:  "predict.depth",
		`{"predict": {"kind": "tree", "lo": 9, "hi": 1}}`:          "predict.hi",
		`{"predict": {"kind": "markov", "lo": 9, "hi": 1}}`:        "predict.hi",
		`{"predict": {"kind": "psychic"}}`:                         "predict.kind",
	}
	for js, field := range bad {
		s, err := Load(strings.NewReader(js))
		if err != nil {
			t.Fatal(err)
		}
		var ve *ValidationError
		if err := s.Validate(); !errors.As(err, &ve) || ve.Field != field {
			t.Errorf("Validate(%s): got %v, want *ValidationError on %s", js, err, field)
		}
	}
}

// TestMultiStackSystemBuilds: a K-stack spec builds an aggregate system
// whose range is the sum of the per-stack ceilings, and runs end to end
// on the racksurge workload.
func TestMultiStackSystemBuilds(t *testing.T) {
	js := `{
		"system": {"stacks": 4, "alloc": "waterfill", "degrade": [0, 0.3]},
		"storage": {"capacityAs": 24, "initialAs": 4},
		"trace": {"kind": "racksurge", "duration": 300, "intensity": 2},
		"policy": {"kind": "asap"}
	}`
	s, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Sys.MaxOutput != 4*1.2 {
		t.Fatalf("aggregate max = %v, want 4.8", cfg.Sys.MaxOutput)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fuel <= 0 {
		t.Fatal("degenerate run")
	}
}

func TestMultiStackValidation(t *testing.T) {
	bad := map[string]string{
		`{"system": {"stacks": -1}}`:                         "system.stacks",
		`{"system": {"stacks": 65}}`:                         "system.stacks",
		`{"system":{"stacks":3000000000,"degrade":[0.1]}}`:   "system.stacks",
		`{"system": {"stacks": 4, "alloc": "psychic"}}`:      "system.alloc",
		`{"system": {"alloc": "psychic"}}`:                   "system.alloc",
		`{"system": {"stacks": 2, "degrade": [0.2, 1.5]}}`:   "system.degrade",
		`{"system": {"stacks": 2, "degrade": [-0.1]}}`:       "system.degrade",
		`{"trace": {"kind": "racksurge", "intensity": 0.5}}`: "trace.intensity",
	}
	for js, field := range bad {
		s, err := Load(strings.NewReader(js))
		if err != nil {
			t.Fatal(err)
		}
		var ve *ValidationError
		if err := s.Validate(); !errors.As(err, &ve) || ve.Field != field {
			t.Errorf("Validate(%s): got %v, want *ValidationError on %s", js, err, field)
		}
	}
}

// TestBuildOnlySpecErrorsAreValidationErrors: spec defects only
// construction can detect — a selector no builder knows, a constructor
// refusing its parameters — surface from Build as *ValidationError
// naming the field, so every consumer classifies them as the client's
// fault.
func TestBuildOnlySpecErrorsAreValidationErrors(t *testing.T) {
	const trace = `"trace":{"kind":"synthetic","duration":60}`
	for _, tc := range []struct{ spec, field string }{
		{`{"storage":{"kind":"flywheel"},` + trace + `}`, "storage.kind"},
		{`{"trace":{"kind":"bogus"}}`, "trace.kind"},
		{`{"trace":{"kind":"file"}}`, "trace.file"},
		{`{"policy":{"kind":"bogus"},` + trace + `}`, "policy.kind"},
		{`{"fallbacks":["asap","bogus"],` + trace + `}`, "fallbacks[1]"},
		{`{"device":{"kind":"bogus"},` + trace + `}`, "device.kind"},
		{`{"dpm":{"mode":"bogus"},` + trace + `}`, "dpm.mode"},
		{`{"storage":{"kind":"liion","wellFraction":1.5},` + trace + `}`, "storage"},
		{`{"storage":{"kind":"liion","rateConstant":-1},` + trace + `}`, "storage"},
		{`{"system":{"minOutput":2,"maxOutput":1},` + trace + `}`, "system"},
	} {
		s, err := LoadValidated(strings.NewReader(tc.spec))
		if err != nil {
			t.Fatalf("%s: load: %v", tc.spec, err)
		}
		_, err = s.Build()
		var ve *ValidationError
		if !errors.As(err, &ve) || ve.Field != tc.field {
			t.Errorf("%s: Build error %v, want *ValidationError on %q", tc.spec, err, tc.field)
		}
	}
}

// TestRecordProfileFieldRejected: the removed recordProfile field is an
// unknown field, so a spec that still carries it fails to load.
func TestRecordProfileFieldRejected(t *testing.T) {
	_, err := Load(strings.NewReader(`{"recordProfile":true}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "recordProfile"`) {
		t.Fatalf("Load error %v, want an unknown-field rejection", err)
	}
}
