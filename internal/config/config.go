// Package config loads simulation scenarios from JSON so experiments can
// be described declaratively and run with `fcdpm runfile`. Every field has
// a paper-faithful default, resolved in one place (Scenario.Normalized);
// a minimal file like
//
//	{"trace": {"kind": "camcorder"}, "policy": {"kind": "fcdpm"}}
//
// runs FC-DPM over the Experiment 1 camcorder trace, with the idle
// predictor starting at the device's break-even time. Table 2 starts it
// at 14 s, the middle of the 8-20 s idle band; scenarios/exp1-fcdpm.json
// adds that setting and reproduces Table 2's FC-DPM row.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"fcdpm/internal/device"
	"fcdpm/internal/dvs"
	"fcdpm/internal/fault"
	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/multistack"
	"fcdpm/internal/policy"
	"fcdpm/internal/predict"
	"fcdpm/internal/sim"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

// ValidationError pinpoints the scenario field that failed validation.
type ValidationError struct {
	Field  string
	Detail string
}

// Error implements error.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("config: %s: %s", e.Field, e.Detail)
}

// Scenario is the JSON schema of one simulation run.
type Scenario struct {
	Name    string        `json:"name"`
	System  SystemSpec    `json:"system"`
	Device  DeviceSpec    `json:"device"`
	Storage StorageSpec   `json:"storage"`
	Trace   TraceSpec     `json:"trace"`
	Policy  PolicySpec    `json:"policy"`
	DPM     DPMSpec       `json:"dpm"`
	Predict PredictorSpec `json:"predict"`
	// SlewRate limits FC output changes, A/s (0 = ideal).
	SlewRate float64 `json:"slewRate"`
	// Faults injects a fault schedule into the run (see FaultsSpec).
	Faults FaultsSpec `json:"faults"`
	// Fallbacks names the graceful-degradation chain the supervisor walks
	// when invariants trip (policy kinds, e.g. ["asap", "conv"]). The
	// run's main policy heads the chain and load-shed is always appended.
	Fallbacks []string `json:"fallbacks"`
	// DeficitLimit overrides the supervisor's per-stage unmet-charge
	// budget, A-s (0 = default).
	DeficitLimit float64 `json:"deficitLimit"`
}

// FaultsSpec describes the injected faults: explicit events, randomly
// drawn events, or both.
type FaultsSpec struct {
	// Events lists explicit fault events.
	Events []FaultEventSpec `json:"events"`
	// Random, when positive, draws that many additional seed-reproducible
	// events over the trace duration.
	Random int `json:"random"`
	// Seed drives random event generation and the sensor-noise stream.
	Seed uint64 `json:"seed"`
	// Kinds restricts random event classes (names per `fcdpm faults`,
	// e.g. "stack-dropout"); empty means all classes.
	Kinds []string `json:"kinds"`
}

// FaultEventSpec is one explicit fault event.
type FaultEventSpec struct {
	// Kind is a fault-class name, e.g. "stack-dropout" (see `fcdpm
	// faults` for the list).
	Kind string `json:"kind"`
	// Start is the onset in simulated seconds; Duration <= 0 means the
	// fault is permanent.
	Start    float64 `json:"start"`
	Duration float64 `json:"duration"`
	// Magnitude is the class-specific severity; 0 picks the class
	// default.
	Magnitude float64 `json:"magnitude"`
}

// SystemSpec describes the FC system; zero values mean "paper defaults".
// With Stacks >= 2 the electrical fields describe one stack of a K-stack
// rack aggregated under the Alloc power-allocation policy.
type SystemSpec struct {
	VF        float64 `json:"vf"`
	Zeta      float64 `json:"zeta"`
	MinOutput float64 `json:"minOutput"`
	MaxOutput float64 `json:"maxOutput"`
	Alpha     float64 `json:"alpha"`
	Beta      float64 `json:"beta"`
	// ConstantEta, when positive, replaces the linear model with a flat
	// efficiency (the [10, 11] configuration).
	ConstantEta float64 `json:"constantEta"`
	// Stacks, when >= 2, replicates the system into a K-stack rack
	// (multistack.Uniform) aggregated behind the shared storage element.
	Stacks int `json:"stacks"`
	// Alloc selects the rack's power-allocation policy: "equal" (default),
	// "waterfill", or "rotation". Ignored when Stacks <= 1.
	Alloc string `json:"alloc"`
	// Degrade lists per-stack fractional efficiency losses in [0, 1),
	// cycled across the rack ([0, 0.3] on 4 stacks degrades stacks 1 and
	// 3). Empty means all healthy. Ignored when Stacks <= 1.
	Degrade []float64 `json:"degrade"`
}

// DeviceSpec selects a device preset or overrides its parameters.
type DeviceSpec struct {
	// Kind is "camcorder" (default) or "synthetic".
	Kind string `json:"kind"`
	// TbeOverride, when positive, replaces the break-even time.
	TbeOverride float64 `json:"tbeOverride"`
}

// StorageSpec describes the charge buffer.
type StorageSpec struct {
	// Kind is "supercap" (default) or "liion".
	Kind string `json:"kind"`
	// CapacityAs defaults to the paper's 6 A-s; InitialAs to 1 A-s.
	CapacityAs float64 `json:"capacityAs"`
	InitialAs  float64 `json:"initialAs"`
	// KiBaM parameters for "liion" (defaults c=0.6, k=0.05).
	WellFraction float64 `json:"wellFraction"`
	RateConstant float64 `json:"rateConstant"`
}

// TraceSpec selects the workload.
type TraceSpec struct {
	// Kind is "camcorder" (default), "synthetic", "bursty", "heavytail",
	// "racksurge", "dvs", or "file".
	Kind string `json:"kind"`
	// Seed drives the generators (defaults per kind; "dvs" and "file" are
	// deterministic and ignore it).
	Seed uint64 `json:"seed"`
	// Duration overrides the generator's default length, seconds.
	Duration float64 `json:"duration"`
	// File is a CSV or JSON trace path for kind "file" (format inferred
	// from the extension).
	File string `json:"file"`
	// Level selects the DVS operating point for kind "dvs": an index into
	// the xscale-class processor's table (0 = 150 MHz .. 4 = 600 MHz). The
	// reference task (1e8 cycles per 1 s period) is feasible at every
	// level. Other kinds ignore it.
	Level int `json:"level"`
	// Intensity is the surge multiplier for kind "racksurge" (default 2;
	// must be >= 1). Other kinds ignore it.
	Intensity float64 `json:"intensity"`
}

// PolicySpec selects the source policy.
type PolicySpec struct {
	// Kind is "fcdpm" (default), "conv", "asap", "flat", or "quantized".
	Kind string `json:"kind"`
	// FlatIF is the fixed output for "flat" (default 0.5 A).
	FlatIF float64 `json:"flatIF"`
	// Levels is the grid size for "quantized" (default 8).
	Levels int `json:"levels"`
}

// DPMSpec selects the device-side sleep policy.
type DPMSpec struct {
	// Mode is "predictive" (default), "never", "always", "oracle", or
	// "timeout".
	Mode string `json:"mode"`
	// Timeout is the dwell for mode "timeout"; 0 means the break-even
	// time.
	Timeout float64 `json:"timeout"`
}

// PredictorSpec selects and tunes the idle-period predictor and sets the
// prediction factors (paper: ρ = σ = 0.5).
type PredictorSpec struct {
	// Kind selects the idle-period predictor: "expavg" (default),
	// "lastvalue", "movingavg", "regression", "tree", or "markov". The
	// active-period and active-current predictors always use the paper's
	// exponential average with factor Sigma.
	Kind        string  `json:"kind"`
	Rho         float64 `json:"rho"`
	Sigma       float64 `json:"sigma"`
	IdleInitial float64 `json:"idleInitial"`
	// Window sizes the sliding history for "movingavg" and "regression"
	// (default 5).
	Window int `json:"window"`
	// Levels is the quantizer size for "tree" and "markov" (default 8).
	Levels int `json:"levels"`
	// Depth is the context length for "tree" (default 2).
	Depth int `json:"depth"`
	// Lo and Hi bound the quantizer input range for "tree" and "markov"
	// (defaults 0 and 60 s of idle time).
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Load parses a scenario from JSON. Unknown fields are rejected so typos
// fail loudly.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return &s, nil
}

// LoadFile parses a scenario from a file.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Caps on the counts that scale a spec's work, so that no spec can
// exhaust memory before its run starts. Each admits every committed
// scenario and smoke spec by a wide margin.
const (
	// maxPredictLevels caps predict.levels: the Markov predictor keeps a
	// levels x levels transition table.
	maxPredictLevels = 256
	// maxPolicyLevels caps policy.levels, the quantized policy's grid.
	maxPolicyLevels = 256
	// maxFaultEvents caps faults.random, the randomly drawn events.
	maxFaultEvents = 4096
	// maxTraceSeconds caps trace.duration. The generators also stop at
	// workload.MaxSlots, which bounds the short-slot kinds.
	maxTraceSeconds = 1e8
)

// Validate checks every user-tunable numeric field before any model is
// constructed, so malformed scenarios surface as *ValidationError instead
// of reaching panicking constructors deeper in the stack.
func (s *Scenario) Validate() error {
	checkUnit := func(field string, v float64) error {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return &ValidationError{Field: field, Detail: fmt.Sprintf("%v outside [0, 1]", v)}
		}
		return nil
	}
	checkNonNeg := func(field string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return &ValidationError{Field: field, Detail: fmt.Sprintf("%v is not a non-negative finite number", v)}
		}
		return nil
	}
	if err := checkUnit("predict.sigma", s.Predict.Sigma); err != nil {
		return err
	}
	if err := checkNonNeg("predict.idleInitial", s.Predict.IdleInitial); err != nil {
		return err
	}
	if s.Predict.Levels > maxPredictLevels {
		return &ValidationError{Field: "predict.levels",
			Detail: fmt.Sprintf("%d levels exceed the cap of %d", s.Predict.Levels, maxPredictLevels)}
	}
	// The predictor parameters (rho, window, levels, depth, bounds) are
	// validated by the predict constructors themselves: a dry-run
	// construction surfaces their *predict.ConfigError as the
	// *ValidationError naming the scenario field, so no predictor
	// parameter reachable from a scenario file panics.
	if _, err := buildIdlePredictor(normalizePredictor(s.Predict), s.Predict.IdleInitial); err != nil {
		return err
	}
	if err := checkNonNeg("slewRate", s.SlewRate); err != nil {
		return err
	}
	if err := checkNonNeg("deficitLimit", s.DeficitLimit); err != nil {
		return err
	}
	if err := checkNonNeg("dpm.timeout", s.DPM.Timeout); err != nil {
		return err
	}
	if err := checkNonNeg("policy.flatIF", s.Policy.FlatIF); err != nil {
		return err
	}
	if s.Policy.Levels > maxPolicyLevels {
		return &ValidationError{Field: "policy.levels",
			Detail: fmt.Sprintf("%d levels exceed the cap of %d", s.Policy.Levels, maxPolicyLevels)}
	}
	if err := checkNonNeg("storage.capacityAs", s.Storage.CapacityAs); err != nil {
		return err
	}
	if err := checkNonNeg("storage.initialAs", s.Storage.InitialAs); err != nil {
		return err
	}
	if s.Faults.Random < 0 {
		return &ValidationError{Field: "faults.random", Detail: fmt.Sprintf("negative event count %d", s.Faults.Random)}
	}
	if s.Faults.Random > maxFaultEvents {
		return &ValidationError{Field: "faults.random",
			Detail: fmt.Sprintf("%d events exceed the cap of %d", s.Faults.Random, maxFaultEvents)}
	}
	for i, e := range s.Faults.Events {
		if _, err := fault.ParseKind(e.Kind); err != nil {
			return &ValidationError{Field: fmt.Sprintf("faults.events[%d].kind", i), Detail: err.Error()}
		}
	}
	for _, name := range s.Faults.Kinds {
		if _, err := fault.ParseKind(name); err != nil {
			return &ValidationError{Field: "faults.kinds", Detail: err.Error()}
		}
	}
	if err := checkNonNeg("trace.duration", s.Trace.Duration); err != nil {
		return err
	}
	if s.Trace.Duration > maxTraceSeconds {
		return &ValidationError{Field: "trace.duration",
			Detail: fmt.Sprintf("%v s exceeds the cap of %v s", s.Trace.Duration, maxTraceSeconds)}
	}
	if s.Trace.Level < 0 {
		return &ValidationError{Field: "trace.level", Detail: fmt.Sprintf("negative DVS level %d", s.Trace.Level)}
	}
	if v := s.Trace.Intensity; v != 0 && (math.IsNaN(v) || math.IsInf(v, 0) || v < 1) {
		return &ValidationError{Field: "trace.intensity", Detail: fmt.Sprintf("surge intensity %v must be >= 1", v)}
	}
	if s.System.Stacks < 0 {
		return &ValidationError{Field: "system.stacks", Detail: fmt.Sprintf("negative stack count %d", s.System.Stacks)}
	}
	if s.System.Stacks > multistack.MaxStacks {
		return &ValidationError{Field: "system.stacks",
			Detail: fmt.Sprintf("%d stacks exceed the cap of %d", s.System.Stacks, multistack.MaxStacks)}
	}
	if s.System.Stacks >= 2 || s.System.Alloc != "" {
		if _, err := multistack.ParseAllocator(s.System.Alloc); err != nil {
			return &ValidationError{Field: "system.alloc", Detail: err.Error()}
		}
	}
	for i, d := range s.System.Degrade {
		if math.IsNaN(d) || d < 0 || d >= 1 {
			return &ValidationError{Field: "system.degrade",
				Detail: fmt.Sprintf("degradation [%d] = %v outside [0, 1)", i, d)}
		}
	}
	return nil
}

// Build assembles a runnable simulation configuration from the
// normalized spec, so it constructs exactly what the cache key hashes.
// A spec defect that only construction can detect (an unknown kind
// selector, a constructor refusing its parameters) is a
// *ValidationError naming the field, like Validate's.
func (s *Scenario) Build() (sim.Config, error) {
	var cfg sim.Config
	n, err := s.Normalized()
	if err != nil {
		return cfg, err
	}
	sys, err := buildSystem(n.System)
	if err != nil {
		return cfg, err
	}
	dev, err := buildDevice(n.Device)
	if err != nil {
		return cfg, err
	}
	store, err := buildStorage(n.Storage)
	if err != nil {
		return cfg, err
	}
	trace, err := buildTrace(n.Trace)
	if err != nil {
		return cfg, err
	}
	pol, err := buildPolicy(n.Policy, "policy.kind", sys, dev)
	if err != nil {
		return cfg, err
	}
	mode, err := buildDPM(n.DPM)
	if err != nil {
		return cfg, err
	}
	faults, err := buildFaults(n.Faults, trace)
	if err != nil {
		return cfg, err
	}
	var fallbacks []sim.Policy
	for i, name := range n.Fallbacks {
		p, err := buildPolicy(normalizePolicy(PolicySpec{Kind: name}), fmt.Sprintf("fallbacks[%d]", i), sys, dev)
		if err != nil {
			return cfg, err
		}
		fallbacks = append(fallbacks, p)
	}
	cfg = sim.Config{
		Sys: sys, Dev: dev, Store: store, Trace: trace, Policy: pol,
		DPM: mode, Timeout: n.DPM.Timeout,
		SlewRate:     n.SlewRate,
		Faults:       faults,
		FaultSeed:    n.Faults.Seed,
		Fallbacks:    fallbacks,
		DeficitLimit: n.DeficitLimit,
	}
	// The one default Normalized cannot resolve: the idle predictor
	// starts at the device's break-even time.
	idleInit := n.Predict.IdleInitial
	if idleInit == 0 {
		idleInit = dev.BreakEven()
	}
	cfg.IdlePredictor, err = buildIdlePredictor(n.Predict, idleInit)
	if err != nil {
		return cfg, err
	}
	if len(trace.Slots) > 0 {
		// Sigma passed Validate's unit check, so these cannot fail.
		cfg.ActivePredictor = predict.MustExpAverage(n.Predict.Sigma, trace.Slots[0].Active)
		cfg.CurrentPredictor = predict.MustExpAverage(n.Predict.Sigma, trace.Slots[0].ActiveCurrent)
	}
	return cfg, nil
}

// buildIdlePredictor constructs the idle-period predictor a normalized
// predictor spec selects. Constructor *predict.ConfigError values
// surface as *ValidationError naming the scenario field.
func buildIdlePredictor(p PredictorSpec, idleInit float64) (predict.Predictor, error) {
	switch p.Kind {
	case "expavg":
		return wrapPredictor(predict.NewExpAverage(p.Rho, idleInit))
	case "lastvalue":
		return predict.NewLastValue(idleInit), nil
	case "movingavg":
		return wrapPredictor(predict.NewMovingAverage(p.Window, idleInit))
	case "regression":
		return wrapPredictor(predict.NewRegression(p.Window, idleInit))
	case "tree":
		return wrapPredictor(predict.NewTree(p.Levels, p.Depth, p.Lo, p.Hi, idleInit))
	case "markov":
		return wrapPredictor(predict.NewMarkov(p.Levels, p.Lo, p.Hi, idleInit))
	default:
		return nil, &ValidationError{Field: "predict.kind",
			Detail: fmt.Sprintf("unknown predictor kind %q", p.Kind)}
	}
}

// wrapPredictor converts a predict constructor result to the Predictor
// interface, mapping its *ConfigError onto the scenario field.
func wrapPredictor[P predict.Predictor](p P, err error) (predict.Predictor, error) {
	if err != nil {
		var ce *predict.ConfigError
		if errors.As(err, &ce) {
			return nil, &ValidationError{Field: "predict." + ce.Param, Detail: ce.Detail}
		}
		return nil, err
	}
	return p, nil
}

func buildSystem(spec SystemSpec) (*fuelcell.System, error) {
	var eff fuelcell.EfficiencyModel = fuelcell.LinearEfficiency{Alpha: spec.Alpha, Beta: spec.Beta}
	if spec.ConstantEta > 0 {
		eff = fuelcell.ConstantEfficiency{Value: spec.ConstantEta}
	}
	sys, err := fuelcell.NewSystem(spec.VF, spec.Zeta, spec.MinOutput, spec.MaxOutput, eff)
	if err != nil {
		return nil, &ValidationError{Field: "system", Detail: err.Error()}
	}
	if spec.Stacks < 2 {
		return sys, nil
	}
	// K-stack rack: the spec's electrical fields describe one stack; the
	// aggregate System (pre-solved under the allocation policy) plugs into
	// the simulation in its place.
	alloc, err := multistack.ParseAllocator(spec.Alloc)
	if err != nil {
		return nil, &ValidationError{Field: "system.alloc", Detail: err.Error()}
	}
	rack, err := multistack.Uniform(sys, spec.Stacks, alloc, spec.Degrade)
	if err != nil {
		return nil, &ValidationError{Field: "system.stacks", Detail: err.Error()}
	}
	return rack.System(), nil
}

func buildDevice(spec DeviceSpec) (*device.Model, error) {
	var dev *device.Model
	switch spec.Kind {
	case "camcorder":
		dev = device.Camcorder()
	case "synthetic":
		dev = device.Synthetic()
	default:
		return nil, unknownSelector("device.kind", spec.Kind)
	}
	if spec.TbeOverride > 0 {
		dev.TbeOverride = spec.TbeOverride
	}
	return dev, dev.Validate()
}

func buildStorage(st StorageSpec) (storage.Storage, error) {
	var out storage.Storage
	var err error
	switch st.Kind {
	case "supercap":
		out, err = storage.NewSuperCap(st.CapacityAs, st.InitialAs)
	case "liion":
		out, err = storage.NewLiIon(st.CapacityAs, st.WellFraction, st.RateConstant, st.InitialAs)
	default:
		return nil, unknownSelector("storage.kind", st.Kind)
	}
	if err != nil {
		// The constructors' errors name the parameter they refused.
		return nil, &ValidationError{Field: "storage", Detail: err.Error()}
	}
	return out, nil
}

// unknownSelector is the validation failure of a selector no builder
// recognizes.
func unknownSelector(field, v string) error {
	return &ValidationError{Field: field, Detail: fmt.Sprintf("unknown %q", v)}
}

// buildTrace runs the generator the normalized trace spec selects, with
// the spec's seed and duration over the generator's other defaults.
func buildTrace(t TraceSpec) (*workload.Trace, error) {
	switch t.Kind {
	case "camcorder":
		cfg := workload.DefaultCamcorderConfig()
		cfg.Seed, cfg.Duration = t.Seed, t.Duration
		return workload.Camcorder(cfg)
	case "synthetic":
		cfg := workload.DefaultSyntheticConfig()
		cfg.Seed, cfg.Duration = t.Seed, t.Duration
		return workload.Synthetic(cfg)
	case "bursty":
		cfg := workload.DefaultBurstyConfig()
		cfg.Seed, cfg.Duration = t.Seed, t.Duration
		return workload.Bursty(cfg)
	case "heavytail":
		cfg := workload.DefaultHeavyTailConfig()
		cfg.Seed, cfg.Duration = t.Seed, t.Duration
		return workload.HeavyTail(cfg)
	case "racksurge":
		cfg := workload.DefaultRackSurgeConfig()
		cfg.Seed, cfg.Duration, cfg.Intensity = t.Seed, t.Duration, t.Intensity
		return workload.RackSurge(cfg)
	case "dvs":
		proc := dvs.XScale600()
		if t.Level >= len(proc.Levels) {
			return nil, &ValidationError{Field: "trace.level",
				Detail: fmt.Sprintf("DVS level %d outside [0, %d]", t.Level, len(proc.Levels)-1)}
		}
		// One 1e8-cycle job per 1 s period: feasible at every operating
		// point (worst case 0.67 s at 150 MHz), so the level knob only
		// moves the duty cycle and rail current, never the deadline.
		task := dvs.Task{Cycles: 1e8, Period: 1, Jobs: int(math.Ceil(t.Duration))}
		return proc.Trace(task, t.Level)
	case "file":
		if t.File == "" {
			return nil, &ValidationError{Field: "trace.file", Detail: `trace kind "file" needs a file path`}
		}
		f, err := os.Open(t.File)
		if err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
		defer f.Close()
		if strings.HasSuffix(strings.ToLower(t.File), ".json") {
			return workload.ReadJSON(f)
		}
		return workload.ReadCSV(f)
	default:
		return nil, unknownSelector("trace.kind", t.Kind)
	}
}

// buildPolicy constructs the policy a normalized policy spec selects;
// kindField names the spec field the kind came from.
func buildPolicy(p PolicySpec, kindField string, sys *fuelcell.System, dev *device.Model) (sim.Policy, error) {
	switch p.Kind {
	case "fcdpm":
		return policy.NewFCDPM(sys, dev), nil
	case "conv":
		return policy.NewConv(sys), nil
	case "asap":
		return policy.NewASAP(sys), nil
	case "flat":
		return policy.NewFlat(sys, p.FlatIF), nil
	case "quantized":
		if p.Levels < 2 {
			return nil, &ValidationError{Field: "policy.levels",
				Detail: fmt.Sprintf("quantized policy needs >= 2 levels, got %d", p.Levels)}
		}
		q, err := policy.NewFCDPMQuantized(sys, dev, fcopt.UniformLevels(sys, p.Levels))
		if err != nil {
			return nil, &ValidationError{Field: "policy.levels", Detail: err.Error()}
		}
		return q, nil
	default:
		return nil, unknownSelector(kindField, p.Kind)
	}
}

// buildFaults assembles the normalized spec's fault schedule: explicit
// events first, then any requested random draw over the trace duration.
func buildFaults(spec FaultsSpec, trace *workload.Trace) (*fault.Schedule, error) {
	if len(spec.Events) == 0 && spec.Random == 0 {
		return nil, nil
	}
	// Normalized spelled every class name canonically, so each parses.
	sched := &fault.Schedule{}
	for _, e := range spec.Events {
		k, _ := fault.ParseKind(e.Kind)
		sched.Events = append(sched.Events, fault.Event{
			Kind: k, Start: e.Start, Dur: e.Duration, Magnitude: e.Magnitude,
		})
	}
	if spec.Random > 0 {
		var kinds []fault.Kind
		for _, name := range spec.Kinds {
			k, _ := fault.ParseKind(name)
			kinds = append(kinds, k)
		}
		gen, err := fault.Generate(fault.GenConfig{
			Seed:    spec.Seed,
			Horizon: trace.Statistics().Duration,
			Events:  spec.Random,
			Kinds:   kinds,
		})
		if err != nil {
			return nil, &ValidationError{Field: "faults", Detail: err.Error()}
		}
		sched.Events = append(sched.Events, gen.Events...)
	}
	if err := sched.Validate(); err != nil {
		return nil, &ValidationError{Field: "faults", Detail: err.Error()}
	}
	return sched, nil
}

func buildDPM(spec DPMSpec) (sim.DPMMode, error) {
	switch spec.Mode {
	case "predictive":
		return sim.DPMPredictive, nil
	case "never":
		return sim.DPMNeverSleep, nil
	case "always":
		return sim.DPMAlwaysSleep, nil
	case "oracle":
		return sim.DPMOracle, nil
	case "timeout":
		return sim.DPMTimeout, nil
	default:
		return 0, unknownSelector("dpm.mode", spec.Mode)
	}
}
