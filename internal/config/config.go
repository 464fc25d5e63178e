// Package config loads simulation scenarios from JSON so experiments can
// be described declaratively and run with `fcdpm runfile`. Every field has
// a paper-faithful default; a minimal file like
//
//	{"trace": {"kind": "camcorder"}, "policy": {"kind": "fcdpm"}}
//
// reproduces the Experiment 1 FC-DPM run.
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
	// Runner tunes the batch-orchestration engine when this scenario runs
	// as part of a batch (`fcdpm batch`); single runs ignore it.
	Runner RunnerSpec `json:"runner"`
}

// RunnerSpec tunes the run-orchestration engine for batch execution. Zero
// values mean engine defaults (GOMAXPROCS workers, no deadline, no
// retries, no journal). CLI flags override a scenario's runner block.
type RunnerSpec struct {
	// Workers bounds concurrently executing scenarios.
	Workers int `json:"workers"`
	// TimeoutSec is the per-run attempt deadline in seconds.
	TimeoutSec float64 `json:"timeoutSec"`
	// Retries re-attempts transiently failed runs with exponential
	// backoff.
	Retries int `json:"retries"`
	// Journal is a JSONL checkpoint path; completed runs recorded there
	// are skipped when the batch is re-invoked (crash-safe resume).
	Journal string `json:"journal"`
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

// maxPredictLevels caps predict.levels, the quantizer size of the
// "tree" and "markov" predictors (default 8).
const maxPredictLevels = 256

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
	// The Markov predictor keeps a levels x levels transition table, so
	// an uncapped count lets one spec exhaust memory in the dry run
	// below.
	if s.Predict.Levels > maxPredictLevels {
		return &ValidationError{Field: "predict.levels",
			Detail: fmt.Sprintf("%d levels exceed the cap of %d", s.Predict.Levels, maxPredictLevels)}
	}
	// The predictor parameters (rho, window, levels, depth, bounds) are
	// validated by the predict constructors themselves: a dry-run
	// construction surfaces their *predict.ConfigError as the
	// *ValidationError naming the scenario field, so no predictor
	// parameter reachable from a scenario file panics.
	if _, err := buildIdlePredictor(s.Predict, defaultF(s.Predict.IdleInitial, 1)); err != nil {
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
	if err := checkNonNeg("storage.capacityAs", s.Storage.CapacityAs); err != nil {
		return err
	}
	if err := checkNonNeg("storage.initialAs", s.Storage.InitialAs); err != nil {
		return err
	}
	if s.Faults.Random < 0 {
		return &ValidationError{Field: "faults.random", Detail: fmt.Sprintf("negative event count %d", s.Faults.Random)}
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
	if s.Runner.Workers < 0 {
		return &ValidationError{Field: "runner.workers", Detail: fmt.Sprintf("negative worker count %d", s.Runner.Workers)}
	}
	if err := checkNonNeg("runner.timeoutSec", s.Runner.TimeoutSec); err != nil {
		return err
	}
	if s.Runner.Retries < 0 {
		return &ValidationError{Field: "runner.retries", Detail: fmt.Sprintf("negative retry count %d", s.Runner.Retries)}
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

// Build assembles a runnable simulation configuration, applying paper
// defaults for every unset field. A spec defect that only construction
// can detect (an unknown kind selector, a constructor refusing its
// parameters) is a *ValidationError naming the field, like Validate's.
func (s *Scenario) Build() (sim.Config, error) {
	var cfg sim.Config
	if err := s.Validate(); err != nil {
		return cfg, err
	}
	sys, err := s.buildSystem()
	if err != nil {
		return cfg, err
	}
	dev, err := s.buildDevice()
	if err != nil {
		return cfg, err
	}
	store, err := s.buildStorage()
	if err != nil {
		return cfg, err
	}
	trace, err := s.buildTrace()
	if err != nil {
		return cfg, err
	}
	pol, err := s.buildPolicy(sys, dev)
	if err != nil {
		return cfg, err
	}
	mode, err := s.buildDPM()
	if err != nil {
		return cfg, err
	}
	faults, err := s.buildFaults(trace)
	if err != nil {
		return cfg, err
	}
	fallbacks, err := s.buildFallbacks(sys, dev)
	if err != nil {
		return cfg, err
	}
	cfg = sim.Config{
		Sys: sys, Dev: dev, Store: store, Trace: trace, Policy: pol,
		DPM: mode, Timeout: s.DPM.Timeout,
		SlewRate:   s.SlewRate,
		Faults:     faults,
		FaultSeed:  s.Faults.Seed,
		Fallbacks:  fallbacks,
		Supervisor: sim.SupervisorConfig{DeficitLimit: s.DeficitLimit},
	}
	sigma := defaultF(s.Predict.Sigma, 0.5)
	idleInit := defaultF(s.Predict.IdleInitial, dev.BreakEven())
	cfg.IdlePredictor, err = buildIdlePredictor(s.Predict, idleInit)
	if err != nil {
		return cfg, err
	}
	if len(trace.Slots) > 0 {
		// Sigma passed Validate's unit check, so these cannot fail.
		cfg.ActivePredictor = predict.MustExpAverage(sigma, trace.Slots[0].Active)
		cfg.CurrentPredictor = predict.MustExpAverage(sigma, trace.Slots[0].ActiveCurrent)
	}
	return cfg, nil
}

// buildIdlePredictor constructs the idle-period predictor the spec
// selects. Constructor *predict.ConfigError values surface as
// *ValidationError naming the scenario field.
func buildIdlePredictor(spec PredictorSpec, idleInit float64) (predict.Predictor, error) {
	window := defaultI(spec.Window, 5)
	levels := defaultI(spec.Levels, 8)
	depth := defaultI(spec.Depth, 2)
	hi := defaultF(spec.Hi, 60)
	switch defaultKind(spec.Kind, "expavg") {
	case "expavg":
		p, err := predict.NewExpAverage(defaultF(spec.Rho, 0.5), idleInit)
		return wrapPredictor(p, err)
	case "lastvalue":
		return predict.NewLastValue(idleInit), nil
	case "movingavg":
		p, err := predict.NewMovingAverage(window, idleInit)
		return wrapPredictor(p, err)
	case "regression":
		p, err := predict.NewRegression(window, idleInit)
		return wrapPredictor(p, err)
	case "tree":
		p, err := predict.NewTree(levels, depth, spec.Lo, hi, idleInit)
		return wrapPredictor(p, err)
	case "markov":
		p, err := predict.NewMarkov(levels, spec.Lo, hi, idleInit)
		return wrapPredictor(p, err)
	default:
		return nil, &ValidationError{Field: "predict.kind",
			Detail: fmt.Sprintf("unknown predictor kind %q", spec.Kind)}
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

func defaultI(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func defaultF(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

func (s *Scenario) buildSystem() (*fuelcell.System, error) {
	vf := defaultF(s.System.VF, 12)
	zeta := defaultF(s.System.Zeta, 37.5)
	lo := defaultF(s.System.MinOutput, 0.1)
	hi := defaultF(s.System.MaxOutput, 1.2)
	var eff fuelcell.EfficiencyModel
	if s.System.ConstantEta > 0 {
		eff = fuelcell.ConstantEfficiency{Value: s.System.ConstantEta}
	} else {
		eff = fuelcell.LinearEfficiency{
			Alpha: defaultF(s.System.Alpha, 0.45),
			Beta:  defaultF(s.System.Beta, 0.13),
		}
	}
	sys, err := fuelcell.NewSystem(vf, zeta, lo, hi, eff)
	if err != nil {
		return nil, &ValidationError{Field: "system", Detail: err.Error()}
	}
	if s.System.Stacks < 2 {
		return sys, nil
	}
	// K-stack rack: the spec's electrical fields describe one stack; the
	// aggregate System (pre-solved under the allocation policy) plugs into
	// the simulation in its place.
	alloc, err := multistack.ParseAllocator(s.System.Alloc)
	if err != nil {
		return nil, &ValidationError{Field: "system.alloc", Detail: err.Error()}
	}
	rack, err := multistack.Uniform(sys, s.System.Stacks, alloc, s.System.Degrade)
	if err != nil {
		return nil, &ValidationError{Field: "system.stacks", Detail: err.Error()}
	}
	return rack.System(), nil
}

func (s *Scenario) buildDevice() (*device.Model, error) {
	var dev *device.Model
	switch defaultKind(s.Device.Kind, "camcorder") {
	case "camcorder":
		dev = device.Camcorder()
	case "synthetic":
		dev = device.Synthetic()
	default:
		return nil, unknownSelector("device.kind", s.Device.Kind)
	}
	if s.Device.TbeOverride > 0 {
		dev.TbeOverride = s.Device.TbeOverride
	}
	return dev, dev.Validate()
}

func (s *Scenario) buildStorage() (storage.Storage, error) {
	cmax := defaultF(s.Storage.CapacityAs, 6)
	q0 := defaultF(s.Storage.InitialAs, 1)
	var st storage.Storage
	var err error
	switch defaultKind(s.Storage.Kind, "supercap") {
	case "supercap":
		st, err = storage.NewSuperCap(cmax, q0)
	case "liion":
		st, err = storage.NewLiIon(cmax,
			defaultF(s.Storage.WellFraction, 0.6),
			defaultF(s.Storage.RateConstant, 0.05), q0)
	default:
		return nil, unknownSelector("storage.kind", s.Storage.Kind)
	}
	if err != nil {
		// The constructors' errors name the parameter they refused.
		return nil, &ValidationError{Field: "storage", Detail: err.Error()}
	}
	return st, nil
}

// unknownSelector is the validation failure of a selector no builder
// recognizes.
func unknownSelector(field, v string) error {
	return &ValidationError{Field: field, Detail: fmt.Sprintf("unknown %q", v)}
}

func (s *Scenario) buildTrace() (*workload.Trace, error) {
	switch defaultKind(s.Trace.Kind, "camcorder") {
	case "camcorder":
		cfg := workload.DefaultCamcorderConfig()
		if s.Trace.Seed != 0 {
			cfg.Seed = s.Trace.Seed
		}
		if s.Trace.Duration > 0 {
			cfg.Duration = s.Trace.Duration
		}
		return workload.Camcorder(cfg)
	case "synthetic":
		cfg := workload.DefaultSyntheticConfig()
		if s.Trace.Seed != 0 {
			cfg.Seed = s.Trace.Seed
		}
		if s.Trace.Duration > 0 {
			cfg.Duration = s.Trace.Duration
		}
		return workload.Synthetic(cfg)
	case "bursty":
		cfg := workload.DefaultBurstyConfig()
		if s.Trace.Seed != 0 {
			cfg.Seed = s.Trace.Seed
		}
		if s.Trace.Duration > 0 {
			cfg.Duration = s.Trace.Duration
		}
		return workload.Bursty(cfg)
	case "heavytail":
		cfg := workload.DefaultHeavyTailConfig()
		if s.Trace.Seed != 0 {
			cfg.Seed = s.Trace.Seed
		}
		if s.Trace.Duration > 0 {
			cfg.Duration = s.Trace.Duration
		}
		return workload.HeavyTail(cfg)
	case "racksurge":
		cfg := workload.DefaultRackSurgeConfig()
		if s.Trace.Seed != 0 {
			cfg.Seed = s.Trace.Seed
		}
		if s.Trace.Duration > 0 {
			cfg.Duration = s.Trace.Duration
		}
		if s.Trace.Intensity != 0 {
			cfg.Intensity = s.Trace.Intensity
		}
		return workload.RackSurge(cfg)
	case "dvs":
		proc := dvs.XScale600()
		if s.Trace.Level < 0 || s.Trace.Level >= len(proc.Levels) {
			return nil, &ValidationError{Field: "trace.level",
				Detail: fmt.Sprintf("DVS level %d outside [0, %d]", s.Trace.Level, len(proc.Levels)-1)}
		}
		dur := s.Trace.Duration
		if dur <= 0 {
			dur = 28 * 60
		}
		// One 1e8-cycle job per 1 s period: feasible at every operating
		// point (worst case 0.67 s at 150 MHz), so the level knob only
		// moves the duty cycle and rail current, never the deadline.
		task := dvs.Task{Cycles: 1e8, Period: 1, Jobs: int(math.Ceil(dur))}
		return proc.Trace(task, s.Trace.Level)
	case "file":
		if s.Trace.File == "" {
			return nil, &ValidationError{Field: "trace.file", Detail: `trace kind "file" needs a file path`}
		}
		f, err := os.Open(s.Trace.File)
		if err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
		defer f.Close()
		if strings.HasSuffix(strings.ToLower(s.Trace.File), ".json") {
			return workload.ReadJSON(f)
		}
		return workload.ReadCSV(f)
	default:
		return nil, unknownSelector("trace.kind", s.Trace.Kind)
	}
}

func (s *Scenario) buildPolicy(sys *fuelcell.System, dev *device.Model) (sim.Policy, error) {
	return buildPolicyFrom(s.Policy, "policy.kind", sys, dev)
}

// buildPolicyFrom constructs the policy spec selects; kindField names
// the spec field the kind came from.
func buildPolicyFrom(spec PolicySpec, kindField string, sys *fuelcell.System, dev *device.Model) (sim.Policy, error) {
	switch defaultKind(spec.Kind, "fcdpm") {
	case "fcdpm":
		return policy.NewFCDPM(sys, dev), nil
	case "conv":
		return policy.NewConv(sys), nil
	case "asap":
		return policy.NewASAP(sys), nil
	case "flat":
		return policy.NewFlat(sys, defaultF(spec.FlatIF, 0.5)), nil
	case "quantized":
		n := spec.Levels
		if n == 0 {
			n = 8
		}
		if n < 2 {
			return nil, &ValidationError{Field: "policy.levels",
				Detail: fmt.Sprintf("quantized policy needs >= 2 levels, got %d", n)}
		}
		q, err := policy.NewFCDPMQuantized(sys, dev, fcopt.UniformLevels(sys, n))
		if err != nil {
			return nil, &ValidationError{Field: "policy.levels", Detail: err.Error()}
		}
		return q, nil
	default:
		return nil, unknownSelector(kindField, spec.Kind)
	}
}

// buildFallbacks resolves the named degradation chain. Each name is a
// policy kind; parameters beyond the kind use their defaults.
func (s *Scenario) buildFallbacks(sys *fuelcell.System, dev *device.Model) ([]sim.Policy, error) {
	var out []sim.Policy
	for i, name := range s.Fallbacks {
		p, err := buildPolicyFrom(PolicySpec{Kind: name}, fmt.Sprintf("fallbacks[%d]", i), sys, dev)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// buildFaults assembles the fault schedule: explicit events first, then
// any requested random draw over the trace duration.
func (s *Scenario) buildFaults(trace *workload.Trace) (*fault.Schedule, error) {
	spec := s.Faults
	if len(spec.Events) == 0 && spec.Random == 0 {
		return nil, nil
	}
	sched := &fault.Schedule{}
	for i, e := range spec.Events {
		k, err := fault.ParseKind(e.Kind)
		if err != nil {
			return nil, &ValidationError{Field: fmt.Sprintf("faults.events[%d].kind", i), Detail: err.Error()}
		}
		sched.Events = append(sched.Events, fault.Event{
			Kind: k, Start: e.Start, Dur: e.Duration, Magnitude: e.Magnitude,
		})
	}
	if spec.Random > 0 {
		var kinds []fault.Kind
		for _, name := range spec.Kinds {
			k, err := fault.ParseKind(name)
			if err != nil {
				return nil, &ValidationError{Field: "faults.kinds", Detail: err.Error()}
			}
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

func (s *Scenario) buildDPM() (sim.DPMMode, error) {
	switch defaultKind(s.DPM.Mode, "predictive") {
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
		return 0, unknownSelector("dpm.mode", s.DPM.Mode)
	}
}
