package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"fcdpm/internal/fault"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/multistack"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

// This file gives a validated scenario a canonical form, so the serving
// subsystem can content-address results: two specs that describe the
// same simulation — whatever cosmetic freedom they used (field casing,
// omitted defaults, orchestration-only settings) — normalize to the same
// bytes and therefore the same cache key.

// The paper's electrical and storage defaults, built once: Normalized
// runs on every request the server keys.
var (
	paperSystem     = fuelcell.PaperSystem()
	paperEfficiency = fuelcell.PaperEfficiency()
	paperCapacity   = storage.PaperSuperCap().Capacity()
)

// Normalized returns a canonical copy of the scenario: it validates,
// lowercases every kind/mode selector, writes the paper defaults into
// zero-valued fields, and zeroes fields the selected kind ignores. The
// receiver is not modified.
//
// It is the one place a spec's defaults are resolved, each read from
// the package that defines it. Build constructs the run from its
// result, so the cache key hashes exactly what Build reads.
//
// The normalization is value-level, not behavioral: a predictor seeded
// explicitly with the device's break-even time still hashes differently
// from one left to default, because resolving that would need the device
// model itself.
func (s *Scenario) Normalized() (*Scenario, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := *s

	// System: the paper's stack and measured efficiency line. Build
	// ignores alpha/beta under a constant-efficiency model.
	n.System.VF = defaultF(n.System.VF, paperSystem.VF)
	n.System.Zeta = defaultF(n.System.Zeta, paperSystem.Zeta)
	n.System.MinOutput = defaultF(n.System.MinOutput, paperSystem.MinOutput)
	n.System.MaxOutput = defaultF(n.System.MaxOutput, paperSystem.MaxOutput)
	if n.System.ConstantEta > 0 {
		n.System.Alpha, n.System.Beta = 0, 0
	} else {
		n.System.ConstantEta = 0
		n.System.Alpha = defaultF(n.System.Alpha, paperEfficiency.Alpha)
		n.System.Beta = defaultF(n.System.Beta, paperEfficiency.Beta)
	}
	// Rack fields: a single-stack system has no allocator or degradation
	// mix; a rack resolves its allocator's canonical name and expands the
	// degradation cycle to one entry per stack (so [0, 0.3] on 4 stacks
	// and [0, 0.3, 0, 0.3] hash identically), dropping an all-healthy mix.
	if n.System.Stacks < 2 {
		n.System.Stacks, n.System.Alloc, n.System.Degrade = 0, "", nil
	} else {
		alloc, err := multistack.ParseAllocator(n.System.Alloc)
		if err != nil {
			return nil, &ValidationError{Field: "system.alloc", Detail: err.Error()}
		}
		n.System.Alloc = alloc.Name()
		if len(n.System.Degrade) > 0 {
			mix := make([]float64, n.System.Stacks)
			healthy := true
			for i := range mix {
				mix[i] = n.System.Degrade[i%len(n.System.Degrade)]
				if mix[i] != 0 {
					healthy = false
				}
			}
			if healthy {
				n.System.Degrade = nil
			} else {
				n.System.Degrade = mix
			}
		} else {
			n.System.Degrade = nil
		}
	}

	n.Device.Kind = defaultKind(n.Device.Kind, "camcorder")
	if n.Device.TbeOverride <= 0 {
		n.Device.TbeOverride = 0
	}

	// Storage: the paper's supercap with a 1 A-s starting reserve; the
	// KiBaM parameters only exist for "liion".
	n.Storage.Kind = defaultKind(n.Storage.Kind, "supercap")
	n.Storage.CapacityAs = defaultF(n.Storage.CapacityAs, paperCapacity)
	n.Storage.InitialAs = defaultF(n.Storage.InitialAs, 1)
	if n.Storage.Kind == "liion" {
		n.Storage.WellFraction = defaultF(n.Storage.WellFraction, 0.6)
		n.Storage.RateConstant = defaultF(n.Storage.RateConstant, 0.05)
	} else {
		n.Storage.WellFraction, n.Storage.RateConstant = 0, 0
	}

	// Trace: a generated kind resolves its generator's default seed and
	// duration; a file trace has neither.
	n.Trace.Kind = defaultKind(n.Trace.Kind, "camcorder")
	switch n.Trace.Kind {
	case "camcorder":
		d := workload.DefaultCamcorderConfig()
		n.Trace = generated(n.Trace, d.Seed, d.Duration)
	case "synthetic":
		d := workload.DefaultSyntheticConfig()
		n.Trace = generated(n.Trace, d.Seed, d.Duration)
	case "bursty":
		d := workload.DefaultBurstyConfig()
		n.Trace = generated(n.Trace, d.Seed, d.Duration)
	case "heavytail":
		d := workload.DefaultHeavyTailConfig()
		n.Trace = generated(n.Trace, d.Seed, d.Duration)
	case "racksurge":
		d := workload.DefaultRackSurgeConfig()
		n.Trace = generated(n.Trace, d.Seed, d.Duration)
		n.Trace.Intensity = defaultF(n.Trace.Intensity, d.Intensity)
	case "dvs":
		// The DVS trace is deterministic, so its seed is inert; it runs
		// for the paper's trace length.
		n.Trace.Seed = 0
		n.Trace = generated(n.Trace, 0, workload.DefaultCamcorderConfig().Duration)
	case "file":
		n.Trace.Seed = 0
		n.Trace.Duration = 0
	}
	// Only "dvs" reads the operating-point index; only "racksurge" reads
	// the surge multiplier.
	if n.Trace.Kind != "dvs" {
		n.Trace.Level = 0
	}
	if n.Trace.Kind != "racksurge" {
		n.Trace.Intensity = 0
	}

	n.Policy = normalizePolicy(n.Policy)
	n.DPM.Mode = defaultKind(n.DPM.Mode, "predictive")
	if n.DPM.Mode != "timeout" {
		n.DPM.Timeout = 0
	}
	n.Predict = normalizePredictor(n.Predict)

	// Faults: canonical class spelling; an empty schedule is the zero
	// spec, so its seed and class filter cannot leak into the hash.
	if len(n.Faults.Events) == 0 && n.Faults.Random == 0 {
		n.Faults = FaultsSpec{}
	} else {
		events := make([]FaultEventSpec, len(n.Faults.Events))
		noise := false
		for i, e := range n.Faults.Events {
			k, err := fault.ParseKind(e.Kind)
			if err != nil {
				return nil, &ValidationError{Field: fmt.Sprintf("faults.events[%d].kind", i), Detail: err.Error()}
			}
			e.Kind = k.String()
			events[i] = e
			noise = noise || k == fault.SensorNoise
		}
		n.Faults.Events = events
		kinds := make([]string, len(n.Faults.Kinds))
		for i, name := range n.Faults.Kinds {
			k, err := fault.ParseKind(name)
			if err != nil {
				return nil, &ValidationError{Field: "faults.kinds", Detail: err.Error()}
			}
			kinds[i] = k.String()
		}
		if len(kinds) == 0 {
			kinds = nil
		}
		n.Faults.Kinds = kinds
		if n.Faults.Random == 0 {
			// Only explicit events: the class filter is inert, and so is
			// the seed unless a sensor-noise event draws its noise from it.
			n.Faults.Kinds = nil
			if !noise {
				n.Faults.Seed = 0
			}
		}
	}

	if len(n.Fallbacks) > 0 {
		fallbacks := make([]string, len(n.Fallbacks))
		for i, name := range n.Fallbacks {
			fallbacks[i] = normalizePolicy(PolicySpec{Kind: name}).Kind
		}
		n.Fallbacks = fallbacks
	} else {
		n.Fallbacks = nil
	}
	return &n, nil
}

// generated resolves a generated trace's seed and duration to its
// generator's defaults; a generated trace reads no file.
func generated(t TraceSpec, seed uint64, duration float64) TraceSpec {
	t.File = ""
	if t.Seed == 0 {
		t.Seed = seed
	}
	t.Duration = defaultF(t.Duration, duration)
	return t
}

// normalizePolicy resolves a policy spec's defaults and zeroes the
// parameters its kind ignores. The run's policy and each fallback in
// the chain resolve through it.
func normalizePolicy(p PolicySpec) PolicySpec {
	n := PolicySpec{Kind: defaultKind(p.Kind, "fcdpm")}
	switch n.Kind {
	case "flat":
		n.FlatIF = defaultF(p.FlatIF, 0.5)
	case "quantized":
		n.Levels = defaultI(p.Levels, 8)
	}
	return n
}

// normalizePredictor resolves a predictor spec's defaults and zeroes the
// tuning fields its kind ignores. IdleInitial stays as given: its
// default, the device's break-even time, needs the device model.
func normalizePredictor(p PredictorSpec) PredictorSpec {
	n := PredictorSpec{
		Kind:        defaultKind(p.Kind, "expavg"),
		Sigma:       defaultF(p.Sigma, 0.5),
		IdleInitial: p.IdleInitial,
	}
	switch n.Kind {
	case "expavg":
		n.Rho = defaultF(p.Rho, 0.5)
	case "movingavg", "regression":
		n.Window = defaultI(p.Window, 5)
	case "tree":
		n.Depth = defaultI(p.Depth, 2)
		fallthrough
	case "markov":
		n.Levels = defaultI(p.Levels, 8)
		n.Lo = p.Lo
		n.Hi = defaultF(p.Hi, 60)
	}
	return n
}

// Canonical returns the canonical JSON bytes of the normalized scenario.
// Equal simulations yield equal bytes; the serving subsystem hashes them
// (together with the engine build tag) into the result-cache address.
func (s *Scenario) Canonical() ([]byte, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(n)
	if err != nil {
		return nil, fmt.Errorf("config: canonical encode: %w", err)
	}
	return b, nil
}

// CacheKey returns the content address of this scenario's result under
// the given engine build tag: the hex SHA-256 of the tag and the
// canonical spec bytes. Identical specs evaluated by different engine
// builds get different addresses.
func (s *Scenario) CacheKey(engine string) (string, error) {
	canon, err := s.Canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(engine))
	h.Write([]byte{'\n'})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// defaultKind resolves a kind selector: it trims and lowercases it and
// substitutes def for empty.
func defaultKind(kind, def string) string {
	k := strings.ToLower(strings.TrimSpace(kind))
	if k == "" {
		return def
	}
	return k
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
