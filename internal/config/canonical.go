package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"fcdpm/internal/fault"
	"fcdpm/internal/multistack"
)

// This file gives a validated scenario a canonical form, so the serving
// subsystem can content-address results: two specs that describe the
// same simulation — whatever cosmetic freedom they used (field casing,
// omitted defaults, orchestration-only settings) — normalize to the same
// bytes and therefore the same cache key.

// Normalized returns a canonical copy of the scenario: it validates,
// lowercases every kind/mode selector, writes the paper defaults into
// zero-valued fields exactly as Build would resolve them, zeroes fields
// the selected kind ignores, and drops the runner block (orchestration
// tuning cannot change a simulation's result). The receiver is not
// modified.
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
	n.Runner = RunnerSpec{}

	// System: Build ignores alpha/beta under a constant-efficiency model.
	n.System.VF = defaultF(n.System.VF, 12)
	n.System.Zeta = defaultF(n.System.Zeta, 37.5)
	n.System.MinOutput = defaultF(n.System.MinOutput, 0.1)
	n.System.MaxOutput = defaultF(n.System.MaxOutput, 1.2)
	if n.System.ConstantEta > 0 {
		n.System.Alpha, n.System.Beta = 0, 0
	} else {
		n.System.ConstantEta = 0
		n.System.Alpha = defaultF(n.System.Alpha, 0.45)
		n.System.Beta = defaultF(n.System.Beta, 0.13)
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

	// Storage: the KiBaM parameters only exist for "liion".
	n.Storage.Kind = defaultKind(n.Storage.Kind, "supercap")
	n.Storage.CapacityAs = defaultF(n.Storage.CapacityAs, 6)
	n.Storage.InitialAs = defaultF(n.Storage.InitialAs, 1)
	if n.Storage.Kind == "liion" {
		n.Storage.WellFraction = defaultF(n.Storage.WellFraction, 0.6)
		n.Storage.RateConstant = defaultF(n.Storage.RateConstant, 0.05)
	} else {
		n.Storage.WellFraction, n.Storage.RateConstant = 0, 0
	}

	// Trace: generator kinds resolve their generator's default seed and
	// duration; a file trace has neither.
	n.Trace.Kind = defaultKind(n.Trace.Kind, "camcorder")
	switch n.Trace.Kind {
	case "camcorder":
		n.Trace.File = ""
		if n.Trace.Seed == 0 {
			n.Trace.Seed = 1
		}
		n.Trace.Duration = defaultF(n.Trace.Duration, 28*60)
	case "synthetic":
		n.Trace.File = ""
		if n.Trace.Seed == 0 {
			n.Trace.Seed = 2
		}
		n.Trace.Duration = defaultF(n.Trace.Duration, 28*60)
	case "bursty":
		n.Trace.File = ""
		if n.Trace.Seed == 0 {
			n.Trace.Seed = 4
		}
		n.Trace.Duration = defaultF(n.Trace.Duration, 28*60)
	case "heavytail":
		n.Trace.File = ""
		if n.Trace.Seed == 0 {
			n.Trace.Seed = 3
		}
		n.Trace.Duration = defaultF(n.Trace.Duration, 28*60)
	case "racksurge":
		n.Trace.File = ""
		if n.Trace.Seed == 0 {
			n.Trace.Seed = 5
		}
		n.Trace.Duration = defaultF(n.Trace.Duration, 28*60)
		n.Trace.Intensity = defaultF(n.Trace.Intensity, 2)
	case "dvs":
		// The DVS trace is deterministic: only duration and level matter.
		n.Trace.File = ""
		n.Trace.Seed = 0
		n.Trace.Duration = defaultF(n.Trace.Duration, 28*60)
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

	// Policy: parameters beyond the selected kind are inert.
	n.Policy.Kind = defaultKind(n.Policy.Kind, "fcdpm")
	if n.Policy.Kind == "flat" {
		n.Policy.FlatIF = defaultF(n.Policy.FlatIF, 0.5)
	} else {
		n.Policy.FlatIF = 0
	}
	if n.Policy.Kind == "quantized" {
		if n.Policy.Levels == 0 {
			n.Policy.Levels = 8
		}
	} else {
		n.Policy.Levels = 0
	}

	n.DPM.Mode = defaultKind(n.DPM.Mode, "predictive")
	if n.DPM.Mode != "timeout" {
		n.DPM.Timeout = 0
	}

	// Predictor: the selected kind determines which tuning fields are
	// live; the rest are inert and must not reach the hash.
	n.Predict.Kind = defaultKind(n.Predict.Kind, "expavg")
	n.Predict.Sigma = defaultF(n.Predict.Sigma, 0.5)
	n.Predict.Rho, n.Predict.Window = 0, 0
	n.Predict.Levels, n.Predict.Depth = 0, 0
	n.Predict.Lo, n.Predict.Hi = 0, 0
	switch n.Predict.Kind {
	case "expavg":
		n.Predict.Rho = defaultF(s.Predict.Rho, 0.5)
	case "movingavg", "regression":
		n.Predict.Window = defaultI(s.Predict.Window, 5)
	case "tree":
		n.Predict.Levels = defaultI(s.Predict.Levels, 8)
		n.Predict.Depth = defaultI(s.Predict.Depth, 2)
		n.Predict.Lo = s.Predict.Lo
		n.Predict.Hi = defaultF(s.Predict.Hi, 60)
	case "markov":
		n.Predict.Levels = defaultI(s.Predict.Levels, 8)
		n.Predict.Lo = s.Predict.Lo
		n.Predict.Hi = defaultF(s.Predict.Hi, 60)
	}

	// Faults: canonical class spelling; an empty schedule is the zero
	// spec, so its seed and class filter cannot leak into the hash.
	if len(n.Faults.Events) == 0 && n.Faults.Random == 0 {
		n.Faults = FaultsSpec{}
	} else {
		events := make([]FaultEventSpec, len(n.Faults.Events))
		for i, e := range n.Faults.Events {
			k, err := fault.ParseKind(e.Kind)
			if err != nil {
				return nil, &ValidationError{Field: fmt.Sprintf("faults.events[%d].kind", i), Detail: err.Error()}
			}
			e.Kind = k.String()
			events[i] = e
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
			// Only explicit events: the generator seed is inert.
			n.Faults.Seed = 0
			n.Faults.Kinds = nil
		}
	}

	if len(n.Fallbacks) > 0 {
		fallbacks := make([]string, len(n.Fallbacks))
		for i, name := range n.Fallbacks {
			fallbacks[i] = defaultKind(name, "fcdpm")
		}
		n.Fallbacks = fallbacks
	} else {
		n.Fallbacks = nil
	}
	return &n, nil
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
// substitutes def for empty. Build and Normalized both read selectors
// through it, so two spellings that key alike build alike.
func defaultKind(kind, def string) string {
	k := strings.ToLower(strings.TrimSpace(kind))
	if k == "" {
		return def
	}
	return k
}
