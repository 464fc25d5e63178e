package fcopt

import (
	"fmt"
	"math"

	"fcdpm/internal/fuelcell"
)

// OptimizeQuantizedSorted solves the slot problem when the FC system
// supports only a discrete set of output levels — the multi-level
// configuration of the authors' companion work [11] ("the case when the
// FC supports multiple output levels"). Real fuel-flow controllers often
// quantize the set point; this variant shows how much of the continuous
// optimum survives coarse quantization (see the ablation bench).
//
// The solver enumerates all level pairs (IF,i, IF,a), simulates the slot's
// charge trajectory (with bleeder clamping at Cmax), rejects pairs that
// drain the storage below empty or end below the Cend target, and returns
// the feasible pair with minimal fuel. When no pair can reach Cend, the
// pair ending highest is returned (mirroring how the online policy
// degrades: the next slot's Cini ≠ Cend correction absorbs the shortfall).
//
// levels must be ascending and inside the load-following range: a policy
// validates its grid once at construction (policy.NewFCDPMQuantized), then
// plans every slot on the zero-allocation path. A violated contract
// degrades the answer, it does not corrupt memory.
func OptimizeQuantizedSorted(sys *fuelcell.System, cmax float64, s Slot, lv []float64) (Setting, error) {
	if err := s.Validate(); err != nil {
		return Setting{}, err
	}
	if cmax <= 0 {
		return Setting{}, fmt.Errorf("fcopt: non-positive storage capacity %v", cmax)
	}
	if len(lv) == 0 {
		return Setting{}, fmt.Errorf("fcopt: no output levels")
	}

	taEff, activeCharge := s.demand()
	best := Setting{TaEff: taEff, Fuel: math.Inf(1)}
	bestFound := false
	// Fallback: the pair that ends with the most charge, used when no
	// pair can reach the Cend target.
	fallback := Setting{TaEff: taEff}
	fallbackEnd := math.Inf(-1)

	for _, ifi := range lv {
		// Idle-phase trajectory with bleeder clamping at Cmax.
		peak := s.Cini + (ifi-s.IldI)*s.Ti
		if peak < -1e-9 {
			continue // storage would run dry during idle
		}
		if peak > cmax {
			peak = cmax // excess bled
		}
		for _, ifa := range lv {
			end := peak
			if taEff > 0 {
				avgA := activeCharge / taEff
				end = peak + (ifa-avgA)*taEff
				if end < -1e-9 {
					continue // dry during active
				}
				if end > cmax {
					end = cmax
				}
			}
			fuel := sys.Fuel(ifi, s.Ti) + sys.Fuel(ifa, taEff)
			if end > fallbackEnd || (end == fallbackEnd && fuel < fallback.Fuel) {
				fallbackEnd = end
				fallback = Setting{IFi: ifi, IFa: ifa, TaEff: taEff, Fuel: fuel, ClampedRange: true}
			}
			if end+1e-9 < s.Cend {
				continue // misses the stability target
			}
			if fuel < best.Fuel {
				best = Setting{IFi: ifi, IFa: ifa, TaEff: taEff, Fuel: fuel}
				bestFound = true
			}
		}
	}
	if !bestFound {
		if math.IsInf(fallbackEnd, -1) {
			return Setting{}, fmt.Errorf("fcopt: no feasible level pair for slot (levels %v)", lv)
		}
		return fallback, nil
	}
	return best, nil
}

// UniformLevels returns n output levels evenly spaced over the system's
// load-following range (inclusive of both ends). n must be at least 2.
func UniformLevels(sys *fuelcell.System, n int) []float64 {
	if n < 2 {
		n = 2
	}
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		out[k] = sys.MinOutput + (sys.MaxOutput-sys.MinOutput)*float64(k)/float64(n-1)
	}
	return out
}
