package fcopt

import (
	"fmt"
	"math"

	"fcdpm/internal/fuelcell"
)

// refOptimizeQuantizedSorted is the straightforward quantized slot
// optimizer: it prices both periods of every pair through sys.Fuel and
// takes the levels as a plain slice, ascending and in range by contract.
// OptimizeQuantized must reproduce it bit for bit; the differential test
// in quantized_test.go and FuzzOptimizeQuantized compare the two.
func refOptimizeQuantizedSorted(sys *fuelcell.System, cmax float64, s Slot, lv []float64) (Setting, error) {
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
