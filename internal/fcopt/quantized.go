package fcopt

import (
	"fmt"
	"math"
	"sort"

	"fcdpm/internal/fuelcell"
)

// Levels is the discrete set of output levels a multi-level FC system
// supports, priced against that system: ascending, each inside its
// load-following range, and each with the stack current it draws. Build
// one with NewLevels; the zero value holds no levels.
type Levels struct {
	iF   []float64
	rate []float64 // rate[k] = sys.StackCurrent(iF[k])
}

// NewLevels validates a level grid against sys: the levels are copied
// and sorted, and each must lie in the load-following range. Each
// level's stack current is computed here, once, so planning a slot
// never evaluates the fuel curve.
func NewLevels(sys *fuelcell.System, levels []float64) (Levels, error) {
	if len(levels) == 0 {
		return Levels{}, fmt.Errorf("fcopt: no output levels")
	}
	iF := append([]float64(nil), levels...)
	sort.Float64s(iF)
	rate := make([]float64, len(iF))
	for k, l := range iF {
		if !sys.InRange(l) {
			return Levels{}, fmt.Errorf("fcopt: level %v outside the load-following range", l)
		}
		rate[k] = sys.StackCurrent(l)
	}
	return Levels{iF: iF, rate: rate}, nil
}

// Values returns the levels in ascending order. The slice is the
// grid's own and must not be modified.
func (lv Levels) Values() []float64 { return lv.iF }

// OptimizeQuantized solves the slot problem when the FC system
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
// A pair's fuel is rate_i·Ti + rate_a·Ta', the value System.Fuel gives,
// from the rates lv priced; the search allocates nothing.
func OptimizeQuantized(lv Levels, cmax float64, s Slot) (Setting, error) {
	if err := s.Validate(); err != nil {
		return Setting{}, err
	}
	if cmax <= 0 {
		return Setting{}, fmt.Errorf("fcopt: non-positive storage capacity %v", cmax)
	}
	if len(lv.iF) == 0 {
		return Setting{}, fmt.Errorf("fcopt: no output levels")
	}

	taEff, activeCharge := s.demand()
	var avgA float64
	if taEff > 0 {
		avgA = activeCharge / taEff
	}
	best := Setting{TaEff: taEff, Fuel: math.Inf(1)}
	bestFound := false
	// Fallback: the pair that ends with the most charge, used when no
	// pair can reach the Cend target.
	fallback := Setting{TaEff: taEff}
	fallbackEnd := math.Inf(-1)

	for i, ifi := range lv.iF {
		// Idle-phase trajectory with bleeder clamping at Cmax.
		peak := s.Cini + (ifi-s.IldI)*s.Ti
		if peak < -1e-9 {
			continue // storage would run dry during idle
		}
		if peak > cmax {
			peak = cmax // excess bled
		}
		for a, ifa := range lv.iF {
			end := peak
			if taEff > 0 {
				end = peak + (ifa-avgA)*taEff
				if end < -1e-9 {
					continue // dry during active
				}
				if end > cmax {
					end = cmax
				}
			}
			fuel := lv.rate[i]*s.Ti + lv.rate[a]*taEff
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
			return Setting{}, &noPairError{levels: lv.iF}
		}
		return fallback, nil
	}
	return best, nil
}

// noPairError reports a slot on which every level pair runs the storage
// dry. It formats the grid only when read: a policy keeps just its first
// plan error, and a slot whose load outstrips every level is seldom
// alone.
type noPairError struct {
	levels []float64 // the grid's own slice, never modified
}

func (e *noPairError) Error() string {
	return fmt.Sprintf("fcopt: no feasible level pair for slot (levels %v)", e.levels)
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
