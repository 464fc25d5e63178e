package workload

import (
	"fmt"
	"math"

	"fcdpm/internal/numeric"
)

// HeavyTailConfig parameterizes a Pareto-idle workload — the classic
// stress case of the DPM prediction literature: most idle periods are
// short (not worth sleeping through), but a heavy tail of very long ones
// carries most of the sleeping opportunity. Unlike the paper's two
// benign workloads, this one separates good predictors from bad ones.
type HeavyTailConfig struct {
	// Duration is the total trace length in seconds.
	Duration float64
	// IdleXm and IdleAlpha are the Pareto scale (minimum) and shape; the
	// mean is Xm·α/(α−1) for α > 1. Idle periods are capped at IdleCap.
	IdleXm, IdleAlpha, IdleCap float64
	// ActiveMin and ActiveMax bound the uniform active-period length.
	ActiveMin, ActiveMax float64
	// PowerMin and PowerMax bound the uniform active power (watts at V).
	PowerMin, PowerMax float64
	// V converts power to current.
	V float64
	// Seed drives the deterministic generator.
	Seed uint64
}

// DefaultHeavyTailConfig returns the Experiment 3 configuration: Pareto
// idles with scale 3 s and shape 1.6 (mean 8 s, capped at 120 s) against
// the Experiment 2 device whose break-even time is 10 s — so the *median*
// idle does not justify sleeping but the tail does.
func DefaultHeavyTailConfig() HeavyTailConfig {
	return HeavyTailConfig{
		Duration: 28 * 60,
		IdleXm:   3, IdleAlpha: 1.6, IdleCap: 120,
		ActiveMin: 2, ActiveMax: 4,
		PowerMin: 12, PowerMax: 16,
		V:    12,
		Seed: 3,
	}
}

// Validate reports configuration errors.
func (c HeavyTailConfig) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("workload: non-positive duration %v", c.Duration)
	case c.IdleXm <= 0:
		return fmt.Errorf("workload: non-positive Pareto scale %v", c.IdleXm)
	case c.IdleAlpha <= 1:
		return fmt.Errorf("workload: Pareto shape %v must exceed 1 (finite mean)", c.IdleAlpha)
	case c.IdleCap <= c.IdleXm:
		return fmt.Errorf("workload: idle cap %v at or below scale %v", c.IdleCap, c.IdleXm)
	case c.ActiveMin <= 0 || c.ActiveMax <= c.ActiveMin:
		return fmt.Errorf("workload: bad active bounds [%v, %v]", c.ActiveMin, c.ActiveMax)
	case c.PowerMin <= 0 || c.PowerMax <= c.PowerMin:
		return fmt.Errorf("workload: bad power bounds [%v, %v]", c.PowerMin, c.PowerMax)
	case c.V <= 0:
		return fmt.Errorf("workload: non-positive voltage %v", c.V)
	}
	return nil
}

// HeavyTail generates the Pareto-idle trace.
func HeavyTail(cfg HeavyTailConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := numeric.NewRNG(cfg.Seed)
	tr := &Trace{Name: fmt.Sprintf("heavy-tail(seed=%d)", cfg.Seed)}
	var elapsed float64
	for elapsed < cfg.Duration {
		if len(tr.Slots) == MaxSlots {
			return nil, errTooLong(cfg.Duration)
		}
		// Inverse-CDF Pareto sample.
		u := rng.Float64()
		idle := cfg.IdleXm * math.Pow(1-u, -1/cfg.IdleAlpha)
		if idle > cfg.IdleCap {
			idle = cfg.IdleCap
		}
		s := Slot{
			Idle:          idle,
			Active:        rng.Uniform(cfg.ActiveMin, cfg.ActiveMax),
			ActiveCurrent: rng.Uniform(cfg.PowerMin, cfg.PowerMax) / cfg.V,
		}
		tr.Slots = append(tr.Slots, s)
		elapsed += s.Idle + s.Active
	}
	return tr, nil
}
