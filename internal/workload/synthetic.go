package workload

import (
	"fmt"

	"fcdpm/internal/numeric"
)

// SyntheticConfig parameterizes the Experiment 2 trace: idle and active
// period lengths and active power drawn from uniform distributions.
type SyntheticConfig struct {
	// Duration is the total trace length in seconds.
	Duration float64
	// IdleMin and IdleMax bound the uniform idle-period distribution
	// (paper: [5 s, 25 s]).
	IdleMin, IdleMax float64
	// ActiveMin and ActiveMax bound the uniform active-period
	// distribution (paper: [2 s, 4 s]).
	ActiveMin, ActiveMax float64
	// PowerMin and PowerMax bound the uniform active-power distribution
	// in watts (paper: [12 W, 16 W]).
	PowerMin, PowerMax float64
	// V converts active power to current (12 V in the paper).
	V float64
	// Seed drives the deterministic generator.
	Seed uint64
}

// DefaultSyntheticConfig returns the Experiment 2 configuration. The paper
// does not state the synthetic trace length; we match Experiment 1's
// 28 minutes.
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		Duration: 28 * 60,
		IdleMin:  5, IdleMax: 25,
		ActiveMin: 2, ActiveMax: 4,
		PowerMin: 12, PowerMax: 16,
		V:    12,
		Seed: 2,
	}
}

// Validate reports configuration errors.
func (c SyntheticConfig) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("workload: non-positive duration %v", c.Duration)
	case c.IdleMin < 0 || c.IdleMax <= c.IdleMin:
		return fmt.Errorf("workload: bad idle bounds [%v, %v]", c.IdleMin, c.IdleMax)
	case c.ActiveMin <= 0 || c.ActiveMax <= c.ActiveMin:
		return fmt.Errorf("workload: bad active bounds [%v, %v]", c.ActiveMin, c.ActiveMax)
	case c.PowerMin <= 0 || c.PowerMax <= c.PowerMin:
		return fmt.Errorf("workload: bad power bounds [%v, %v]", c.PowerMin, c.PowerMax)
	case c.V <= 0:
		return fmt.Errorf("workload: non-positive voltage %v", c.V)
	}
	return nil
}

// Synthetic generates the random-slot trace of Experiment 2.
func Synthetic(cfg SyntheticConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := numeric.NewRNG(cfg.Seed)
	tr := &Trace{Name: fmt.Sprintf("synthetic(seed=%d)", cfg.Seed)}
	var elapsed float64
	for elapsed < cfg.Duration {
		if len(tr.Slots) == MaxSlots {
			return nil, errTooLong(cfg.Duration)
		}
		s := Slot{
			Idle:          rng.Uniform(cfg.IdleMin, cfg.IdleMax),
			Active:        rng.Uniform(cfg.ActiveMin, cfg.ActiveMax),
			ActiveCurrent: rng.Uniform(cfg.PowerMin, cfg.PowerMax) / cfg.V,
		}
		tr.Slots = append(tr.Slots, s)
		elapsed += s.Idle + s.Active
	}
	return tr, nil
}

// Periodic returns a fully deterministic trace of n identical slots —
// useful for tests and for reproducing the §3.2 motivational example as a
// runtime workload.
func Periodic(n int, idle, active, activeCurrent float64) *Trace {
	tr := &Trace{Name: "periodic"}
	for k := 0; k < n; k++ {
		tr.Slots = append(tr.Slots, Slot{Idle: idle, Active: active, ActiveCurrent: activeCurrent})
	}
	return tr
}
