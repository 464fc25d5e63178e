package workload

import (
	"fmt"

	"fcdpm/internal/numeric"
)

// BurstyConfig parameterizes a two-regime (Markov-modulated) workload: the
// system alternates between a BUSY regime of short idles and a CALM regime
// of long idles, with geometric dwell times. Unlike the i.i.d. generators,
// consecutive idle lengths are strongly correlated — the structure that
// history-based predictors (Markov chain, learning tree) exist to exploit.
type BurstyConfig struct {
	// Duration is the total trace length in seconds.
	Duration float64
	// BusyIdleMin/Max and CalmIdleMin/Max bound the uniform idle lengths
	// within each regime.
	BusyIdleMin, BusyIdleMax float64
	CalmIdleMin, CalmIdleMax float64
	// StayProb is the per-slot probability of remaining in the current
	// regime (dwell length geometric with mean 1/(1−StayProb) slots).
	StayProb float64
	// ActiveMin and ActiveMax bound the uniform active-period length.
	ActiveMin, ActiveMax float64
	// PowerMin and PowerMax bound the uniform active power (watts at V).
	PowerMin, PowerMax float64
	// V converts power to current.
	V float64
	// Seed drives the deterministic generator.
	Seed uint64
}

// DefaultBurstyConfig returns a configuration against the Experiment 2
// device (Tbe = 10 s): busy idles 2–6 s (never sleep-worthy), calm idles
// 20–40 s (always sleep-worthy), regimes lasting ~10 slots.
func DefaultBurstyConfig() BurstyConfig {
	return BurstyConfig{
		Duration:    28 * 60,
		BusyIdleMin: 2, BusyIdleMax: 6,
		CalmIdleMin: 20, CalmIdleMax: 40,
		StayProb:  0.9,
		ActiveMin: 2, ActiveMax: 4,
		PowerMin: 12, PowerMax: 16,
		V:    12,
		Seed: 4,
	}
}

// Validate reports configuration errors.
func (c BurstyConfig) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("workload: non-positive duration %v", c.Duration)
	case c.BusyIdleMin <= 0 || c.BusyIdleMax <= c.BusyIdleMin:
		return fmt.Errorf("workload: bad busy-idle bounds [%v, %v]", c.BusyIdleMin, c.BusyIdleMax)
	case c.CalmIdleMin <= c.BusyIdleMax || c.CalmIdleMax <= c.CalmIdleMin:
		return fmt.Errorf("workload: calm-idle bounds [%v, %v] must sit above busy bounds", c.CalmIdleMin, c.CalmIdleMax)
	case c.StayProb < 0 || c.StayProb >= 1:
		return fmt.Errorf("workload: stay probability %v outside [0, 1)", c.StayProb)
	case c.ActiveMin <= 0 || c.ActiveMax <= c.ActiveMin:
		return fmt.Errorf("workload: bad active bounds [%v, %v]", c.ActiveMin, c.ActiveMax)
	case c.PowerMin <= 0 || c.PowerMax <= c.PowerMin:
		return fmt.Errorf("workload: bad power bounds [%v, %v]", c.PowerMin, c.PowerMax)
	case c.V <= 0:
		return fmt.Errorf("workload: non-positive voltage %v", c.V)
	}
	return nil
}

// Bursty generates the regime-switching trace.
func Bursty(cfg BurstyConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := numeric.NewRNG(cfg.Seed)
	tr := &Trace{Name: fmt.Sprintf("bursty(seed=%d)", cfg.Seed)}
	busy := true
	var elapsed float64
	for elapsed < cfg.Duration {
		if len(tr.Slots) == MaxSlots {
			return nil, errTooLong(cfg.Duration)
		}
		if rng.Float64() >= cfg.StayProb {
			busy = !busy
		}
		var idle float64
		if busy {
			idle = rng.Uniform(cfg.BusyIdleMin, cfg.BusyIdleMax)
		} else {
			idle = rng.Uniform(cfg.CalmIdleMin, cfg.CalmIdleMax)
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
