package workload

import (
	"fmt"

	"fcdpm/internal/numeric"
)

// RackSurgeConfig parameterizes a datacenter rack workload: a dense
// baseline of short idles and steady service work, punctuated by surge
// episodes in which the active current multiplies by Intensity — the
// power-surge pattern fuel-cell-powered datacenter studies size their
// storage against. Like Bursty it is a two-regime Markov chain, but the
// regimes modulate power rather than idle length: the rack never goes
// quiet, it gets hungrier.
type RackSurgeConfig struct {
	// Duration is the total trace length in seconds.
	Duration float64
	// IdleMin and IdleMax bound the uniform inter-request gaps. Rack
	// idles are short — well under any sleep threshold — so surges
	// stress the source and storage, not the DPM policy.
	IdleMin, IdleMax float64
	// ActiveMin and ActiveMax bound the uniform service-burst length.
	ActiveMin, ActiveMax float64
	// PowerMin and PowerMax bound the uniform baseline active power
	// (watts at V) outside surge episodes.
	PowerMin, PowerMax float64
	// Intensity multiplies the active current during a surge episode.
	// 1 disables surges entirely; 2 doubles draw.
	Intensity float64
	// SurgeProb is the per-slot probability of a baseline slot starting
	// a surge episode.
	SurgeProb float64
	// StayProb is the per-slot probability of a surge episode
	// continuing (episode length geometric with mean 1/(1−StayProb)).
	StayProb float64
	// V converts power to current.
	V float64
	// Seed drives the deterministic generator.
	Seed uint64
}

// DefaultRackSurgeConfig returns a rack that is busy (idles 1–3 s,
// bursts 4–8 s) at a baseline of 15–25 W on the 12 V bus, with surge
// episodes roughly every 20 slots lasting ~5 slots at twice the draw.
func DefaultRackSurgeConfig() RackSurgeConfig {
	return RackSurgeConfig{
		Duration: 28 * 60,
		IdleMin:  1, IdleMax: 3,
		ActiveMin: 4, ActiveMax: 8,
		PowerMin: 15, PowerMax: 25,
		Intensity: 2,
		SurgeProb: 0.05,
		StayProb:  0.8,
		V:         12,
		Seed:      5,
	}
}

// Validate reports configuration errors.
func (c RackSurgeConfig) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("workload: non-positive duration %v", c.Duration)
	case c.IdleMin <= 0 || c.IdleMax <= c.IdleMin:
		return fmt.Errorf("workload: bad idle bounds [%v, %v]", c.IdleMin, c.IdleMax)
	case c.ActiveMin <= 0 || c.ActiveMax <= c.ActiveMin:
		return fmt.Errorf("workload: bad active bounds [%v, %v]", c.ActiveMin, c.ActiveMax)
	case c.PowerMin <= 0 || c.PowerMax <= c.PowerMin:
		return fmt.Errorf("workload: bad power bounds [%v, %v]", c.PowerMin, c.PowerMax)
	case c.Intensity < 1:
		return fmt.Errorf("workload: surge intensity %v below 1", c.Intensity)
	case c.SurgeProb < 0 || c.SurgeProb >= 1:
		return fmt.Errorf("workload: surge probability %v outside [0, 1)", c.SurgeProb)
	case c.StayProb < 0 || c.StayProb >= 1:
		return fmt.Errorf("workload: stay probability %v outside [0, 1)", c.StayProb)
	case c.V <= 0:
		return fmt.Errorf("workload: non-positive voltage %v", c.V)
	}
	return nil
}

// RackSurge generates the surge-modulated rack trace.
func RackSurge(cfg RackSurgeConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := numeric.NewRNG(cfg.Seed)
	tr := &Trace{Name: fmt.Sprintf("racksurge(seed=%d,x%g)", cfg.Seed, cfg.Intensity)}
	surge := false
	var elapsed float64
	for elapsed < cfg.Duration {
		if len(tr.Slots) == MaxSlots {
			return nil, errTooLong(cfg.Duration)
		}
		if surge {
			surge = rng.Float64() < cfg.StayProb
		} else {
			surge = rng.Float64() < cfg.SurgeProb
		}
		cur := rng.Uniform(cfg.PowerMin, cfg.PowerMax) / cfg.V
		if surge {
			cur *= cfg.Intensity
		}
		s := Slot{
			Idle:          rng.Uniform(cfg.IdleMin, cfg.IdleMax),
			Active:        rng.Uniform(cfg.ActiveMin, cfg.ActiveMax),
			ActiveCurrent: cur,
		}
		tr.Slots = append(tr.Slots, s)
		elapsed += s.Idle + s.Active
	}
	return tr, nil
}
