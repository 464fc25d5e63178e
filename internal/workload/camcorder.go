package workload

import (
	"fmt"
	"math"

	"fcdpm/internal/device"
	"fcdpm/internal/numeric"
)

// CamcorderConfig parameterizes the MPEG encode/write trace generator that
// substitutes for the paper's real 28-minute DVD-camcorder trace (see
// DESIGN.md §2). The camcorder encodes video into a 16 MB buffer (idle
// period for the DVD drive, 8–20 s depending on MPEG frame characteristics)
// and then writes the buffer to disc at 5.28 MB/s (active period, 3.03 s).
type CamcorderConfig struct {
	// Duration is the total trace length in seconds (paper: 28 min).
	Duration float64
	// BufferMB and WriteMBps set the active period: Active = BufferMB/WriteMBps.
	BufferMB, WriteMBps float64
	// FrameRate is the encoder frame rate in frames/s.
	FrameRate float64
	// GOPLength and GOPPattern describe the MPEG group-of-pictures: an I
	// frame every GOPLength frames with P frames every Mth position and B
	// frames between (classic IBBPBBP...).
	GOPLength, M int
	// MeanIBits is the average I-frame size in bits; P and B frames are
	// scaled fractions of it.
	MeanIBits float64
	// PFraction and BFraction scale P/B frame sizes relative to I.
	PFraction, BFraction float64
	// ComplexityWalk is the per-GOP scene-complexity random-walk step as a
	// fraction of the current complexity; complexity is clamped so idle
	// periods stay within [MinIdle, MaxIdle].
	ComplexityWalk float64
	// SceneCutProb is the per-slot probability of a scene cut, which
	// re-draws the complexity uniformly over its admissible range —
	// modelling the abrupt bitrate changes real MPEG encoders see at
	// shot boundaries.
	SceneCutProb float64
	// MinIdle and MaxIdle bound the idle-period (buffer-fill) length
	// (paper: 8 s to 20 s).
	MinIdle, MaxIdle float64
	// Seed drives the deterministic generator.
	Seed uint64
}

// DefaultCamcorderConfig returns the Experiment 1 configuration.
func DefaultCamcorderConfig() CamcorderConfig {
	return CamcorderConfig{
		Duration:       28 * 60,
		BufferMB:       16,
		WriteMBps:      5.28,
		FrameRate:      30,
		GOPLength:      15,
		M:              3,
		MeanIBits:      400e3,
		PFraction:      0.45,
		BFraction:      0.20,
		ComplexityWalk: 0.18,
		SceneCutProb:   0.08,
		MinIdle:        8,
		MaxIdle:        20,
		Seed:           1,
	}
}

// Validate reports configuration errors.
func (c CamcorderConfig) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("workload: non-positive duration %v", c.Duration)
	case c.BufferMB <= 0 || c.WriteMBps <= 0:
		return fmt.Errorf("workload: buffer/write rate must be positive")
	case c.FrameRate <= 0:
		return fmt.Errorf("workload: non-positive frame rate %v", c.FrameRate)
	case c.GOPLength < 1 || c.M < 1:
		return fmt.Errorf("workload: bad GOP structure N=%d M=%d", c.GOPLength, c.M)
	case c.MeanIBits <= 0:
		return fmt.Errorf("workload: non-positive I-frame size")
	case c.MinIdle <= 0 || c.MaxIdle <= c.MinIdle:
		return fmt.Errorf("workload: bad idle bounds [%v, %v]", c.MinIdle, c.MaxIdle)
	case c.SceneCutProb < 0 || c.SceneCutProb > 1:
		return fmt.Errorf("workload: scene-cut probability %v outside [0,1]", c.SceneCutProb)
	}
	return nil
}

// Camcorder generates the MPEG encode/write trace. The encoder produces
// frames whose sizes follow the GOP structure modulated by a slowly varying
// scene complexity plus per-frame noise; the idle period of a slot is the
// time for the accumulated bitstream to fill the buffer, clamped to the
// configured bounds; every active period writes the buffer at the DVD
// speed with the RUN-mode current.
func Camcorder(cfg CamcorderConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := numeric.NewRNG(cfg.Seed)
	tr := &Trace{Name: fmt.Sprintf("camcorder-mpeg(seed=%d)", cfg.Seed)}

	active := cfg.BufferMB / cfg.WriteMBps
	bufferBits := cfg.BufferMB * 8e6

	// The complexity level that fills the buffer in the middle of the
	// idle band, so the walk starts centred.
	midIdle := (cfg.MinIdle + cfg.MaxIdle) / 2
	complexity := 1.0
	// Bits per second at complexity 1.
	gopBits := cfg.gopBits()
	bps1 := gopBits * cfg.FrameRate / float64(cfg.GOPLength)
	complexity = bufferBits / (bps1 * midIdle)

	minC := bufferBits / (bps1 * cfg.MaxIdle)
	maxC := bufferBits / (bps1 * cfg.MinIdle)

	var elapsed float64
	for elapsed < cfg.Duration {
		if len(tr.Slots) == MaxSlots {
			return nil, errTooLong(cfg.Duration)
		}
		// Scene cut: a shot boundary re-draws the complexity outright;
		// otherwise it random-walks.
		if rng.Float64() < cfg.SceneCutProb {
			complexity = rng.Uniform(minC, maxC)
		} else {
			complexity *= 1 + cfg.ComplexityWalk*(2*rng.Float64()-1)
		}
		complexity = numeric.Clamp(complexity, minC, maxC)

		// Accumulate frames until the buffer fills.
		var bits, seconds float64
		frame := 0
		for bits < bufferBits {
			fb := cfg.frameBits(frame, complexity, rng)
			bits += fb
			seconds += 1 / cfg.FrameRate
			frame++
			if seconds > 2*cfg.MaxIdle {
				break // safety: cannot happen with clamped complexity
			}
		}
		idle := numeric.Clamp(seconds, cfg.MinIdle, cfg.MaxIdle)
		tr.Slots = append(tr.Slots, Slot{
			Idle:          idle,
			Active:        active,
			ActiveCurrent: device.CamcorderRunCurrent,
		})
		elapsed += idle + active
	}
	return tr, nil
}

// gopBits returns the bit budget of one GOP at complexity 1.
func (c CamcorderConfig) gopBits() float64 {
	var bits float64
	for f := 0; f < c.GOPLength; f++ {
		switch c.frameType(f) {
		case 'I':
			bits += c.MeanIBits
		case 'P':
			bits += c.MeanIBits * c.PFraction
		default:
			bits += c.MeanIBits * c.BFraction
		}
	}
	return bits
}

// frameType returns the MPEG frame type at GOP position f.
func (c CamcorderConfig) frameType(f int) byte {
	pos := f % c.GOPLength
	if pos == 0 {
		return 'I'
	}
	if pos%c.M == 0 {
		return 'P'
	}
	return 'B'
}

// frameBits draws the size of one frame: the type budget scaled by scene
// complexity with ±15 % per-frame noise.
func (c CamcorderConfig) frameBits(f int, complexity float64, rng *numeric.RNG) float64 {
	var base float64
	switch c.frameType(f) {
	case 'I':
		base = c.MeanIBits
	case 'P':
		base = c.MeanIBits * c.PFraction
	default:
		base = c.MeanIBits * c.BFraction
	}
	noise := 1 + 0.15*(2*rng.Float64()-1)
	return math.Max(1, base*complexity*noise)
}
