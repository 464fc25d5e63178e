package sim

import (
	"math"
	"testing"

	"fcdpm/internal/device"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

func TestSlewZeroIsIdeal(t *testing.T) {
	cfg := baseConfig(&followPolicy{fuelcell.PaperSystem()})
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SlewRate = 0
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fuel != b.Fuel {
		t.Fatalf("zero slew rate changed fuel: %v vs %v", a.Fuel, b.Fuel)
	}
}

func TestSlewPreservesDuration(t *testing.T) {
	cfg := baseConfig(&followPolicy{fuelcell.PaperSystem()})
	ideal, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SlewRate = 0.2
	slew, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ideal.Duration-slew.Duration) > 1e-6 {
		t.Fatalf("slew changed duration: %v vs %v", ideal.Duration, slew.Duration)
	}
}

func TestSlewCausesTrackingDeficit(t *testing.T) {
	// A load-following policy with a tiny storage and a slow FC: the
	// up-ramp into each active period under-delivers and the storage
	// must cover it; with the storage nearly empty, deficits appear.
	sys := fuelcell.PaperSystem()
	trace := workload.Periodic(10, 14, 3.03, device.CamcorderRunCurrent)
	run := func(rate float64) *Result {
		cfg := baseConfig(&followPolicy{sys})
		cfg.Trace = trace
		cfg.Store = smallStore()
		cfg.SlewRate = rate
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ideal := run(0)
	slew := run(0.1) // 0.1 A/s: a 1 A swing takes 10 s
	if slew.Deficit <= ideal.Deficit {
		t.Fatalf("slew-limited tracking should strand the load: deficit %v vs ideal %v",
			slew.Deficit, ideal.Deficit)
	}
}

func TestSlewBarelyAffectsFlatPolicy(t *testing.T) {
	// A flat-output policy never ramps after startup: slew limiting must
	// leave its fuel essentially unchanged.
	sys := fuelcell.PaperSystem()
	flat := &flatPolicy{iF: 0.5}
	cfg := baseConfig(flat)
	ideal, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SlewRate = 0.05
	slewed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(slewed.Fuel-ideal.Fuel) / ideal.Fuel; rel > 1e-9 {
		t.Fatalf("flat policy fuel changed by %v under slew", rel)
	}
	_ = sys
}

// flatPolicy holds one constant output (local to slew tests).
type flatPolicy struct{ iF float64 }

func (p *flatPolicy) Name() string                     { return "flat-test" }
func (p *flatPolicy) Reset(cmax, chargeTarget float64) {}
func (p *flatPolicy) PlanIdle(SlotInfo)                {}
func (p *flatPolicy) PlanActive(SlotInfo)              {}
func (p *flatPolicy) SegmentPlan(seg Segment, charge float64, buf []Piece) []Piece {
	return append(buf, Piece{IF: p.iF, Dur: seg.Dur})
}

// smallStore returns a 1 A-s supercap starting at 0.5.
func smallStore() storage.Storage { return storage.MustSuperCap(1, 0.5) }

func TestSlewRampProfileIsMonotone(t *testing.T) {
	cfg := baseConfig(&followPolicy{fuelcell.PaperSystem()})
	cfg.Trace = workload.Periodic(2, 10, 3, 1.2)
	cfg.SlewRate = 0.3
	cfg.Record = RecordFull
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the first large upward transition and check the recorded ramp
	// is staircase-monotone rather than a step.
	sawRamp := false
	for i := 1; i < len(res.Profile); i++ {
		d := res.Profile[i].IF - res.Profile[i-1].IF
		if d > 0 && d < 0.3 { // sub-step increments, not a full jump
			sawRamp = true
			break
		}
	}
	if !sawRamp {
		t.Fatal("no ramp sub-steps recorded in the profile")
	}
}
