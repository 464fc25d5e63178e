package sim

import (
	"math"
	"testing"
	"testing/quick"

	"fcdpm/internal/device"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/numeric"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

// TestEnergyBalanceProperty verifies the fundamental conservation law on
// randomized configurations: delivered energy equals load energy plus the
// storage delta, bleed, and deficit corrections — for every policy shape,
// DPM mode, and slew rate.
func TestEnergyBalanceProperty(t *testing.T) {
	sys := fuelcell.PaperSystem()
	f := func(seed uint64) bool {
		rng := numeric.NewRNG(seed)
		// Random small trace.
		n := 2 + rng.Intn(8)
		tr := &workload.Trace{Name: "prop"}
		for k := 0; k < n; k++ {
			tr.Slots = append(tr.Slots, workload.Slot{
				Idle:          rng.Uniform(0.5, 25),
				Active:        rng.Uniform(0.5, 6),
				ActiveCurrent: rng.Uniform(0.3, 1.4),
			})
		}
		q0 := rng.Uniform(0, 6)
		var pol Policy
		switch rng.Intn(2) {
		case 0:
			pol = &maxPolicy{sys}
		default:
			pol = &followPolicy{sys}
		}
		cfg := Config{
			Sys:    sys,
			Dev:    device.Camcorder(),
			Store:  storage.MustSuperCap(6, q0),
			Trace:  tr,
			Policy: pol,
			DPM:    DPMMode(rng.Intn(5)),
		}
		if rng.Intn(2) == 0 {
			cfg.SlewRate = rng.Uniform(0.05, 1)
		}
		res, err := Run(cfg)
		if err != nil {
			return false
		}
		lhs := res.DeliveredEnergy
		rhs := res.LoadEnergy + sys.VF*((res.FinalCharge-q0)+res.Bled-res.Deficit)
		if !numeric.AlmostEqual(lhs, rhs, 1e-6) {
			t.Logf("seed %d: delivered %v vs accounted %v", seed, lhs, rhs)
			return false
		}
		// Fuel breakdown always sums to the total.
		var sum float64
		for _, v := range res.FuelByKind {
			sum += v
		}
		if !numeric.AlmostEqual(sum, res.Fuel, 1e-9) {
			t.Logf("seed %d: breakdown %v vs fuel %v", seed, sum, res.Fuel)
			return false
		}
		// Duration covers at least the trace time.
		if res.Duration < tr.Duration()-1e-9 {
			t.Logf("seed %d: duration %v below trace %v", seed, res.Duration, tr.Duration())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestChargeBoundsProperty: the storage trajectory never escapes [0, Cmax]
// under random programs (checked through recorded charge samples).
func TestChargeBoundsProperty(t *testing.T) {
	sys := fuelcell.PaperSystem()
	f := func(seed uint64) bool {
		rng := numeric.NewRNG(seed ^ 0xabcdef)
		tr := &workload.Trace{Name: "prop"}
		for k := 0; k < 5; k++ {
			tr.Slots = append(tr.Slots, workload.Slot{
				Idle:          rng.Uniform(1, 20),
				Active:        rng.Uniform(1, 5),
				ActiveCurrent: rng.Uniform(0.2, 1.4),
			})
		}
		cfg := Config{
			Sys:    sys,
			Dev:    device.Synthetic(),
			Store:  storage.MustSuperCap(4, rng.Uniform(0, 4)),
			Trace:  tr,
			Policy: &maxPolicy{sys},
			Record: RecordFull,
		}
		res, err := Run(cfg)
		if err != nil {
			return false
		}
		for _, c := range res.Charges {
			if c.Q < -1e-9 || c.Q > 4+1e-9 {
				return false
			}
		}
		return !math.IsNaN(res.Fuel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
