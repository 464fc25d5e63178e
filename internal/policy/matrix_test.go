package policy

import (
	"fmt"
	"testing"

	"fcdpm/internal/device"
	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/sim"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

// TestPolicyDeviceStorageMatrix smoke-tests every policy against every
// device preset, storage model, and DPM mode: each combination must run to
// completion with finite, non-negative accounting and an intact energy
// balance. This is the safety net that catches interface misuse when a new
// policy, device, or storage model lands.
func TestPolicyDeviceStorageMatrix(t *testing.T) {
	sys := fuelcell.PaperSystem()

	devices := []*device.Model{device.Camcorder(), device.Synthetic(), device.HDD()}
	storages := []func() storage.Storage{
		func() storage.Storage { return storage.MustSuperCap(6, 1) },
		func() storage.Storage {
			b, err := storage.NewLiIon(6, 0.6, 0.05, 1)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	}
	policies := []func() sim.Policy{
		func() sim.Policy { return NewConv(sys) },
		func() sim.Policy { return NewASAP(sys) },
		func() sim.Policy { return NewFCDPM(sys, device.Camcorder()) },
		func() sim.Policy {
			return must(NewFCDPMQuantized(sys, device.Camcorder(), fcopt.UniformLevels(sys, 6)))
		},
		func() sim.Policy { return must(NewFCDPMBanded(sys, device.Camcorder(), 0.05)) },
		func() sim.Policy { return must(NewMPC(sys, device.Camcorder(), 2)) },
		func() sim.Policy { return NewFlat(sys, 0.5) },
		func() sim.Policy { return NewBatteryAware(sys) },
	}
	modes := []sim.DPMMode{sim.DPMPredictive, sim.DPMTimeout, sim.DPMAlwaysSleep}
	trace := workload.Periodic(6, 12, 3, 1.2)

	for _, dev := range devices {
		for si, mkStore := range storages {
			for _, mkPol := range policies {
				for _, mode := range modes {
					pol := mkPol()
					name := fmt.Sprintf("%s/%s/store%d/%s", pol.Name(), dev.Name, si, mode)
					t.Run(name, func(t *testing.T) {
						res, err := sim.Run(sim.Config{
							Sys: sys, Dev: dev,
							Store:  mkStore(),
							Trace:  trace,
							Policy: pol,
							DPM:    mode,
						})
						if err != nil {
							t.Fatalf("run failed: %v", err)
						}
						if res.Fuel <= 0 || res.Duration <= 0 {
							t.Fatalf("degenerate result: fuel=%v dur=%v", res.Fuel, res.Duration)
						}
						if res.Bled < 0 || res.Deficit < 0 {
							t.Fatalf("negative accounting: %+v", res)
						}
						if res.FinalCharge < -1e-9 || res.FinalCharge > 6+1e-9 {
							t.Fatalf("final charge out of bounds: %v", res.FinalCharge)
						}
					})
				}
			}
		}
	}
}
