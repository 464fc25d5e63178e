package fcdpm_test

import (
	"fmt"

	"fcdpm"
)

// Example is the README quick start: FC-DPM over the paper's
// Experiment 1 camcorder trace on the 6 A-s supercapacitor.
func Example() {
	sys := fcdpm.PaperSystem()          // 12 V, ηs = 0.45 − 0.13·IF, range [0.1, 1.2] A
	dev := fcdpm.Camcorder()            // the paper's Fig 6 DVD camcorder
	trace, _ := fcdpm.CamcorderTrace(1) // 28-min MPEG encode/write workload

	res, _ := fcdpm.Run(fcdpm.SimConfig{
		Sys: sys, Dev: dev,
		Store:  fcdpm.MustSuperCap(6, 1), // 100 mA-min supercap at a 1 A-s reserve
		Trace:  trace,
		Policy: fcdpm.NewFCDPM(sys, dev), // or NewConv / NewASAP / NewFlat
	})
	fmt.Printf("fuel %.1f A-s, lifetime on 3600 A-s of H2: %.0f s\n",
		res.Fuel, res.Lifetime(3600))
	// Output:
	// fuel 873.2 A-s, lifetime on 3600 A-s of H2: 8207 s
}

// ExampleOptimizeSlot reproduces the paper's §3.2 motivational example:
// the fuel-optimal FC output for a 20 s idle at 0.2 A followed by a 10 s
// active burst at 1.2 A is the demand-weighted average current (Eq 11).
func ExampleOptimizeSlot() {
	sys := fcdpm.PaperSystem()
	set, err := fcdpm.OptimizeSlot(sys, 200, fcdpm.OptSlot{
		Ti: 20, IldI: 0.2,
		Ta: 10, IldA: 1.2,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("IF = %.3f A\n", set.IFi)
	fmt.Printf("Ifc = %.3f A\n", sys.StackCurrent(set.IFi))
	fmt.Printf("fuel = %.2f A-s\n", set.Fuel)
	// Output:
	// IF = 0.533 A
	// Ifc = 0.448 A
	// fuel = 13.45 A-s
}

// ExampleSystem_StackCurrent evaluates the paper's Eq 4 fuel map at the
// top of the load-following range — the Conv-DPM operating point.
func ExampleSystem_StackCurrent() {
	sys := fcdpm.PaperSystem()
	fmt.Printf("Ifc(1.2 A) = %.3f A\n", sys.StackCurrent(1.2))
	fmt.Printf("Ifc(0.2 A) = %.3f A\n", sys.StackCurrent(0.2))
	// Output:
	// Ifc(1.2 A) = 1.306 A
	// Ifc(0.2 A) = 0.151 A
}

// ExampleDevice_BreakEven shows the energy-derived break-even times of
// the paper's two devices.
func ExampleDevice_BreakEven() {
	fmt.Printf("camcorder Tbe = %.0f s\n", fcdpm.Camcorder().BreakEven())
	fmt.Printf("Exp 2 device Tbe = %.0f s\n", fcdpm.SyntheticDevice().BreakEven())
	// Output:
	// camcorder Tbe = 1 s
	// Exp 2 device Tbe = 10 s
}

// ExampleRun simulates one fully deterministic periodic workload under
// FC-DPM and reports the fuel relative to the Conv-DPM baseline.
func ExampleRun() {
	sys := fcdpm.PaperSystem()
	dev := fcdpm.Camcorder()
	trace := fcdpm.PeriodicTrace(50, 14, 3.03, 14.65/12)

	run := func(p fcdpm.Policy) float64 {
		res, err := fcdpm.Run(fcdpm.SimConfig{
			Sys: sys, Dev: dev,
			Store: fcdpm.MustSuperCap(6, 1), Trace: trace, Policy: p,
		})
		if err != nil {
			panic(err)
		}
		return res.AvgFuelRate()
	}
	conv := run(fcdpm.NewConv(sys))
	fc := run(fcdpm.NewFCDPM(sys, dev))
	fmt.Printf("FC-DPM uses %.0f%% of Conv-DPM's fuel\n", 100*fc/conv)
	// Output:
	// FC-DPM uses 30% of Conv-DPM's fuel
}

// ExampleOptimalTimeout shows the distribution-optimal timeout collapsing
// to "sleep immediately" when every idle period is long.
func ExampleOptimalTimeout() {
	dev := fcdpm.Camcorder()
	tau := fcdpm.OptimalTimeout(dev, []float64{120, 90, 300})
	fmt.Printf("optimal timeout = %.0f s\n", tau)
	// Output:
	// optimal timeout = 0 s
}
