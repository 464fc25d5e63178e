package exp

import (
	"context"
	"fmt"

	"fcdpm/internal/device"
	"fcdpm/internal/dvs"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/policy"
	"fcdpm/internal/sim"
	"fcdpm/internal/storage"
)

// DVSRow is one operating point of the DVS study.
type DVSRow struct {
	Level     int
	FreqMHz   float64
	ExecTime  float64 // s per job
	LoadA     float64 // active rail current
	ChargePer float64 // load A-s per period
	ASAPRate  float64 // avg stack current under ASAP-DPM
	FCRate    float64 // avg stack current under FC-DPM
}

// DVSStudy reproduces the prior-work [10] observation on top of the full
// simulator: it runs a periodic task at every feasible processor speed
// under both ASAP-DPM and FC-DPM and reports where each source policy's
// fuel optimum lands relative to the classic energy optimum.
type DVSStudy struct {
	Rows []DVSRow
	// EnergyOptimal is the level minimizing load charge per period.
	EnergyOptimal int
	// ASAPOptimal and FCOptimal are the levels minimizing measured fuel
	// under each source policy.
	ASAPOptimal, FCOptimal int
}

// dvsDevice is the embedded platform hosting the DVS processor: modest
// standby/sleep currents and quick transitions, so the speed choice —
// not the sleep machinery — dominates the comparison.
func dvsDevice() *device.Model {
	return &device.Model{
		Name:  "dvs platform",
		V:     12,
		Isdb:  0.25,
		Islp:  0.05,
		TauPD: 0.2, IPD: 0.25,
		TauWU: 0.2, IWU: 0.25,
	}
}

// RunDVSStudy executes the study for the given processor and task.
func RunDVSStudy(ctx context.Context, proc *dvs.Processor, task dvs.Task) (*DVSStudy, error) {
	if err := proc.Validate(); err != nil {
		return nil, err
	}
	if err := task.Validate(); err != nil {
		return nil, err
	}
	dev := dvsDevice()
	sys := fuelcell.PaperSystem()
	study := &DVSStudy{EnergyOptimal: -1, ASAPOptimal: -1, FCOptimal: -1}
	study.EnergyOptimal = dvs.EnergyOptimalLevel(proc, task, dev.Islp)

	bestASAP, bestFC := -1.0, -1.0
	for k := range proc.Levels {
		if !proc.Feasible(task, k) {
			continue
		}
		trace, err := proc.Trace(task, k)
		if err != nil {
			return nil, err
		}
		run := func(p sim.Policy) (*sim.Result, error) {
			return sim.RunContext(ctx, sim.Config{
				Sys: sys, Dev: dev,
				Store:  storage.MustSuperCap(6, 1),
				Trace:  trace,
				Policy: p,
			})
		}
		asap, err := run(policy.NewASAP(sys))
		if err != nil {
			return nil, fmt.Errorf("exp: dvs level %d ASAP: %w", k, err)
		}
		fc, err := run(policy.NewFCDPM(sys, dev))
		if err != nil {
			return nil, fmt.Errorf("exp: dvs level %d FC-DPM: %w", k, err)
		}
		row := DVSRow{
			Level:     k,
			FreqMHz:   proc.Levels[k].Freq / 1e6,
			ExecTime:  proc.ExecTime(task, k),
			LoadA:     proc.Current(k),
			ChargePer: proc.ChargePerPeriod(task, k, dev.Islp),
			ASAPRate:  asap.AvgFuelRate(),
			FCRate:    fc.AvgFuelRate(),
		}
		study.Rows = append(study.Rows, row)
		if bestASAP < 0 || row.ASAPRate < bestASAP {
			bestASAP = row.ASAPRate
			study.ASAPOptimal = k
		}
		if bestFC < 0 || row.FCRate < bestFC {
			bestFC = row.FCRate
			study.FCOptimal = k
		}
	}
	if len(study.Rows) == 0 {
		return nil, fmt.Errorf("exp: no feasible DVS level for the task")
	}
	return study, nil
}
