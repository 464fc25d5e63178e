// Package dvs implements the dynamic-voltage-scaling companion of the
// paper's prior work [10] ("Extending the lifetime of fuel cell based
// hybrid systems", DAC 2006): a processor with discrete voltage/frequency
// levels executing a periodic task, where the speed choice changes the
// load profile the hybrid power source must serve.
//
// The point the prior work makes — and exp.RunDVSStudy measures by
// simulating each level's trace — is that the speed minimizing the
// *embedded system's* energy is not the speed minimizing *fuel*: under a
// load-following source, the convex fuel map penalizes the high current of
// fast, bursty execution beyond its energy cost, shifting the fuel-optimal
// operating point toward lower speeds.
//
// The package emits standard workload.Trace values, so every fcdpm policy,
// predictor, and experiment runs unchanged on DVS-shaped loads.
package dvs

import (
	"fmt"
	"math"

	"fcdpm/internal/workload"
)

// Level is one processor operating point.
type Level struct {
	// Freq is the clock frequency in Hz.
	Freq float64
	// Voltage is the core supply voltage in volts.
	Voltage float64
}

// Processor models a DVS-capable processor as a load on the regulated
// 12 V rail through its own (ideal) core regulator: the rail current at an
// operating point is
//
//	I(f, V) = (Ceff·V²·f + Pleak) / Vrail
//
// — the classic α·C·V²·f dynamic power plus a fixed leakage power.
type Processor struct {
	// Name identifies the processor in reports.
	Name string
	// Levels are the supported operating points, sorted ascending by
	// frequency.
	Levels []Level
	// Ceff is the effective switched capacitance in farads.
	Ceff float64
	// LeakPower is the leakage power in watts, paid whenever the core is
	// powered (active periods only; idle states are the device model's
	// business).
	LeakPower float64
	// Rail is the supply rail voltage the hybrid source regulates (12 V
	// in the paper's system).
	Rail float64
}

// Validate reports whether the processor description is usable.
func (p *Processor) Validate() error {
	switch {
	case len(p.Levels) == 0:
		return fmt.Errorf("dvs: no operating points")
	case p.Ceff <= 0:
		return fmt.Errorf("dvs: non-positive Ceff %v", p.Ceff)
	case p.LeakPower < 0:
		return fmt.Errorf("dvs: negative leakage %v", p.LeakPower)
	case p.Rail <= 0:
		return fmt.Errorf("dvs: non-positive rail voltage %v", p.Rail)
	}
	prev := 0.0
	for k, l := range p.Levels {
		if l.Freq <= prev {
			return fmt.Errorf("dvs: level %d frequency %v not increasing", k, l.Freq)
		}
		if l.Voltage <= 0 {
			return fmt.Errorf("dvs: level %d non-positive voltage", k)
		}
		prev = l.Freq
	}
	return nil
}

// Current returns the rail current at level index k in amps.
func (p *Processor) Current(k int) float64 {
	l := p.Levels[k]
	return (p.Ceff*l.Voltage*l.Voltage*l.Freq + p.LeakPower) / p.Rail
}

// XScale600 returns a processor model in the class of the era's embedded
// application processors (five operating points, 150–600 MHz, 0.75–1.3 V),
// with Ceff and leakage chosen so the top level draws ~5.3 W at the 12 V
// rail — a plausible compute load beside the camcorder's drive electronics.
func XScale600() *Processor {
	return &Processor{
		Name: "xscale-class 600 MHz",
		Levels: []Level{
			{Freq: 150e6, Voltage: 0.75},
			{Freq: 250e6, Voltage: 0.87},
			{Freq: 400e6, Voltage: 1.00},
			{Freq: 500e6, Voltage: 1.15},
			{Freq: 600e6, Voltage: 1.30},
		},
		Ceff:      5e-9,
		LeakPower: 0.25,
		Rail:      12,
	}
}

// Task is a periodic workload: Cycles of work released every Period
// seconds, due by the end of the period.
type Task struct {
	// Cycles per job.
	Cycles float64
	// Period (= relative deadline) in seconds.
	Period float64
	// Jobs is how many periods a generated trace covers.
	Jobs int
}

// Validate reports whether the task is well-formed.
func (t Task) Validate() error {
	switch {
	case t.Cycles <= 0:
		return fmt.Errorf("dvs: non-positive cycle count %v", t.Cycles)
	case t.Period <= 0:
		return fmt.Errorf("dvs: non-positive period %v", t.Period)
	case t.Jobs < 1:
		return fmt.Errorf("dvs: need at least one job, got %d", t.Jobs)
	}
	return nil
}

// ExecTime returns the job execution time at level k.
func (p *Processor) ExecTime(t Task, k int) float64 {
	return t.Cycles / p.Levels[k].Freq
}

// Feasible reports whether level k meets the task deadline.
func (p *Processor) Feasible(t Task, k int) bool {
	return p.ExecTime(t, k) <= t.Period
}

// Trace generates the task-slot workload produced by running the task at
// level k: each period becomes one slot with an active burst of
// ExecTime(k) at the level's rail current and the remaining slack as idle.
// It errors if the level misses the deadline, and with a
// *workload.ValidationError if the task has more jobs than
// workload.MaxSlots.
func (p *Processor) Trace(t Task, k int) (*workload.Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if k < 0 || k >= len(p.Levels) {
		return nil, fmt.Errorf("dvs: level index %d out of range", k)
	}
	if !p.Feasible(t, k) {
		return nil, fmt.Errorf("dvs: level %d (%.0f MHz) misses the %.2fs deadline (exec %.2fs)",
			k, p.Levels[k].Freq/1e6, t.Period, p.ExecTime(t, k))
	}
	if t.Jobs > workload.MaxSlots {
		return nil, &workload.ValidationError{Slot: workload.MaxSlots, Field: "duration", Value: float64(t.Jobs) * t.Period}
	}
	exec := p.ExecTime(t, k)
	tr := &workload.Trace{Name: fmt.Sprintf("%s @L%d", p.Name, k)}
	for j := 0; j < t.Jobs; j++ {
		tr.Slots = append(tr.Slots, workload.Slot{
			Idle:          t.Period - exec,
			Active:        exec,
			ActiveCurrent: p.Current(k),
		})
	}
	return tr, nil
}

// ChargePerPeriod returns the load charge (A-s) one period consumes at
// level k, with the device idling at idleCurrent during the slack — the
// quantity classic DVS minimizes (load energy / rail voltage).
func (p *Processor) ChargePerPeriod(t Task, k int, idleCurrent float64) float64 {
	exec := p.ExecTime(t, k)
	return p.Current(k)*exec + idleCurrent*(t.Period-exec)
}

// EnergyOptimalLevel returns the feasible level minimizing load charge per
// period, with ties broken toward the lower index. It returns -1 when no
// level is feasible.
func EnergyOptimalLevel(p *Processor, t Task, idleCurrent float64) int {
	best, bestVal := -1, math.Inf(1)
	for k := range p.Levels {
		if !p.Feasible(t, k) {
			continue
		}
		if v := p.ChargePerPeriod(t, k, idleCurrent); v < bestVal {
			best, bestVal = k, v
		}
	}
	return best
}
