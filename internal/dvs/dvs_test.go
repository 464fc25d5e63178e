package dvs

import (
	"math"
	"testing"
)

func task() Task { return Task{Cycles: 3e8, Period: 4, Jobs: 10} }

func TestProcessorValidate(t *testing.T) {
	if err := XScale600().Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	bad := []*Processor{
		{Ceff: 1e-9, Rail: 12},                                           // no levels
		{Levels: []Level{{1e8, 1}}, Ceff: 0, Rail: 12},                   // zero Ceff
		{Levels: []Level{{1e8, 1}}, Ceff: 1e-9, Rail: 0},                 // zero rail
		{Levels: []Level{{1e8, 1}}, Ceff: 1e-9, Rail: 12, LeakPower: -1}, // negative leak
		{Levels: []Level{{2e8, 1}, {1e8, 1}}, Ceff: 1e-9, Rail: 12},      // not increasing
		{Levels: []Level{{1e8, 0}}, Ceff: 1e-9, Rail: 12},                // zero voltage
	}
	for k, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid processor accepted", k)
		}
	}
}

func TestCurrentScalesWithVSquaredF(t *testing.T) {
	p := XScale600()
	// Current must strictly increase with level (V and f both rise).
	prev := 0.0
	for k := range p.Levels {
		c := p.Current(k)
		if c <= prev {
			t.Fatalf("current not increasing at level %d: %v", k, c)
		}
		prev = c
	}
	// Check the physics at the top level: (5n·1.3²·600M + 0.25)/12.
	want := (5e-9*1.3*1.3*600e6 + 0.25) / 12
	if got := p.Current(4); math.Abs(got-want) > 1e-12 {
		t.Fatalf("top-level current = %v, want %v", got, want)
	}
}

func TestExecTimeAndFeasibility(t *testing.T) {
	p := XScale600()
	tk := task() // 3e8 cycles
	if got := p.ExecTime(tk, 0); math.Abs(got-2) > 1e-12 {
		t.Fatalf("exec at 150 MHz = %v, want 2", got)
	}
	if got := p.ExecTime(tk, 4); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("exec at 600 MHz = %v, want 0.5", got)
	}
	for k := range p.Levels {
		if !p.Feasible(tk, k) {
			t.Errorf("level %d should meet the 4 s deadline", k)
		}
	}
	tight := Task{Cycles: 3e8, Period: 0.6, Jobs: 1}
	if p.Feasible(tight, 0) {
		t.Error("150 MHz cannot meet a 0.6 s deadline for 3e8 cycles")
	}
	if !p.Feasible(tight, 4) {
		t.Error("600 MHz meets the 0.6 s deadline")
	}
}

func TestTraceGeneration(t *testing.T) {
	p := XScale600()
	tk := task()
	tr, err := p.Trace(tk, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 10 {
		t.Fatalf("slots = %d", tr.Len())
	}
	exec := p.ExecTime(tk, 2)
	for _, s := range tr.Slots {
		if math.Abs(s.Active-exec) > 1e-12 || math.Abs(s.Idle-(4-exec)) > 1e-12 {
			t.Fatalf("slot = %+v", s)
		}
		if math.Abs(s.ActiveCurrent-p.Current(2)) > 1e-12 {
			t.Fatalf("current = %v", s.ActiveCurrent)
		}
	}
	if _, err := p.Trace(Task{Cycles: 3e8, Period: 0.6, Jobs: 1}, 0); err == nil {
		t.Error("infeasible level accepted")
	}
	if _, err := p.Trace(tk, 9); err == nil {
		t.Error("out-of-range level accepted")
	}
	if _, err := p.Trace(Task{}, 0); err == nil {
		t.Error("invalid task accepted")
	}
}

func TestEnergyOptimalPrefersSlowWhenLeakageSmall(t *testing.T) {
	p := XScale600()
	p.LeakPower = 0 // no leakage: V² says run as slow as possible
	k := EnergyOptimalLevel(p, task(), 0.2)
	if k != 0 {
		t.Fatalf("energy-optimal level = %d, want 0 (slowest)", k)
	}
}

func TestEnergyOptimalRaceToIdleUnderHeavyLeak(t *testing.T) {
	p := XScale600()
	p.LeakPower = 20 // absurd leakage: finish fast and let the slack idle
	k := EnergyOptimalLevel(p, task(), 0.2)
	if k != len(p.Levels)-1 {
		t.Fatalf("energy-optimal level = %d, want fastest under heavy leakage", k)
	}
}

func TestEnergyOptimalInfeasible(t *testing.T) {
	p := XScale600()
	impossible := Task{Cycles: 1e12, Period: 0.1, Jobs: 1}
	if k := EnergyOptimalLevel(p, impossible, 0.2); k != -1 {
		t.Fatalf("infeasible task returned level %d", k)
	}
}

func TestChargePerPeriodPositive(t *testing.T) {
	p := XScale600()
	tk := task()
	for k := range p.Levels {
		if q := p.ChargePerPeriod(tk, k, 0.2); q <= 0 {
			t.Fatalf("level %d: non-positive charge %v", k, q)
		}
	}
}
