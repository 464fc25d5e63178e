package policy

import (
	"errors"
	"math"
	"testing"

	"fcdpm/internal/device"
	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/sim"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

func runPolicy(t *testing.T, p sim.Policy, trace *workload.Trace) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		Sys:    fuelcell.PaperSystem(),
		Dev:    device.Camcorder(),
		Store:  storage.MustSuperCap(6, 1),
		Trace:  trace,
		Policy: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQuantizedPolicyRuns(t *testing.T) {
	sys := fuelcell.PaperSystem()
	dev := device.Camcorder()
	trace := workload.Periodic(30, 14, 3.03, device.CamcorderRunCurrent)
	q := must(NewFCDPMQuantized(sys, dev, fcopt.UniformLevels(sys, 8)))
	res := runPolicy(t, q, trace)
	if q.Err() != nil {
		t.Fatalf("planning errors: %v", q.Err())
	}
	if res.Deficit > 0.5 {
		t.Fatalf("deficit = %v", res.Deficit)
	}
	// All profile currents on the level grid is implied by construction;
	// check the name encodes the level count.
	if res.Policy != "FC-DPM-q8" {
		t.Fatalf("name = %q", res.Policy)
	}
}

func TestQuantizedApproachesContinuous(t *testing.T) {
	sys := fuelcell.PaperSystem()
	dev := device.Camcorder()
	trace := workload.Periodic(40, 14, 3.03, device.CamcorderRunCurrent)
	cont := runPolicy(t, NewFCDPM(sys, dev), trace)
	coarse := runPolicy(t, must(NewFCDPMQuantized(sys, dev, fcopt.UniformLevels(sys, 3))), trace)
	fine := runPolicy(t, must(NewFCDPMQuantized(sys, dev, fcopt.UniformLevels(sys, 64))), trace)
	// Finer grids close the gap to the continuous policy.
	gapCoarse := coarse.Fuel - cont.Fuel
	gapFine := fine.Fuel - cont.Fuel
	if gapFine > gapCoarse+1e-6 {
		t.Fatalf("fine gap %v should not exceed coarse gap %v", gapFine, gapCoarse)
	}
	if gapFine > 0.05*cont.Fuel {
		t.Fatalf("64-level policy %v too far from continuous %v", fine.Fuel, cont.Fuel)
	}
	// Even coarse quantization should beat Conv-DPM comfortably.
	conv := runPolicy(t, NewConv(sys), trace)
	if coarse.AvgFuelRate() > 0.7*conv.AvgFuelRate() {
		t.Fatalf("coarse quantized %v not clearly beating conv %v",
			coarse.AvgFuelRate(), conv.AvgFuelRate())
	}
}

func TestQuantizedSnapUp(t *testing.T) {
	sys := fuelcell.PaperSystem()
	q := must(NewFCDPMQuantized(sys, device.Camcorder(), []float64{0.1, 0.5, 1.2}))
	cases := []struct{ in, want float64 }{
		{0.05, 0.1}, {0.1, 0.1}, {0.3, 0.5}, {0.5, 0.5}, {0.9, 1.2}, {1.3, 1.2},
	}
	for _, c := range cases {
		if got := q.snapUp(c.in); got != c.want {
			t.Errorf("snapUp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantizedConstructorErrors(t *testing.T) {
	// Level grids are user input (scenario files, flags): bad ones must
	// come back as typed ConfigErrors, not panics.
	sys := fuelcell.PaperSystem()
	for name, levels := range map[string][]float64{
		"empty":        nil,
		"out of range": {2},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := NewFCDPMQuantized(sys, device.Camcorder(), levels)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *ConfigError", err)
			}
			if ce.Param != "levels" {
				t.Fatalf("ConfigError = %+v, want Param levels", ce)
			}
		})
	}
}

func TestSchedulePolicyReplaysSettings(t *testing.T) {
	sys := fuelcell.PaperSystem()
	settings := []fcopt.Setting{
		{IFi: 0.3, IFa: 0.9},
		{IFi: 0.4, IFa: 1.0},
	}
	s := NewSchedule(sys, settings)
	s.Reset(6, 1)
	s.PlanIdle(sim.SlotInfo{K: 0})
	ps := s.SegmentPlan(sim.Segment{Kind: sim.SegStandby, Dur: 5, Load: 0.4}, 1, nil)
	if ps[0].IF != 0.3 {
		t.Fatalf("slot 0 idle IF = %v", ps[0].IF)
	}
	ps = s.SegmentPlan(sim.Segment{Kind: sim.SegActive, Dur: 3, Load: 1.2}, 3, nil)
	if ps[0].IF != 0.9 {
		t.Fatalf("slot 0 active IF = %v", ps[0].IF)
	}
	s.PlanIdle(sim.SlotInfo{K: 1})
	ps = s.SegmentPlan(sim.Segment{Kind: sim.SegSleep, Dur: 5, Load: 0.2}, 1, nil)
	if ps[0].IF != 0.4 {
		t.Fatalf("slot 1 idle IF = %v", ps[0].IF)
	}
}

func TestSchedulePolicyFallbackPastEnd(t *testing.T) {
	sys := fuelcell.PaperSystem()
	s := NewSchedule(sys, nil)
	s.Reset(6, 1)
	s.PlanIdle(sim.SlotInfo{K: 0, IdleLoad: 0.2, PredActiveCurrent: 1.22})
	ps := s.SegmentPlan(sim.Segment{Kind: sim.SegStandby, Dur: 5, Load: 0.2}, 1, nil)
	if ps[0].IF != 0.2 {
		t.Fatalf("fallback idle IF = %v, want load-follow 0.2", ps[0].IF)
	}
	s.PlanActive(sim.SlotInfo{K: 0, ActualActiveCurrent: 1.4})
	ps = s.SegmentPlan(sim.Segment{Kind: sim.SegActive, Dur: 3, Load: 1.4}, 3, nil)
	if ps[0].IF != 1.2 {
		t.Fatalf("fallback active IF = %v, want clamp 1.2", ps[0].IF)
	}
}

func TestOfflineScheduleThroughSimulator(t *testing.T) {
	sys := fuelcell.PaperSystem()
	dev := device.Camcorder()
	trace := workload.Periodic(20, 14, 3.03, device.CamcorderRunCurrent)

	// Build the offline problem mirroring the simulator's segments: all
	// idles exceed Tbe so every slot sleeps.
	slots := make([]fcopt.Slot, trace.Len())
	for k, s := range trace.Slots {
		ti := s.Idle
		idleCharge := dev.IPD*dev.TauPD + dev.Islp*(ti-dev.TauPD)
		taEff := dev.TauWU + dev.TauSR + s.Active + dev.TauRS
		activeCharge := dev.IWU*dev.TauWU + s.ActiveCurrent*(dev.TauSR+s.Active+dev.TauRS)
		slots[k] = fcopt.Slot{
			Ti: ti, IldI: idleCharge / ti,
			Ta: taEff, IldA: activeCharge / taEff,
		}
	}
	sched, err := fcopt.SolveOffline(fcopt.OfflineProblem{
		Sys: sys, Cmax: 6, Slots: slots, Q0: 1, GridN: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runPolicy(t, NewSchedule(sys, sched.Settings), trace)
	// Simulated fuel should track the DP's prediction closely (grid and
	// averaging error only).
	if math.Abs(res.Fuel-sched.Fuel) > 0.06*sched.Fuel {
		t.Fatalf("simulated %v vs DP %v", res.Fuel, sched.Fuel)
	}
	// And the offline schedule should be no worse than the online policy
	// beyond small modelling slack.
	online := runPolicy(t, NewFCDPM(sys, dev), trace)
	if res.Fuel > online.Fuel*1.05 {
		t.Fatalf("offline %v clearly worse than online %v", res.Fuel, online.Fuel)
	}
}

func TestBandedReducesActuation(t *testing.T) {
	sys := fuelcell.PaperSystem()
	dev := device.Camcorder()
	cfg := workload.DefaultCamcorderConfig()
	cfg.Duration = 600
	trace, err := workload.Camcorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := runPolicy(t, NewFCDPM(sys, dev), trace)
	banded := runPolicy(t, must(NewFCDPMBanded(sys, dev, 0.05)), trace)
	if banded.SetpointChanges >= plain.SetpointChanges {
		t.Fatalf("dead band did not reduce actuation: %d vs %d",
			banded.SetpointChanges, plain.SetpointChanges)
	}
	// The fuel penalty of a 50 mA band is small.
	if banded.Fuel > plain.Fuel*1.03 {
		t.Fatalf("banded fuel %v too far above plain %v", banded.Fuel, plain.Fuel)
	}
	if banded.Deficit > 0.5 {
		t.Fatalf("banded deficit = %v", banded.Deficit)
	}
}

func TestBandedZeroEpsilonMatchesPlain(t *testing.T) {
	sys := fuelcell.PaperSystem()
	dev := device.Camcorder()
	trace := workload.Periodic(20, 14, 3.03, device.CamcorderRunCurrent)
	plain := runPolicy(t, NewFCDPM(sys, dev), trace)
	banded := runPolicy(t, must(NewFCDPMBanded(sys, dev, 0)), trace)
	if math.Abs(plain.Fuel-banded.Fuel) > 1e-9 {
		t.Fatalf("epsilon=0 band changed fuel: %v vs %v", banded.Fuel, plain.Fuel)
	}
}

func TestBandedRejectsNegativeEpsilon(t *testing.T) {
	_, err := NewFCDPMBanded(fuelcell.PaperSystem(), device.Camcorder(), -1)
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ConfigError", err)
	}
}

func TestMPCPolicyBasics(t *testing.T) {
	sys := fuelcell.PaperSystem()
	dev := device.Camcorder()
	trace := workload.Periodic(15, 14, 3.03, device.CamcorderRunCurrent)
	m := must(NewMPC(sys, dev, 3))
	if m.Name() != "FC-DPM-mpc3" {
		t.Fatalf("name = %q", m.Name())
	}
	res := runPolicy(t, m, trace)
	if m.Err() != nil {
		t.Fatalf("planning errors: %v", m.Err())
	}
	// On a periodic trace MPC matches FC-DPM almost exactly.
	plain := runPolicy(t, NewFCDPM(sys, dev), trace)
	if math.Abs(res.Fuel-plain.Fuel)/plain.Fuel > 0.01 {
		t.Fatalf("MPC fuel %v far from FC-DPM %v", res.Fuel, plain.Fuel)
	}
	if res.Deficit > 0.5 {
		t.Fatalf("deficit = %v", res.Deficit)
	}
}

func TestMPCRejectsBadHorizon(t *testing.T) {
	_, err := NewMPC(fuelcell.PaperSystem(), device.Camcorder(), 0)
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ConfigError", err)
	}
}
