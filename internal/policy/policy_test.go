package policy

import (
	"math"
	"testing"

	"fcdpm/internal/device"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/sim"
)

func sys() *fuelcell.System { return fuelcell.PaperSystem() }

func pieceTotal(ps []sim.Piece) float64 {
	var d float64
	for _, p := range ps {
		d += p.Dur
	}
	return d
}

func TestConvAlwaysMax(t *testing.T) {
	c := NewConv(sys())
	c.Reset(6, 6)
	for _, seg := range []sim.Segment{
		{Kind: sim.SegSleep, Dur: 10, Load: 0.2},
		{Kind: sim.SegActive, Dur: 3, Load: 1.22},
	} {
		ps := c.SegmentPlan(seg, 3, nil)
		if len(ps) != 1 || ps[0].IF != 1.2 {
			t.Fatalf("Conv plan = %+v, want single piece at 1.2", ps)
		}
		if pieceTotal(ps) != seg.Dur {
			t.Fatalf("pieces do not tile segment")
		}
	}
}

func TestFlatClampsAtConstruction(t *testing.T) {
	f := NewFlat(sys(), 2.0)
	if f.IF != 1.2 {
		t.Fatalf("Flat IF = %v, want clamped 1.2", f.IF)
	}
	f = NewFlat(sys(), 0.01)
	if f.IF != 0.1 {
		t.Fatalf("Flat IF = %v, want clamped 0.1", f.IF)
	}
	ps := f.SegmentPlan(sim.Segment{Dur: 5, Load: 0.3}, 2, nil)
	if len(ps) != 1 || ps[0].IF != 0.1 || ps[0].Dur != 5 {
		t.Fatalf("Flat plan = %+v", ps)
	}
}

func TestASAPFollowsLoad(t *testing.T) {
	a := NewASAP(sys())
	a.Reset(6, 6)
	ps := a.SegmentPlan(sim.Segment{Kind: sim.SegStandby, Dur: 10, Load: 0.4}, 6, nil)
	if len(ps) != 1 || ps[0].IF != 0.4 {
		t.Fatalf("plan = %+v, want follow at 0.4", ps)
	}
	// Load beyond range: clamp to 1.2, storage supplies the rest.
	ps = a.SegmentPlan(sim.Segment{Kind: sim.SegActive, Dur: 3, Load: 1.4}, 6, nil)
	if len(ps) != 1 || ps[0].IF != 1.2 {
		t.Fatalf("plan = %+v, want clamp at 1.2", ps)
	}
	// Load below range floor: clamp to 0.1.
	ps = a.SegmentPlan(sim.Segment{Kind: sim.SegSleep, Dur: 10, Load: 0.05}, 6, nil)
	if len(ps) != 1 || ps[0].IF != 0.1 {
		t.Fatalf("plan = %+v, want floor at 0.1", ps)
	}
}

func TestASAPRechargeRule(t *testing.T) {
	a := NewASAP(sys())
	a.Reset(6, 6)
	// Charge below half capacity triggers recharge at max output.
	seg := sim.Segment{Kind: sim.SegStandby, Dur: 20, Load: 0.4}
	ps := a.SegmentPlan(seg, 2, nil)
	if ps[0].IF != 1.2 {
		t.Fatalf("recharge plan = %+v, want first piece at 1.2", ps)
	}
	// Time to full: (6-2)/(1.2-0.4) = 5 s, then follow for 15 s.
	if len(ps) != 2 || math.Abs(ps[0].Dur-5) > 1e-9 || math.Abs(ps[1].IF-0.4) > 1e-12 {
		t.Fatalf("recharge split = %+v, want [1.2 for 5s, 0.4 for 15s]", ps)
	}
	if math.Abs(pieceTotal(ps)-20) > 1e-9 {
		t.Fatal("pieces do not tile segment")
	}
	// Above half capacity: no recharging.
	a.Reset(6, 6)
	ps = a.SegmentPlan(seg, 4, nil)
	if ps[0].IF != 0.4 {
		t.Fatalf("plan = %+v, want plain following above half capacity", ps)
	}
}

func TestASAPRechargeAgainstHighLoad(t *testing.T) {
	a := NewASAP(sys())
	a.Reset(6, 6)
	// Recharging demanded but load exceeds the range top: deliver max and
	// stay in recharge mode.
	ps := a.SegmentPlan(sim.Segment{Kind: sim.SegActive, Dur: 3, Load: 1.4}, 1, nil)
	if len(ps) != 1 || ps[0].IF != 1.2 {
		t.Fatalf("plan = %+v", ps)
	}
	if !a.recharging {
		t.Fatal("recharge flag should persist while load blocks charging")
	}
}

func TestFCDPMMotivationalSlot(t *testing.T) {
	// Drive the policy by hand through the §3.2 example and check it
	// reproduces the 0.533 A flat setting.
	dev := &device.Model{V: 12, Isdb: 0.2, Islp: 0.1, TbeOverride: 1e9} // no sleep, no transitions
	f := NewFCDPM(sys(), dev)
	f.Reset(200, 0)
	f.PlanIdle(sim.SlotInfo{
		K: 0, Sleeping: false,
		PredIdle: 20, PredActive: 10, PredActiveCurrent: 1.2,
		IdleLoad: 0.2, Charge: 0, Cmax: 200, ChargeTarget: 0,
	})
	if math.Abs(f.ifi-16.0/30) > 1e-9 {
		t.Fatalf("planned IFi = %v, want 0.5333", f.ifi)
	}
	ps := f.SegmentPlan(sim.Segment{Kind: sim.SegStandby, Dur: 20, Load: 0.2}, 0, nil)
	if len(ps) != 1 || math.Abs(ps[0].IF-16.0/30) > 1e-9 {
		t.Fatalf("idle plan = %+v", ps)
	}
	// Active re-plan with actuals equal to predictions keeps the setting.
	f.PlanActive(sim.SlotInfo{
		K: 0, Sleeping: false,
		ActualIdle: 20, ActualActive: 10, ActualActiveCurrent: 1.2,
		Charge: 20.0 / 3, Cmax: 200, ChargeTarget: 0,
	})
	if math.Abs(f.ifa-16.0/30) > 1e-9 {
		t.Fatalf("re-planned IFa = %v, want 0.5333", f.ifa)
	}
}

func TestFCDPMAdaptsToActuals(t *testing.T) {
	dev := &device.Model{V: 12, Isdb: 0.2, Islp: 0.1, TbeOverride: 1e9}
	f := NewFCDPM(sys(), dev)
	f.Reset(200, 0)
	f.PlanIdle(sim.SlotInfo{
		PredIdle: 20, PredActive: 10, PredActiveCurrent: 1.2,
		IdleLoad: 0.2, Charge: 0, Cmax: 200, ChargeTarget: 0,
	})
	// Actual active period is twice as long: IF,a must drop so the slot
	// still ends at the target charge.
	f.PlanActive(sim.SlotInfo{
		ActualActive: 20, ActualActiveCurrent: 1.2,
		Charge: 20.0 / 3, ChargeTarget: 0, Cmax: 200,
	})
	want := (0 + 1.2*20 - 20.0/3) / 20
	if math.Abs(f.ifa-want) > 1e-9 {
		t.Fatalf("IFa = %v, want %v", f.ifa, want)
	}
}

func TestFCDPMSplitAtFull(t *testing.T) {
	dev := &device.Model{V: 12, Isdb: 0.2, Islp: 0.1, TbeOverride: 1e9}
	f := NewFCDPM(sys(), dev)
	f.Reset(6, 6)
	f.ifi = 0.5
	// Charging at 0.5-0.2=0.3 A with 1.5 A-s of room: full after 5 s.
	ps := f.SegmentPlan(sim.Segment{Kind: sim.SegStandby, Dur: 20, Load: 0.2}, 4.5, nil)
	if len(ps) != 2 {
		t.Fatalf("plan = %+v, want split", ps)
	}
	if math.Abs(ps[0].Dur-5) > 1e-9 || ps[0].IF != 0.5 {
		t.Fatalf("first piece = %+v", ps[0])
	}
	// After full, hold the clamped load (0.2 ≥ range floor).
	if math.Abs(ps[1].IF-0.2) > 1e-12 || math.Abs(ps[1].Dur-15) > 1e-9 {
		t.Fatalf("hold piece = %+v", ps[1])
	}
}

func TestFCDPMSplitAtEmpty(t *testing.T) {
	dev := &device.Model{V: 12, Isdb: 0.2, Islp: 0.1, TbeOverride: 1e9}
	f := NewFCDPM(sys(), dev)
	f.Reset(6, 6)
	f.ifa = 0.5
	// Discharging at 1.2-0.5=0.7 A with 1.4 A-s stored: empty after 2 s.
	ps := f.SegmentPlan(sim.Segment{Kind: sim.SegActive, Dur: 5, Load: 1.2}, 1.4, nil)
	if len(ps) != 2 {
		t.Fatalf("plan = %+v, want split", ps)
	}
	if math.Abs(ps[0].Dur-2) > 1e-9 || ps[0].IF != 0.5 {
		t.Fatalf("first piece = %+v", ps[0])
	}
	if math.Abs(ps[1].IF-1.2) > 1e-12 {
		t.Fatalf("hold piece = %+v, want range-clamped load", ps[1])
	}
}

func TestFCDPMDegradesOnPlanError(t *testing.T) {
	dev := &device.Model{V: 12, Isdb: 0.2, Islp: 0.1, TbeOverride: 1e9}
	f := NewFCDPM(sys(), dev)
	f.Reset(6, 6)
	// Negative predicted idle is an invalid optimizer slot.
	f.PlanIdle(sim.SlotInfo{
		PredIdle: -5, PredActive: 10, PredActiveCurrent: 1.2,
		IdleLoad: 0.2, Charge: 3, Cmax: 6, ChargeTarget: 6,
	})
	if f.Err() == nil {
		t.Fatal("planning error not surfaced")
	}
	// Degraded plan still follows the load within range.
	if f.ifi != 0.2 || f.ifa != 1.2 {
		t.Fatalf("degraded plan = (%v, %v)", f.ifi, f.ifa)
	}
}

func TestFCDPMOverheadFromDevice(t *testing.T) {
	f := NewFCDPM(sys(), device.Camcorder())
	if oh := f.overhead(); oh == nil || oh.TauWU != 0.5 || oh.IPD != 0.4 {
		t.Fatalf("overhead = %+v", oh)
	}
	noTrans := &device.Model{V: 12, Isdb: 0.4, Islp: 0.2}
	f2 := NewFCDPM(sys(), noTrans)
	if f2.overhead() != nil {
		t.Fatal("zero-transition device should yield nil overhead")
	}
}

func TestNames(t *testing.T) {
	dev := device.Camcorder()
	for _, p := range []sim.Policy{NewConv(sys()), NewASAP(sys()), NewFCDPM(sys(), dev), NewFlat(sys(), 0.5)} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}
