package exp

import (
	"context"
	"testing"
)

func TestExperiment3Ordering(t *testing.T) {
	cmp, err := Experiment3(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	asap, fc := cmp.Row("ASAP-DPM"), cmp.Row("FC-DPM")
	if !(fc.Normalized < asap.Normalized && asap.Normalized < 1) {
		t.Fatalf("ordering broken: asap=%v fc=%v", asap.Normalized, fc.Normalized)
	}
	// The saving survives but shrinks on this hostile workload (short,
	// unpredictable idles give the optimizer less room than the paper's
	// benign traces).
	if cmp.SavingVsASAP <= 0 {
		t.Errorf("saving = %v, want positive", cmp.SavingVsASAP)
	}
	cmp1, err := Experiment1(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.SavingVsASAP >= cmp1.SavingVsASAP {
		t.Errorf("heavy-tail saving %v should be below Experiment 1's %v",
			cmp.SavingVsASAP, cmp1.SavingVsASAP)
	}
}

func TestExperiment3DPMModes(t *testing.T) {
	rows, err := Experiment3DPM(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (incl. adaptive timeout)", len(rows))
	}
	byMode := map[string]DPMRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	oracle, timeout := byMode["oracle-sleep"], byMode["timeout"]
	pred, never := byMode["predictive"], byMode["never-sleep"]
	always := byMode["always-sleep"]
	adaptive := byMode["adaptive-timeout"]
	// The learned-distribution timeout serves the load without brownouts
	// and lands in the band between the oracle and the naive policies.
	if adaptive.Deficit > 0.5 {
		t.Errorf("adaptive timeout deficit = %v", adaptive.Deficit)
	}
	if adaptive.FCRate < oracle.FCRate-1e-9 || adaptive.FCRate > always.FCRate {
		t.Errorf("adaptive rate %v outside [oracle %v, always-sleep %v]",
			adaptive.FCRate, oracle.FCRate, always.FCRate)
	}
	// The oracle lower-bounds every realizable policy.
	for _, r := range rows {
		if r.FCRate < oracle.FCRate-1e-9 {
			t.Errorf("%s rate %v below oracle %v", r.Mode, r.FCRate, oracle.FCRate)
		}
	}
	// The classic heavy-tail result: reactive timeout beats history-based
	// prediction — i.i.d. Pareto idles give the exponential average
	// nothing to learn, so it hovers near the sub-Tbe mean and misses the
	// tail.
	if timeout.FCRate > pred.FCRate+1e-9 {
		t.Errorf("timeout rate %v should not exceed predictive %v",
			timeout.FCRate, pred.FCRate)
	}
	// Sleeping indiscriminately on mostly-short idles wastes transition
	// energy: always-sleep must be the worst.
	if always.FCRate < never.FCRate && always.FCRate < pred.FCRate {
		t.Errorf("always-sleep rate %v implausibly good", always.FCRate)
	}
	// The oracle and timeout catch the tail (more sleeps than the timid
	// predictive policy, far fewer than always-sleep).
	if !(pred.Sleeps <= timeout.Sleeps && timeout.Sleeps <= oracle.Sleeps+2 &&
		oracle.Sleeps < always.Sleeps) {
		t.Errorf("sleep counts off: pred=%d timeout=%d oracle=%d always=%d",
			pred.Sleeps, timeout.Sleeps, oracle.Sleeps, always.Sleeps)
	}
}
