package exp

import (
	"context"
	"testing"
)

func TestExperiment4Ordering(t *testing.T) {
	for _, seed := range []uint64{4, 5, 6} {
		cmp, err := Experiment4(context.Background(), seed)
		if err != nil {
			t.Fatal(err)
		}
		asap, fc := cmp.Row("ASAP-DPM"), cmp.Row("FC-DPM")
		// The paper's ordering carries to the disk platform.
		if !(fc.Normalized < asap.Normalized && asap.Normalized < 1) {
			t.Errorf("seed %d: ordering broken: asap=%v fc=%v",
				seed, asap.Normalized, fc.Normalized)
		}
		if cmp.SavingVsASAP <= 0 {
			t.Errorf("seed %d: saving = %v", seed, cmp.SavingVsASAP)
		}
		// The disk mostly sleeps: load-following dives far below Conv
		// (the drive idles near the bottom of the FC range).
		if asap.Normalized > 0.35 {
			t.Errorf("seed %d: ASAP normalized = %v, want deep savings on a sleepy disk",
				seed, asap.Normalized)
		}
		// Nobody browns out.
		for _, r := range cmp.Rows {
			if r.Deficit > 0.2 {
				t.Errorf("seed %d: %s deficit = %v", seed, r.Name, r.Deficit)
			}
		}
	}
}

func TestExperiment4SleepsThroughTails(t *testing.T) {
	cmp, err := Experiment4(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res := cmp.Results["FC-DPM"]
	// The HDD's ~16 s break-even against Pareto(8, 1.7) idles: a real
	// mix of sleeping and staying spun up.
	if res.Sleeps == 0 || res.Sleeps == res.Slots {
		t.Fatalf("sleeps = %d of %d, want a genuine mix", res.Sleeps, res.Slots)
	}
}
