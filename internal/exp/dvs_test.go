package exp

import (
	"context"
	"testing"

	"fcdpm/internal/dvs"
)

func dvsTask() dvs.Task { return dvs.Task{Cycles: 3e8, Period: 4, Jobs: 50} }

func TestRunDVSStudy(t *testing.T) {
	proc := dvs.XScale600()
	proc.LeakPower = 1.1 // interior energy optimum
	study, err := RunDVSStudy(context.Background(), proc, dvsTask())
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Rows) != len(proc.Levels) {
		t.Fatalf("rows = %d, want %d (all levels feasible)", len(study.Rows), len(proc.Levels))
	}
	if study.EnergyOptimal < 0 || study.ASAPOptimal < 0 || study.FCOptimal < 0 {
		t.Fatalf("missing optima: %+v", study)
	}
	// The [10] thesis on the full simulator: under load following, the
	// fuel optimum sits at or below the energy optimum.
	if study.ASAPOptimal > study.EnergyOptimal {
		t.Errorf("ASAP fuel optimum L%d above energy optimum L%d",
			study.ASAPOptimal, study.EnergyOptimal)
	}
	// Under FC-DPM (flat output) fuel tracks average charge, so its
	// optimum matches the energy optimum.
	if study.FCOptimal != study.EnergyOptimal {
		t.Errorf("FC-DPM fuel optimum L%d should equal energy optimum L%d",
			study.FCOptimal, study.EnergyOptimal)
	}
	// FC-DPM at least matches ASAP at every speed.
	for _, r := range study.Rows {
		if r.FCRate > r.ASAPRate*1.001 {
			t.Errorf("L%d: FC-DPM rate %v above ASAP %v", r.Level, r.FCRate, r.ASAPRate)
		}
	}
}

func TestRunDVSStudyInfeasible(t *testing.T) {
	proc := dvs.XScale600()
	if _, err := RunDVSStudy(context.Background(), proc, dvs.Task{Cycles: 1e12, Period: 0.01, Jobs: 1}); err == nil {
		t.Fatal("infeasible task accepted")
	}
	if _, err := RunDVSStudy(context.Background(), proc, dvs.Task{}); err == nil {
		t.Fatal("invalid task accepted")
	}
	if _, err := RunDVSStudy(context.Background(), &dvs.Processor{}, dvsTask()); err == nil {
		t.Fatal("invalid processor accepted")
	}
}
