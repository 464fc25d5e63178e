package fcopt

import (
	"math"
	"testing"

	"fcdpm/internal/fuelcell"
	"fcdpm/internal/numeric"
)

func TestQuantizedMatchesContinuousWithDenseLevels(t *testing.T) {
	sys := fuelcell.PaperSystem()
	s := motivSlot()
	cont, err := Optimize(sys, 200, s)
	if err != nil {
		t.Fatal(err)
	}
	// With a dense level grid, the quantized optimum approaches the
	// continuous one.
	set, err := OptimizeQuantizedSorted(sys, 200, s, UniformLevels(sys, 221))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(set.Fuel-cont.Fuel) > 0.05 {
		t.Fatalf("dense quantized fuel %v vs continuous %v", set.Fuel, cont.Fuel)
	}
}

func TestQuantizedCoarseWorseThanFine(t *testing.T) {
	sys := fuelcell.PaperSystem()
	s := motivSlot()
	coarse, err := OptimizeQuantizedSorted(sys, 200, s, UniformLevels(sys, 2))
	if err != nil {
		t.Fatal(err)
	}
	fine, err := OptimizeQuantizedSorted(sys, 200, s, UniformLevels(sys, 45))
	if err != nil {
		t.Fatal(err)
	}
	if fine.Fuel > coarse.Fuel+1e-9 {
		t.Fatalf("finer grid should not cost more: fine %v vs coarse %v", fine.Fuel, coarse.Fuel)
	}
}

func TestQuantizedRespectsCendTarget(t *testing.T) {
	sys := fuelcell.PaperSystem()
	s := Slot{Ti: 20, IldI: 0.2, Ta: 10, IldA: 1.2, Cini: 1, Cend: 5}
	set, err := OptimizeQuantizedSorted(sys, 200, s, UniformLevels(sys, 23))
	if err != nil {
		t.Fatal(err)
	}
	end := achievedEnd(200, s, set)
	if end+1e-9 < 5 {
		t.Fatalf("end charge %v misses Cend=5", end)
	}
}

func TestQuantizedFallbackWhenTargetUnreachable(t *testing.T) {
	sys := fuelcell.PaperSystem()
	// Heavy sustained load: no level pair can end at Cend=6; the solver
	// should return the highest-ending pair rather than fail.
	s := Slot{Ti: 5, IldI: 1.0, Ta: 20, IldA: 1.4, Cini: 3, Cend: 6}
	set, err := OptimizeQuantizedSorted(sys, 6, s, UniformLevels(sys, 12))
	if err != nil {
		t.Fatal(err)
	}
	if !set.ClampedRange {
		t.Error("fallback setting should be marked clamped")
	}
	if set.IFa != 1.2 {
		t.Errorf("fallback should push the top level during active, got %v", set.IFa)
	}
}

func TestQuantizedValidation(t *testing.T) {
	sys := fuelcell.PaperSystem()
	s := motivSlot()
	if _, err := OptimizeQuantizedSorted(sys, 200, s, nil); err == nil {
		t.Error("empty level set accepted")
	}
	if _, err := OptimizeQuantizedSorted(sys, 0, s, UniformLevels(sys, 4)); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := OptimizeQuantizedSorted(sys, 200, Slot{}, UniformLevels(sys, 4)); err == nil {
		t.Error("empty slot accepted")
	}
}

func TestUniformLevels(t *testing.T) {
	sys := fuelcell.PaperSystem()
	lv := UniformLevels(sys, 12)
	if len(lv) != 12 || lv[0] != 0.1 || lv[11] != 1.2 {
		t.Fatalf("levels = %v", lv)
	}
	if got := UniformLevels(sys, 1); len(got) != 2 {
		t.Fatalf("n<2 should floor to 2 levels, got %v", got)
	}
}

// Property: quantized fuel is always >= the continuous optimum on random
// feasible slots (the continuous solution is a relaxation).
func TestQuantizedNeverBeatsContinuous(t *testing.T) {
	sys := fuelcell.PaperSystem()
	rng := numeric.NewRNG(42)
	levels := UniformLevels(sys, 9)
	for trial := 0; trial < 200; trial++ {
		s := Slot{
			Ti:   rng.Uniform(5, 30),
			IldI: rng.Uniform(0.1, 0.5),
			Ta:   rng.Uniform(2, 10),
			IldA: rng.Uniform(0.6, 1.2),
			Cini: rng.Uniform(0, 3),
			Cend: rng.Uniform(0, 3),
		}
		cont, err := Optimize(sys, 1e6, s)
		if err != nil {
			t.Fatal(err)
		}
		quant, err := OptimizeQuantizedSorted(sys, 1e6, s, levels)
		if err != nil {
			t.Fatal(err)
		}
		// Allow tolerance for the fallback path (which may under-deliver
		// Cend and thus legitimately burn less).
		end := achievedEnd(1e6, s, quant)
		if end+1e-6 >= s.Cend && quant.Fuel < cont.Fuel-1e-6 {
			t.Fatalf("trial %d: quantized %v beat continuous %v (slot %+v)",
				trial, quant.Fuel, cont.Fuel, s)
		}
	}
}

func TestSolveOfflineSingleSlotMatchesClosedForm(t *testing.T) {
	sys := fuelcell.PaperSystem()
	s := motivSlot() // Cini = Cend = 0
	sched, err := SolveOffline(OfflineProblem{
		Sys: sys, Cmax: 200, Slots: []Slot{s}, Q0: 0, GridN: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Settings) != 1 {
		t.Fatalf("settings = %d", len(sched.Settings))
	}
	// The DP should find (nearly) the continuous optimum 13.45 A-s.
	if math.Abs(sched.Fuel-13.45) > 0.2 {
		t.Fatalf("offline fuel = %v, want ≈13.45", sched.Fuel)
	}
}

func TestSolveOfflineBeatsGreedyOnAlternatingSlots(t *testing.T) {
	sys := fuelcell.PaperSystem()
	// Two very different slots: a light one then a heavy one. The greedy
	// per-slot policy returns to the reserve after slot 1; the offline
	// optimum can pre-charge during the light slot.
	light := Slot{Ti: 30, IldI: 0.2, Ta: 2, IldA: 0.6}
	heavy := Slot{Ti: 4, IldI: 0.2, Ta: 12, IldA: 1.4}
	slots := []Slot{light, heavy, light, heavy}

	sched, err := SolveOffline(OfflineProblem{Sys: sys, Cmax: 20, Slots: slots, Q0: 1, GridN: 80})
	if err != nil {
		t.Fatal(err)
	}

	// Greedy: per-slot Optimize with Cend pinned to the reserve.
	var greedy float64
	q := 1.0
	for _, s := range slots {
		s.Cini = q
		s.Cend = 1
		set, err := Optimize(sys, 20, s)
		if err != nil {
			t.Fatal(err)
		}
		greedy += set.Fuel
		q = achievedEnd(20, s, set)
	}
	if sched.Fuel > greedy+1e-6 {
		t.Fatalf("offline %v worse than greedy %v", sched.Fuel, greedy)
	}
}

func TestSolveOfflineChargeTrajectoryBounds(t *testing.T) {
	sys := fuelcell.PaperSystem()
	slots := []Slot{
		{Ti: 14, IldI: 0.2, Ta: 5, IldA: 1.22},
		{Ti: 9, IldI: 0.2, Ta: 5, IldA: 1.22},
		{Ti: 19, IldI: 0.2, Ta: 5, IldA: 1.22},
	}
	sched, err := SolveOffline(OfflineProblem{Sys: sys, Cmax: 6, Slots: slots, Q0: 1, GridN: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Charges) != len(slots)+1 {
		t.Fatalf("charges = %d", len(sched.Charges))
	}
	for i, q := range sched.Charges {
		if q < -1e-9 || q > 6+1e-9 {
			t.Fatalf("charge %d = %v outside [0, 6]", i, q)
		}
	}
	// Terminal condition: end at or above Q0.
	if sched.Charges[len(sched.Charges)-1]+1e-9 < 1 {
		t.Fatalf("final charge %v below Q0", sched.Charges[len(sched.Charges)-1])
	}
}

func TestSolveOfflineValidation(t *testing.T) {
	sys := fuelcell.PaperSystem()
	s := motivSlot()
	cases := []OfflineProblem{
		{Sys: nil, Cmax: 6, Slots: []Slot{s}, Q0: 1},
		{Sys: sys, Cmax: 0, Slots: []Slot{s}, Q0: 1},
		{Sys: sys, Cmax: 6, Slots: nil, Q0: 1},
		{Sys: sys, Cmax: 6, Slots: []Slot{s}, Q0: 99},
	}
	for k, p := range cases {
		if _, err := SolveOffline(p); err == nil {
			t.Errorf("case %d: invalid problem accepted", k)
		}
	}
}
