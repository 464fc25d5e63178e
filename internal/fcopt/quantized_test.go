package fcopt

import (
	"fmt"
	"math"
	"math/rand"
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
	set, err := OptimizeQuantized(mustLevels(t, sys, UniformLevels(sys, 221)), 200, s)
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
	coarse, err := OptimizeQuantized(mustLevels(t, sys, UniformLevels(sys, 2)), 200, s)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := OptimizeQuantized(mustLevels(t, sys, UniformLevels(sys, 45)), 200, s)
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
	set, err := OptimizeQuantized(mustLevels(t, sys, UniformLevels(sys, 23)), 200, s)
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
	set, err := OptimizeQuantized(mustLevels(t, sys, UniformLevels(sys, 12)), 6, s)
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
	if _, err := NewLevels(sys, nil); err == nil {
		t.Error("empty level set accepted")
	}
	if _, err := NewLevels(sys, []float64{0.5, 1.3}); err == nil {
		t.Error("out-of-range level accepted")
	}
	if _, err := NewLevels(sys, []float64{math.NaN()}); err == nil {
		t.Error("NaN level accepted")
	}
	if _, err := OptimizeQuantized(Levels{}, 200, s); err == nil {
		t.Error("zero Levels accepted")
	}
	if _, err := OptimizeQuantized(mustLevels(t, sys, UniformLevels(sys, 4)), 0, s); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := OptimizeQuantized(mustLevels(t, sys, UniformLevels(sys, 4)), 200, Slot{}); err == nil {
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
	levels := mustLevels(t, sys, UniformLevels(sys, 9))
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
		quant, err := OptimizeQuantized(levels, 1e6, s)
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

// offlineProblems draws n seeded random offline problems: 2–7 slots
// with Ti in [1, 20] s, IldI in [0.05, 0.4] A, Ta in [0.5, 6] s and IldA
// in [0.3, 1.5] A, a capacity in [2, 12] A·s, and a start charge Q0 on
// the default 60-interval storage grid.
func offlineProblems(n int) []OfflineProblem {
	rng := rand.New(rand.NewSource(7))
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	out := make([]OfflineProblem, n)
	for k := range out {
		p := OfflineProblem{Sys: fuelcell.PaperSystem(), Cmax: u(2, 12)}
		p.Q0 = p.Cmax * float64(rng.Intn(61)) / 60
		for i := 2 + rng.Intn(6); i > 0; i-- {
			p.Slots = append(p.Slots, Slot{Ti: u(1, 20), IldI: u(0.05, 0.4), Ta: u(0.5, 6), IldA: u(0.3, 1.5)})
		}
		out[k] = p
	}
	return out
}

// greedyFuel is the fuel of the per-slot greedy schedule, Optimize with
// Cini = Cend = Q0 on every slot. ok reports that every slot solves and
// ends back at Q0, which makes the schedule a path through the DP's own
// states.
func greedyFuel(p OfflineProblem) (fuel float64, ok bool) {
	for _, s := range p.Slots {
		s.Cini, s.Cend = p.Q0, p.Q0
		set, err := Optimize(p.Sys, p.Cmax, s)
		if err != nil || math.Abs(achievedEnd(p.Cmax, s, set)-p.Q0) > 1e-9 {
			return 0, false
		}
		fuel += set.Fuel
	}
	return fuel, true
}

// replayEnd replays settings from Q0 on the storage's continuous charge,
// bleeding overflow at Cmax as achievedEnd does, and returns the final
// charge. It fails where a period would end below empty, the case
// achievedEnd's empty floor hides.
func replayEnd(p OfflineProblem, settings []Setting) (float64, error) {
	q := p.Q0
	for i, set := range settings {
		s := p.Slots[i]
		taEff, activeCharge := s.demand()
		q = math.Min(q+(set.IFi-s.IldI)*s.Ti, p.Cmax)
		if q < -1e-9 {
			return q, fmt.Errorf("slot %d: idle period ends at %v A·s, below empty", i, q)
		}
		if taEff > 0 {
			q += set.IFa*taEff - activeCharge
			if q < -1e-9 {
				return q, fmt.Errorf("slot %d: active period ends at %v A·s, below empty", i, q)
			}
			q = math.Min(q, p.Cmax)
		}
	}
	return q, nil
}

// TestSolveOfflineProperties checks the DP on seeded random problems.
//   - It never burns more fuel than the per-slot greedy schedule where
//     that schedule is a path through its states. Flooring an achieved
//     end that lands a rounding error below its level once credited it
//     one level down, and the DP then paid fuel to climb back.
//   - Replaying its settings from Q0 never needs achievedEnd's empty
//     floor, and ends at or above FinalMin (Q0 here).
func TestSolveOfflineProperties(t *testing.T) {
	const n = 500
	problems := offlineProblems(n)
	scheds := make([]*OfflineSchedule, n)
	errs := make([]error, n)
	for k, p := range problems {
		scheds[k], errs[k] = SolveOffline(p)
	}
	// Each property must be exercised on most of the draw, not skipped.
	t.Run("at_most_greedy", func(t *testing.T) {
		compared := 0
		for k, p := range problems {
			greedy, ok := greedyFuel(p)
			if !ok {
				continue
			}
			compared++
			switch {
			case errs[k] != nil:
				t.Errorf("problem %d: greedy is feasible but the DP is not: %v", k, errs[k])
			case scheds[k].Fuel > greedy+1e-9:
				t.Errorf("problem %d: DP fuel %.6f above greedy %.6f (+%.3g A·s)", k, scheds[k].Fuel, greedy, scheds[k].Fuel-greedy)
			}
		}
		if compared < n/2 {
			t.Fatalf("greedy comparable on %d of %d problems", compared, n)
		}
	})
	t.Run("replay_reaches_final_min", func(t *testing.T) {
		solved := 0
		for k, p := range problems {
			if errs[k] != nil {
				continue
			}
			solved++
			end, err := replayEnd(p, scheds[k].Settings)
			if err != nil {
				t.Errorf("problem %d: replay: %v", k, err)
			} else if end+1e-9 < p.Q0 {
				t.Errorf("problem %d: replay ends at %v A·s, below FinalMin %v", k, end, p.Q0)
			}
		}
		if solved < n/2 {
			t.Fatalf("DP solved %d of %d problems", solved, n)
		}
	})
}

// TestSolveOfflineOneSlotIsTheClosedForm: on one slot that ends where it
// starts, the DP's fuel is the closed form's with Cini = Cend = Q0, at
// every level of a small store's grid where that closed form is a path
// through the DP's states. The closed form's end lands within a rounding
// error of Q0, often just below it; flooring it one level down once
// made the DP pay to climb back.
func TestSolveOfflineOneSlotIsTheClosedForm(t *testing.T) {
	sys := fuelcell.PaperSystem()
	const cmax, gridN = 2.0, 60
	compared := 0
	for lvl := 0; lvl <= gridN; lvl++ {
		p := OfflineProblem{Sys: sys, Cmax: cmax, Slots: []Slot{motivSlot()}, Q0: cmax * float64(lvl) / gridN, GridN: gridN}
		want, ok := greedyFuel(p)
		if !ok {
			continue
		}
		compared++
		sched, err := SolveOffline(p)
		if err != nil {
			t.Errorf("level %d: %v", lvl, err)
			continue
		}
		if math.Abs(sched.Fuel-want) > 1e-9 {
			t.Errorf("level %d: DP fuel %.6f, closed form %.6f", lvl, sched.Fuel, want)
		}
	}
	if compared < gridN/2 {
		t.Fatalf("closed form ends at Q0 on only %d of %d levels", compared, gridN+1)
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

// mustLevels prices levels against sys, failing the test on a bad grid.
func mustLevels(t testing.TB, sys *fuelcell.System, levels []float64) Levels {
	t.Helper()
	lv, err := NewLevels(sys, levels)
	if err != nil {
		t.Fatal(err)
	}
	return lv
}

// TestNewLevelsSortsAndPrices: the grid is a sorted copy of its input,
// and each level's rate is the stack current System.Fuel scales.
func TestNewLevelsSortsAndPrices(t *testing.T) {
	sys := fuelcell.PaperSystem()
	in := []float64{1.2, 0.1, 0.7, 0.4, 0.7}
	lv := mustLevels(t, sys, in)
	want := []float64{0.1, 0.4, 0.7, 0.7, 1.2}
	for k, l := range lv.Values() {
		if l != want[k] {
			t.Fatalf("levels = %v, want %v", lv.Values(), want)
		}
		if math.Float64bits(lv.rate[k]) != math.Float64bits(sys.StackCurrent(l)) {
			t.Fatalf("rate of level %v = %v, want %v", l, lv.rate[k], sys.StackCurrent(l))
		}
	}
	if in[0] != 1.2 || in[1] != 0.1 {
		t.Fatalf("NewLevels reordered its input: %v", in)
	}
}

// TestOptimizeQuantizedInfeasibleAllocs: a slot no level pair can plan
// costs one allocation, the error itself, not a formatted copy of the
// grid.
func TestOptimizeQuantizedInfeasibleAllocs(t *testing.T) {
	sys := fuelcell.PaperSystem()
	lv := mustLevels(t, sys, UniformLevels(sys, 256))
	s := Slot{Ti: 10, IldI: 5, Ta: 1, IldA: 1}
	if _, err := OptimizeQuantized(lv, 6, s); err == nil {
		t.Fatal("want no feasible pair: the idle load outstrips every level")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := OptimizeQuantized(lv, 6, s); err == nil {
			t.Fatal("infeasible slot planned")
		}
	})
	if allocs > 1 {
		t.Fatalf("an infeasible slot allocates %v times, want at most 1", allocs)
	}
}

// sameSetting reports whether two settings are equal bit for bit.
func sameSetting(a, b Setting) bool {
	bits := math.Float64bits
	return bits(a.IFi) == bits(b.IFi) && bits(a.IFa) == bits(b.IFa) &&
		bits(a.TaEff) == bits(b.TaEff) && bits(a.Fuel) == bits(b.Fuel) &&
		a.ClampedRange == b.ClampedRange && a.ClampedCapacity == b.ClampedCapacity
}

// matchReference plans s with OptimizeQuantized and with the reference
// over the same grid, and fails unless the settings are equal bit for
// bit and the errors say the same.
func matchReference(t testing.TB, sys *fuelcell.System, lv Levels, cmax float64, s Slot) (Setting, error) {
	t.Helper()
	got, gotErr := OptimizeQuantized(lv, cmax, s)
	want, wantErr := refOptimizeQuantizedSorted(sys, cmax, s, lv.Values())
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("slot %+v, cmax %v, %d levels: error %v, reference %v", s, cmax, len(lv.Values()), gotErr, wantErr)
	}
	if !sameSetting(got, want) {
		t.Fatalf("slot %+v, cmax %v, %d levels:\n got %+v\nwant %+v", s, cmax, len(lv.Values()), got, want)
	}
	return got, gotErr
}

// swappedFeasible reports whether the pair (set.IFa, set.IFi), the
// chosen pair swapped, keeps the storage from running dry and reaches
// Cend, by the optimizer's trajectory rule.
func swappedFeasible(cmax float64, s Slot, set Setting) bool {
	taEff, activeCharge := s.demand()
	peak := s.Cini + (set.IFa-s.IldI)*s.Ti
	if peak < -1e-9 {
		return false
	}
	end := math.Min(peak, cmax)
	if taEff > 0 {
		end += (set.IFi - activeCharge/taEff) * taEff
		if end < -1e-9 {
			return false
		}
		end = math.Min(end, cmax)
	}
	return end+1e-9 >= s.Cend
}

// TestOptimizeQuantizedMatchesReference is the differential oracle for
// the priced grid: on seeded random slots over 2-256 levels, uniform or
// drawn at random with repeats, OptimizeQuantized returns the
// reference's setting bit for bit. The slots are drawn in four kinds,
// and the test checks it met each: feasible slots, slots where no pair
// reaches Cend (the fallback), slots where every pair runs the storage
// dry (an error), and slots of equal idle and active length with
// Cini = Cend, where a pair and its swap burn exactly the same fuel and
// the first in scan order must win.
func TestOptimizeQuantizedMatchesReference(t *testing.T) {
	alt, err := fuelcell.NewSystem(12, 37.5, 0.05, 0.9, fuelcell.LinearEfficiency{Alpha: 0.5, Beta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	systems := []*fuelcell.System{fuelcell.PaperSystem(), alt}
	rng := rand.New(rand.NewSource(22))
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	trials := 4000
	if testing.Short() {
		trials = 800
	}
	var feasible, fallback, infeasible, ties int
	for trial := 0; trial < trials; trial++ {
		sys := systems[rng.Intn(len(systems))]
		n := 2 + rng.Intn(255)
		if rng.Intn(2) == 0 {
			n = 2 + rng.Intn(11)
		}
		levels := UniformLevels(sys, n)
		if rng.Intn(2) == 0 {
			for k := range levels {
				levels[k] = sys.MinOutput + (sys.MaxOutput-sys.MinOutput)*rng.Float64()
				if k > 0 && rng.Intn(4) == 0 {
					levels[k] = levels[rng.Intn(k)]
				}
			}
		}
		lv := mustLevels(t, sys, levels)
		cmax := u(1, 12)
		var s Slot
		kind := trial % 4
		switch kind {
		case 0: // ordinary
			s = Slot{Ti: u(0, 30), IldI: u(0, 0.6), Ta: u(0, 15), IldA: u(0.2, 1.5),
				Cini: u(0, cmax), Cend: u(0, cmax)}
			switch rng.Intn(6) {
			case 0:
				s.Ti = 0
			case 1:
				s.Ta = 0
			}
		case 1: // heavy active load, high target
			s = Slot{Ti: u(0.5, 5), IldI: u(0.2, 1), Ta: u(2, 10), IldA: u(1, 1.6),
				Cini: u(0.5, 1) * cmax, Cend: u(0.8, 1) * cmax}
		case 2: // the idle load alone drains the storage
			s = Slot{Ti: u(1, 20), IldI: u(1.3, 3), Ta: u(0, 10), IldA: u(0, 1.5),
				Cini: u(0, 0.5), Cend: u(0, cmax)}
		case 3: // equal periods: a pair and its swap tie on fuel
			d := u(1, 20)
			s = Slot{Ti: d, IldI: u(0.1, 0.6), Ta: d, IldA: u(0.3, 1.1)}
			s.Cini = u(0, cmax)
			s.Cend = s.Cini
		}
		if kind != 3 && rng.Intn(3) == 0 {
			s.Overhead = &Overhead{TauWU: u(0, 1), IWU: u(0, 0.5), TauPD: u(0, 1), IPD: u(0, 0.5)}
			s.Sleep = rng.Intn(2) == 0
		}
		set, err := matchReference(t, sys, lv, cmax, s)
		switch {
		case err != nil:
			infeasible++
		case set.ClampedRange:
			fallback++
		default:
			feasible++
			if kind == 3 && set.IFi != set.IFa && swappedFeasible(cmax, s, set) {
				ties++
			}
		}
	}
	least := trials / 40
	if feasible < least || fallback < least || infeasible < least || ties < least {
		t.Fatalf("coverage: %d feasible, %d fallback, %d infeasible, %d tied slots; want at least %d of each",
			feasible, fallback, infeasible, ties, least)
	}
	t.Logf("%d feasible, %d fallback, %d infeasible, %d tied slots", feasible, fallback, infeasible, ties)
}
