package fault

import (
	"math"
	"reflect"
	"testing"

	"fcdpm/internal/storage"
)

func TestStateComposition(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: StackDerate, Start: 10, Dur: 20, Magnitude: 0.5},
		{Kind: LoadSurge, Start: 15, Dur: 10, Magnitude: 2},
		{Kind: EfficiencyDegrade, Start: 0, Dur: 0, Magnitude: 0.2}, // permanent
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := s.StateAt(5)
	if st.DeliveryScale != 1 || st.LoadScale != 1 {
		t.Fatalf("unexpected derate/surge before onset: %+v", st)
	}
	if math.Abs(st.FuelScale-1/0.8) > 1e-12 {
		t.Fatalf("permanent efficiency degrade missing: %+v", st)
	}
	st = s.StateAt(17)
	if st.DeliveryScale != 0.5 || st.LoadScale != 2 {
		t.Fatalf("overlap window wrong: %+v", st)
	}
	if got := s.StateAt(30); got.DeliveryScale != 1 {
		t.Fatalf("derate did not clear at end: %+v", got)
	}
	if s.StateAt(29.999) == Nominal() {
		// 29.999 still inside derate window
		t.Fatal("expected non-nominal just before boundary")
	}
}

func TestDropoutZeroesDelivery(t *testing.T) {
	s := &Schedule{Events: []Event{{Kind: StackDropout, Start: 0, Dur: 5}}}
	if got := s.StateAt(1).DeliveryScale; got != 0 {
		t.Fatalf("dropout delivery scale = %v, want 0", got)
	}
	if got := s.StateAt(5).DeliveryScale; got != 1 {
		t.Fatalf("half-open interval: state at end should be nominal, got %v", got)
	}
}

func TestBoundaries(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: StackDropout, Start: 10, Dur: 5},
		{Kind: LoadSurge, Start: 10, Dur: 10, Magnitude: 1.5},
		{Kind: CapacityFade, Start: 3, Dur: -1, Magnitude: 0.5}, // permanent
	}}
	want := []float64{3, 10, 15, 20}
	if got := s.Boundaries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("boundaries = %v, want %v", got, want)
	}
	in := NewInjector(s, 1)
	if b := in.NextBoundary(10); b != 15 {
		t.Fatalf("NextBoundary(10) = %v, want 15 (strictly after)", b)
	}
	if b := in.NextBoundary(20); !math.IsInf(b, 1) {
		t.Fatalf("NextBoundary past all = %v, want +Inf", b)
	}
}

func TestValidateRejectsBadEvents(t *testing.T) {
	bad := []Event{
		{Kind: Kind(99), Start: 0},
		{Kind: StackDropout, Start: -1},
		{Kind: StackDerate, Start: 0, Magnitude: 1.5},
		{Kind: CapacityFade, Start: 0, Magnitude: -0.1},
		{Kind: LoadSurge, Start: 0, Magnitude: -2},
		{Kind: StackDropout, Start: math.NaN()},
	}
	for i, e := range bad {
		s := &Schedule{Events: []Event{e}}
		if err := s.Validate(); err == nil {
			t.Errorf("event %d (%+v) validated", i, e)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Seed: 42, Horizon: 1000, Events: 12}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different schedules")
	}
	if len(a.Events) != 12 {
		t.Fatalf("got %d events, want 12", len(a.Events))
	}
	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateValidates(t *testing.T) {
	if _, err := Generate(GenConfig{Horizon: 0, Events: 1}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := Generate(GenConfig{Horizon: 10, Events: -1}); err == nil {
		t.Fatal("negative event count accepted")
	}
}

func TestFadeStore(t *testing.T) {
	fs := NewFadeStore(storage.MustSuperCap(10, 8))
	if fs.Capacity() != 10 || fs.Charge() != 8 {
		t.Fatalf("nominal wrap wrong: cap %v charge %v", fs.Capacity(), fs.Charge())
	}
	fs.SetScale(0.5)
	if fs.Capacity() != 5 {
		t.Fatalf("faded capacity %v, want 5", fs.Capacity())
	}
	if fs.Charge() != 5 {
		t.Fatalf("charge after fade %v, want clamped to 5", fs.Charge())
	}
	if fs.Lost != 3 {
		t.Fatalf("lost charge %v, want 3", fs.Lost)
	}
	// Charging beyond the faded capacity bleeds.
	fl := fs.Apply(2, 2) // +4 A-s into 0 A-s of room
	if fl.Stored != 0 || math.Abs(fl.Bled-4) > 1e-12 {
		t.Fatalf("overfull charge flow = %+v", fl)
	}
	// Partial room: recover then fill past the boundary.
	fs.SetCharge(4)
	fl = fs.Apply(1, 3) // +3 A-s into 1 A-s of room
	if math.Abs(fl.Stored-1) > 1e-12 || math.Abs(fl.Bled-2) > 1e-12 {
		t.Fatalf("boundary charge flow = %+v", fl)
	}
	if math.Abs(fs.Charge()-5) > 1e-12 {
		t.Fatalf("charge %v, want 5", fs.Charge())
	}
	// Discharge below empty still reports deficit through the inner model.
	fl = fs.Apply(-3, 2)
	if math.Abs(fl.Deficit-1) > 1e-12 {
		t.Fatalf("deficit flow = %+v", fl)
	}
	// Recovery: scale back up exposes capacity again but not lost charge.
	fs.SetScale(1)
	if fs.Capacity() != 10 || fs.Charge() != 0 {
		t.Fatalf("recovery wrong: cap %v charge %v", fs.Capacity(), fs.Charge())
	}
}

func TestInjectorDrain(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: StackDropout, Start: 10, Dur: 5},
		{Kind: LoadSurge, Start: 2, Dur: 4, Magnitude: 1.5},
	}}
	in := NewInjector(s, 1)
	tr := in.Drain(9)
	if len(tr) != 2 || tr[0].Event.Kind != LoadSurge || !tr[0].On || tr[1].On {
		t.Fatalf("drain(9) = %+v", tr)
	}
	tr = in.Drain(100)
	if len(tr) != 2 || tr[0].Event.Kind != StackDropout || !tr[0].On || tr[1].On {
		t.Fatalf("drain(100) = %+v", tr)
	}
	if tr := in.Drain(1e9); len(tr) != 0 {
		t.Fatalf("drain after exhaustion = %+v", tr)
	}
}

func TestNoisyDeterministic(t *testing.T) {
	a := NewInjector(&Schedule{}, 7)
	b := NewInjector(&Schedule{}, 7)
	for i := 0; i < 100; i++ {
		va, vb := a.Noisy(10, 0.3), b.Noisy(10, 0.3)
		if va != vb {
			t.Fatalf("draw %d differs: %v vs %v", i, va, vb)
		}
		if va < 0 {
			t.Fatalf("negative noisy value %v", va)
		}
	}
	if a.Noisy(5, 0) != 5 {
		t.Fatal("zero sigma must be identity")
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("bad name accepted")
	}
}

// TestFadeStoreApplyBoundaries pins the truncation arithmetic at its
// edges: a zero-length step must be a no-op whatever the current, a
// full buffer must bleed the entire inflow, a discharge spanning a fade
// step must see the updated capacity, and Lost must accumulate across
// repeated fades.
func TestFadeStoreApplyBoundaries(t *testing.T) {
	// dt == 0 with positive current: no charge moves, nothing bleeds.
	fs := NewFadeStore(storage.MustSuperCap(10, 4))
	fl := fs.Apply(3, 0)
	if fl.Stored != 0 || fl.Bled != 0 || fl.Deficit != 0 {
		t.Fatalf("dt=0 flow = %+v, want zero", fl)
	}
	if fs.Charge() != 4 {
		t.Fatalf("dt=0 moved charge: %v", fs.Charge())
	}

	// room == 0: the full inflow bleeds, the inner element sees a
	// zero-current step, and charge stays pinned at the faded capacity.
	fs = NewFadeStore(storage.MustSuperCap(10, 8))
	fs.SetScale(0.8) // capacity 8, charge already 8 → room 0
	fl = fs.Apply(2.5, 4)
	if fl.Stored != 0 || math.Abs(fl.Bled-10) > 1e-12 {
		t.Fatalf("room=0 flow = %+v, want all 10 A-s bled", fl)
	}
	if fs.Charge() != 8 {
		t.Fatalf("room=0 charge = %v, want 8", fs.Charge())
	}

	// Discharge across a fade step: the drain obeys the faded capacity
	// in force at each step, and the charge clamp happens at SetScale.
	fs = NewFadeStore(storage.MustSuperCap(10, 6))
	fs.SetScale(0.5) // capacity 5; 1 A-s lost immediately
	if fs.Lost != 1 || fs.Charge() != 5 {
		t.Fatalf("fade step: lost %v charge %v", fs.Lost, fs.Charge())
	}
	fl = fs.Apply(-2, 2) // drain 4 A-s of the remaining 5
	if math.Abs(fl.Stored-(-4)) > 1e-12 || fl.Deficit != 0 {
		t.Fatalf("post-fade discharge flow = %+v", fl)
	}
	if math.Abs(fs.Charge()-1) > 1e-12 {
		t.Fatalf("post-fade charge = %v, want 1", fs.Charge())
	}

	// Cumulative Lost bookkeeping across repeated fades.
	fs.SetCharge(5)
	fs.SetScale(0.3) // capacity 3: +2 lost on top of the earlier 1
	if math.Abs(fs.Lost-3) > 1e-12 {
		t.Fatalf("cumulative lost = %v, want 3", fs.Lost)
	}
	fs.SetScale(0.1) // capacity 1: +2 more
	if math.Abs(fs.Lost-5) > 1e-12 {
		t.Fatalf("cumulative lost = %v, want 5", fs.Lost)
	}
}

// TestFadeStoreSetScaleClamps pins the out-of-range behavior: scales at
// or below zero clamp to a dead-but-positive buffer, scales above one
// clamp to nominal, and neither produces NaN capacity.
func TestFadeStoreSetScaleClamps(t *testing.T) {
	fs := NewFadeStore(storage.MustSuperCap(10, 5))
	fs.SetScale(0)
	if fs.scale != 1e-9 {
		t.Fatalf("scale(0) = %v, want 1e-9", fs.scale)
	}
	if c := fs.Capacity(); c != 1e-8 {
		t.Fatalf("dead capacity = %v, want 1e-8", c)
	}
	fs.SetScale(-3)
	if fs.scale != 1e-9 {
		t.Fatalf("scale(-3) = %v, want 1e-9", fs.scale)
	}
	fs.SetScale(7)
	if fs.scale != 1 {
		t.Fatalf("scale(7) = %v, want 1", fs.scale)
	}
	if fs.Capacity() != 10 {
		t.Fatalf("recovered capacity = %v", fs.Capacity())
	}
}

// TestFadeStoreRestoreFrom pins the Restorer capability faulted run
// reuse depends on: scale and Lost must come back along with the inner
// element's charge, and mismatched shapes must refuse without mutating.
func TestFadeStoreRestoreFrom(t *testing.T) {
	work := NewFadeStore(storage.MustSuperCap(10, 8))
	work.SetScale(0.5)
	work.Apply(-1, 2)
	snap := NewFadeStore(storage.MustSuperCap(10, 8))
	if !work.RestoreFrom(snap) {
		t.Fatal("RestoreFrom(same-shape snapshot) failed")
	}
	if work.scale != 1 || work.Lost != 0 || work.Charge() != 8 || work.Capacity() != 10 {
		t.Fatalf("restored state: scale %v lost %v charge %v cap %v",
			work.scale, work.Lost, work.Charge(), work.Capacity())
	}
	// Restoring from a non-FadeStore or a different inner kind refuses.
	if work.RestoreFrom(storage.MustSuperCap(10, 8)) {
		t.Fatal("RestoreFrom(bare storage) must refuse")
	}
	inner, err := storage.NewLiIon(10, 0.6, 0.05, 8)
	if err != nil {
		t.Fatal(err)
	}
	liion := NewFadeStore(inner)
	if work.RestoreFrom(liion) {
		t.Fatal("RestoreFrom(different inner kind) must refuse")
	}
}

// TestInjectorReset pins the in-place rewind: after Reset, the drain
// sequence and the noise stream must replay exactly as a fresh injector.
func TestInjectorReset(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: StackDropout, Start: 10, Dur: 5},
		{Kind: LoadSurge, Start: 2, Dur: 4, Magnitude: 1.5},
	}}
	in := NewInjector(s, 42)
	firstDrain := in.Drain(100)
	var firstNoise []float64
	for i := 0; i < 10; i++ {
		firstNoise = append(firstNoise, in.Noisy(10, 0.3))
	}
	in.Reset()
	if !reflect.DeepEqual(in.Drain(100), firstDrain) {
		t.Fatal("drain sequence differs after Reset")
	}
	for i, want := range firstNoise {
		if got := in.Noisy(10, 0.3); got != want {
			t.Fatalf("noise draw %d differs after Reset: %v vs %v", i, got, want)
		}
	}
}
