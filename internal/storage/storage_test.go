package storage

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestPaperSuperCap(t *testing.T) {
	s := PaperSuperCap()
	if s.Capacity() != 6 {
		t.Fatalf("capacity = %v A-s, want 6 (100 mA-min)", s.Capacity())
	}
	if s.Charge() != 6 {
		t.Fatalf("initial charge = %v, want full", s.Charge())
	}
}

func TestSuperCapChargeDischarge(t *testing.T) {
	s := MustSuperCap(10, 5)
	f := s.Apply(0.5, 4) // +2 A-s
	if f.Stored != 2 || f.Bled != 0 || f.Deficit != 0 {
		t.Fatalf("charge flow = %+v", f)
	}
	if s.Charge() != 7 {
		t.Fatalf("charge = %v, want 7", s.Charge())
	}
	f = s.Apply(-1, 3) // -3 A-s
	if f.Stored != -3 || f.Deficit != 0 {
		t.Fatalf("discharge flow = %+v", f)
	}
	if s.Charge() != 4 {
		t.Fatalf("charge = %v, want 4", s.Charge())
	}
}

func TestSuperCapOverflowBleeds(t *testing.T) {
	s := MustSuperCap(10, 9)
	f := s.Apply(1, 5) // +5 into 1 A-s of room
	if f.Stored != 1 || f.Bled != 4 {
		t.Fatalf("flow = %+v, want Stored=1 Bled=4", f)
	}
	if s.Charge() != 10 {
		t.Fatalf("charge = %v, want full", s.Charge())
	}
}

func TestSuperCapUnderflowDeficit(t *testing.T) {
	s := MustSuperCap(10, 2)
	f := s.Apply(-1, 5) // -5 from 2 A-s
	if f.Stored != -2 || f.Deficit != 3 {
		t.Fatalf("flow = %+v, want Stored=-2 Deficit=3", f)
	}
	if s.Charge() != 0 {
		t.Fatalf("charge = %v, want 0", s.Charge())
	}
}

func TestSuperCapZeroCurrent(t *testing.T) {
	s := MustSuperCap(10, 5)
	f := s.Apply(0, 100)
	if f != (Flow{}) || s.Charge() != 5 {
		t.Fatalf("idle should be a no-op: %+v, q=%v", f, s.Charge())
	}
}

func TestSuperCapSetChargeClamps(t *testing.T) {
	s := MustSuperCap(10, 0)
	s.SetCharge(-5)
	if s.Charge() != 0 {
		t.Errorf("negative SetCharge gave %v", s.Charge())
	}
	s.SetCharge(50)
	if s.Charge() != 10 {
		t.Errorf("overfull SetCharge gave %v", s.Charge())
	}
}

func TestSuperCapBadConfig(t *testing.T) {
	// A non-positive capacity is user input (scenario files, flags): it
	// must come back as a typed ConfigError, not a panic.
	for _, cmax := range []float64{0, -3} {
		_, err := NewSuperCap(cmax, 0)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("NewSuperCap(%v, 0) err = %v, want *ConfigError", cmax, err)
		}
		if ce.Kind != "supercap" || ce.Param != "capacity" {
			t.Fatalf("ConfigError = %+v", ce)
		}
	}
	t.Run("must panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("MustSuperCap accepted a non-positive capacity")
			}
		}()
		MustSuperCap(0, 0)
	})
	t.Run("negative duration still panics", func(t *testing.T) {
		// Integrating over a negative dt is a programming error, not
		// configuration; the panic stays.
		defer func() {
			if recover() == nil {
				t.Fatal("negative duration accepted")
			}
		}()
		MustSuperCap(1, 0).Apply(1, -1)
	})
}

func TestSuperCapClone(t *testing.T) {
	s := MustSuperCap(10, 5)
	c := s.Clone()
	c.Apply(1, 3)
	if s.Charge() != 5 {
		t.Fatal("clone mutated the original")
	}
	if c.Charge() != 8 {
		t.Fatalf("clone charge = %v", c.Charge())
	}
}

// Property: charge conservation — stored + bled + deficit accounts exactly
// for the applied amp-seconds, and charge stays within [0, Cmax].
func TestSuperCapConservation(t *testing.T) {
	f := func(q0raw, iraw, dtraw float64) bool {
		if math.IsNaN(q0raw) || math.IsNaN(iraw) || math.IsNaN(dtraw) ||
			math.IsInf(q0raw, 0) || math.IsInf(iraw, 0) || math.IsInf(dtraw, 0) {
			return true
		}
		q0 := math.Abs(math.Mod(q0raw, 10))
		i := math.Mod(iraw, 5)
		dt := math.Abs(math.Mod(dtraw, 100))
		s := MustSuperCap(10, q0)
		before := s.Charge()
		fl := s.Apply(i, dt)
		after := s.Charge()
		applied := i * dt
		if math.Abs((after-before)-fl.Stored) > 1e-9 {
			return false
		}
		var balance float64
		if applied >= 0 {
			balance = fl.Stored + fl.Bled
		} else {
			balance = fl.Stored - fl.Deficit
		}
		if math.Abs(balance-applied) > 1e-9 {
			return false
		}
		return after >= -1e-12 && after <= 10+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestLiIonValidation(t *testing.T) {
	if _, err := NewLiIon(0, 0.5, 0.01, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewLiIon(10, 0, 0.01, 0); err == nil {
		t.Error("zero well fraction accepted")
	}
	if _, err := NewLiIon(10, 1, 0.01, 0); err == nil {
		t.Error("unit well fraction accepted")
	}
	if _, err := NewLiIon(10, 0.5, 0, 0); err == nil {
		t.Error("zero rate constant accepted")
	}
}

func TestLiIonRateCapacityEffect(t *testing.T) {
	// Drain the same total charge slowly vs. quickly: the fast drain must
	// hit a deficit sooner (stranded bound charge).
	slow, err := NewLiIon(100, 0.4, 0.001, 100)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewLiIon(100, 0.4, 0.001, 100)
	if err != nil {
		t.Fatal(err)
	}
	fSlow := slow.Apply(-0.5, 160) // 80 A-s over 160 s
	fFast := fast.Apply(-8, 10)    // 80 A-s over 10 s
	if fFast.Deficit <= fSlow.Deficit {
		t.Fatalf("rate-capacity effect missing: fast deficit %v <= slow %v",
			fFast.Deficit, fSlow.Deficit)
	}
}

func TestLiIonRecoveryEffect(t *testing.T) {
	b, err := NewLiIon(100, 0.4, 0.005, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the available well hard.
	b.Apply(-8, 5)
	availAfterBurst := b.y1
	// Rest: bound charge should migrate back into the available well.
	b.Apply(0, 60)
	if b.y1 <= availAfterBurst {
		t.Fatalf("recovery effect missing: available %v -> %v",
			availAfterBurst, b.y1)
	}
}

func TestLiIonChargeBounds(t *testing.T) {
	b, err := NewLiIon(10, 0.5, 0.01, 9.5)
	if err != nil {
		t.Fatal(err)
	}
	f := b.Apply(2, 10) // 20 A-s into 0.5 A-s of room
	if f.Bled < 19 {
		t.Errorf("bleed = %v, want ~19.5", f.Bled)
	}
	if b.Charge() > 10+1e-9 {
		t.Errorf("charge %v exceeds capacity", b.Charge())
	}
}

func TestLiIonSetChargeEquilibrium(t *testing.T) {
	b, err := NewLiIon(10, 0.3, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.SetCharge(5)
	if math.Abs(b.y1-1.5) > 1e-9 {
		t.Errorf("available = %v, want 1.5 (c fraction)", b.y1)
	}
	if math.Abs(b.Charge()-5) > 1e-9 {
		t.Errorf("total = %v, want 5", b.Charge())
	}
}

func TestLiIonClone(t *testing.T) {
	b, err := NewLiIon(10, 0.5, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := b.Clone()
	c.Apply(-1, 2)
	if b.Charge() != 5 {
		t.Fatal("clone mutated the original")
	}
}

func TestLiIonZeroDt(t *testing.T) {
	b, err := NewLiIon(10, 0.5, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	if f := b.Apply(3, 0); f != (Flow{}) {
		t.Fatalf("zero-dt flow = %+v", f)
	}
}

// Property: LiIon total charge stays within [0, Cmax] under any bounded
// current program.
func TestLiIonBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		b, err := NewLiIon(20, 0.4, 0.01, 10)
		if err != nil {
			return false
		}
		x := seed
		for s := 0; s < 20; s++ {
			x = x*6364136223846793005 + 1442695040888963407
			i := float64(int64(x%200))/10 - 10 // [-10, 10) A
			x = x*6364136223846793005 + 1442695040888963407
			dt := float64(x%50) / 10 // [0, 5) s
			b.Apply(i, dt)
			q := b.Charge()
			if q < -1e-9 || q > 20+1e-9 {
				return false
			}
			if b.y1 < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
