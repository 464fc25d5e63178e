// Package storage models the charge-storage element of the hybrid power
// source: the buffer between the FC system output current IF and the
// embedded-system load current Ild (paper §2.1). It charges when IF > Ild
// and discharges when IF < Ild.
//
// The paper's experiments use a 1 F supercapacitor (≈ 100 mA-min at 12 V)
// and assume lossless charge transfer (§3.3 assumption 2); SuperCap models
// exactly that. LiIon adds the rate-capacity and recovery non-linearities
// of batteries so that ablations can demonstrate why battery-aware DPM
// does not transfer to fuel cells.
package storage

import "fmt"

// Flow describes what happened to charge over one Apply call. All values
// are non-negative amp-seconds.
type Flow struct {
	// Stored is the net change in stored charge (positive when charging,
	// negative when discharging) that the element actually absorbed or
	// supplied.
	Stored float64
	// Bled is charge that could not be stored because the element was
	// full; physically it is dissipated through the bleeder by-pass
	// (paper §3.3.1, "the excess current is dissipated through the
	// bleeder by-pass").
	Bled float64
	// Deficit is discharge demand the element could not supply because it
	// was empty — a brownout. Policies are expected to avoid this; the
	// simulator reports it so tests can assert it stays zero.
	Deficit float64
}

// Storage is a charge buffer. Implementations are single-goroutine stateful
// values; use Clone to branch a simulation.
type Storage interface {
	// Capacity returns Cmax in amp-seconds.
	Capacity() float64
	// Charge returns the currently stored charge in amp-seconds.
	Charge() float64
	// SetCharge forces the stored charge, clamped to [0, Cmax].
	SetCharge(q float64)
	// Apply integrates a constant net current (amps; positive charges,
	// negative discharges) over dt seconds and returns the resulting
	// flow accounting.
	Apply(current, dt float64) Flow
	// Clone returns an independent copy with identical state.
	Clone() Storage
}

// Restorer is an optional Storage capability: RestoreFrom copies the full
// state of src into the receiver without allocating, and reports whether
// it could (it can only when src is the same concrete type). Reusable
// simulation runners use it to rewind a working copy to a pristine
// snapshot instead of cloning per run; callers must fall back to Clone
// when it reports false.
type Restorer interface {
	RestoreFrom(src Storage) bool
}

// SuperCap is the ideal coulomb buffer the paper assumes: lossless, with a
// hard capacity Cmax and hard empty floor.
type SuperCap struct {
	cmax float64
	q    float64
}

// NewSuperCap returns a supercapacitor with capacity cmax amp-seconds,
// initially holding q0. A non-positive capacity — capacities arrive from
// scenario files and CLI flags — yields a *ConfigError.
func NewSuperCap(cmax, q0 float64) (*SuperCap, error) {
	if cmax <= 0 {
		return nil, &ConfigError{Kind: "supercap", Param: "capacity",
			Detail: fmt.Sprintf("%v is not positive", cmax)}
	}
	s := &SuperCap{cmax: cmax}
	s.SetCharge(q0)
	return s, nil
}

// MustSuperCap is NewSuperCap for compile-time-fixed parameters; it panics
// on the error a literal capacity cannot produce.
func MustSuperCap(cmax, q0 float64) *SuperCap {
	s, err := NewSuperCap(cmax, q0)
	if err != nil {
		panic(err)
	}
	return s
}

// PaperSuperCap returns the experiment's 1 F supercapacitor: "equivalent to
// 100 mA-min capacity when voltage is 12 V" = 6 A-s. It starts full, as a
// freshly charged buffer would.
func PaperSuperCap() *SuperCap { return MustSuperCap(6, 6) }

// Capacity implements Storage.
func (s *SuperCap) Capacity() float64 { return s.cmax }

// Charge implements Storage.
func (s *SuperCap) Charge() float64 { return s.q }

// SetCharge implements Storage.
func (s *SuperCap) SetCharge(q float64) {
	if q < 0 {
		q = 0
	}
	if q > s.cmax {
		q = s.cmax
	}
	s.q = q
}

// Apply implements Storage.
func (s *SuperCap) Apply(current, dt float64) Flow {
	if dt < 0 {
		panic(fmt.Sprintf("storage: negative duration %v", dt))
	}
	delta := current * dt
	var f Flow
	switch {
	case delta >= 0:
		room := s.cmax - s.q
		if delta <= room {
			s.q += delta
			f.Stored = delta
		} else {
			s.q = s.cmax
			f.Stored = room
			f.Bled = delta - room
		}
	default:
		need := -delta
		if need <= s.q {
			s.q -= need
			f.Stored = -need
		} else {
			f.Stored = -s.q
			f.Deficit = need - s.q
			s.q = 0
		}
	}
	return f
}

// Clone implements Storage.
func (s *SuperCap) Clone() Storage {
	cp := *s
	return &cp
}

// RestoreFrom implements Restorer.
func (s *SuperCap) RestoreFrom(src Storage) bool {
	o, ok := src.(*SuperCap)
	if ok {
		*s = *o
	}
	return ok
}
