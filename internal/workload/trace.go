// Package workload defines the load timing profile of the embedded system —
// a sequence of task slots, each an idle period followed by an active
// period (paper §3.1) — together with generators for the paper's two
// experiments and trace serialization.
package workload

import (
	"errors"
	"fmt"
	"math"

	"fcdpm/internal/numeric"
)

// Slot is one task slot: an idle period of length Idle seconds followed by
// an active period of length Active seconds during which the load draws
// ActiveCurrent amps. The idle-period current is not part of the trace; it
// is determined by the device model and the DPM policy's sleep decision.
type Slot struct {
	Idle          float64 `json:"idle"`
	Active        float64 `json:"active"`
	ActiveCurrent float64 `json:"activeCurrent"`
}

// Validate reports whether the slot is physically meaningful: every
// field must be finite and non-negative, and the slot must span positive
// time (a zero idle period is legal — back-to-back work — but a slot
// whose total duration is non-positive would let crafted traces drive
// negative or NaN timestep arithmetic into the storage integrators,
// which panic on negative durations). Violations surface as a typed
// *ValidationError so callers can map them to client faults.
func (s Slot) Validate() error {
	switch {
	case s.Idle < 0 || !isFinite(s.Idle):
		return &ValidationError{Slot: -1, Field: "idle", Value: s.Idle}
	case s.Active < 0 || !isFinite(s.Active):
		return &ValidationError{Slot: -1, Field: "active", Value: s.Active}
	case s.ActiveCurrent < 0 || !isFinite(s.ActiveCurrent):
		return &ValidationError{Slot: -1, Field: "activeCurrent", Value: s.ActiveCurrent}
	case s.Idle+s.Active <= 0:
		return &ValidationError{Slot: -1, Field: "duration", Value: s.Idle + s.Active}
	}
	return nil
}

// isFinite reports whether v is neither NaN nor an infinity. NaN slips
// through plain sign checks (NaN < 0 is false), so finiteness must be
// tested explicitly.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Trace is a sequence of task slots with a descriptive name.
type Trace struct {
	Name  string `json:"name"`
	Slots []Slot `json:"slots"`
}

// Validate checks every slot, pinning errors to their slot index.
func (t *Trace) Validate() error {
	for k, s := range t.Slots {
		if err := s.Validate(); err != nil {
			var ve *ValidationError
			if errors.As(err, &ve) {
				return ve.at(k)
			}
			return fmt.Errorf("slot %d: %w", k, err)
		}
	}
	return nil
}

// Duration returns the total trace length in seconds (idle + active,
// excluding DPM transition overheads, which depend on policy decisions).
func (t *Trace) Duration() float64 {
	var d float64
	for _, s := range t.Slots {
		d += s.Idle + s.Active
	}
	return d
}

// Len returns the number of slots.
func (t *Trace) Len() int { return len(t.Slots) }

// IdleLengths returns the idle-period series, the input to idle-period
// predictors.
func (t *Trace) IdleLengths() []float64 {
	out := make([]float64, len(t.Slots))
	for k, s := range t.Slots {
		out[k] = s.Idle
	}
	return out
}

// ActiveLengths returns the active-period series.
func (t *Trace) ActiveLengths() []float64 {
	out := make([]float64, len(t.Slots))
	for k, s := range t.Slots {
		out[k] = s.Active
	}
	return out
}

// ActiveCurrents returns the active-current series.
func (t *Trace) ActiveCurrents() []float64 {
	out := make([]float64, len(t.Slots))
	for k, s := range t.Slots {
		out[k] = s.ActiveCurrent
	}
	return out
}

// Stats summarizes a trace for reports.
type Stats struct {
	Slots           int
	Duration        float64
	Idle            numeric.Summary
	Active          numeric.Summary
	ActiveCurrent   numeric.Summary
	ActiveDutyCycle float64 // fraction of time spent active
}

// Statistics computes summary statistics of the trace.
func (t *Trace) Statistics() Stats {
	st := Stats{
		Slots:         t.Len(),
		Duration:      t.Duration(),
		Idle:          numeric.Summarize(t.IdleLengths()),
		Active:        numeric.Summarize(t.ActiveLengths()),
		ActiveCurrent: numeric.Summarize(t.ActiveCurrents()),
	}
	if st.Duration > 0 {
		st.ActiveDutyCycle = st.Active.Sum / st.Duration
	}
	return st
}
