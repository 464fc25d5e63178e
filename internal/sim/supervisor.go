package sim

import (
	"fmt"
	"math"

	"fcdpm/internal/fuelcell"
)

// DefaultDeficitLimit is the per-stage unmet-charge budget before the
// supervisor degrades to the next policy.
const DefaultDeficitLimit = 0.5

// chargeTolerance is the relative slack of the charge-balance invariant.
const chargeTolerance = 1e-6

// EventKind classifies entries of the run event log.
type EventKind string

// Run event kinds.
const (
	// EventFaultStart and EventFaultEnd bracket an injected fault.
	EventFaultStart EventKind = "fault-start"
	EventFaultEnd   EventKind = "fault-end"
	// EventInvariant records a violated runtime invariant.
	EventInvariant EventKind = "invariant"
	// EventFallback records the supervisor switching to the next policy
	// in the degradation chain.
	EventFallback EventKind = "fallback"
)

// RunEvent is one entry of the run's audit log: injected faults, violated
// invariants, and policy fallbacks, in time order.
type RunEvent struct {
	T      float64
	Kind   EventKind
	Detail string
}

// String formats the event for logs.
func (e RunEvent) String() string {
	return fmt.Sprintf("t=%.3fs %s: %s", e.T, e.Kind, e.Detail)
}

// InvariantError is returned (in unsupervised runs) or logged (in
// supervised runs) when a runtime invariant is violated.
type InvariantError struct {
	T      float64 // simulated time of detection, seconds
	Slot   int     // slot index
	Check  string  // which invariant: "charge-balance", "finite", "piece", "fc-range"
	Detail string
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("sim: invariant %s violated at t=%.3fs (slot %d): %s",
		e.Check, e.T, e.Slot, e.Detail)
}

// CanceledError wraps a context cancellation with the simulated time
// reached, so interrupted sweeps can report partial progress.
type CanceledError struct {
	T    float64
	Slot int
	Err  error
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run canceled at t=%.3fs (slot %d): %v", e.T, e.Slot, e.Err)
}

// Unwrap exposes the context error for errors.Is(ctx.Err()).
func (e *CanceledError) Unwrap() error { return e.Err }

// loadShed is the implicit last resort of every degradation chain: follow
// the load within the FC range and keep the system alive on whatever can
// be delivered. While it is active the supervisor accounts unmet load as
// intentionally shed charge (Result.Shed) rather than deficit, and no
// further degradation is possible.
type loadShed struct{ sys *fuelcell.System }

// Name implements Policy.
func (l loadShed) Name() string { return "load-shed" }

// Reset implements Policy.
func (l loadShed) Reset(cmax, chargeTarget float64) {}

// PlanIdle implements Policy.
func (l loadShed) PlanIdle(SlotInfo) {}

// PlanActive implements Policy.
func (l loadShed) PlanActive(SlotInfo) {}

// SegmentPlan implements Policy.
func (l loadShed) SegmentPlan(seg Segment, charge float64, buf []Piece) []Piece {
	return append(buf, Piece{IF: l.sys.Clamp(seg.Load), Dur: seg.Dur})
}

// supervised reports whether the watchdog is armed for this run: it is
// exactly when the run injects faults or configures a fallback chain;
// plain runs keep the classic fail-fast error behavior.
func (s *state) supervised() bool {
	return s.cfg.Faults != nil || len(s.cfg.Fallbacks) > 0
}

// deficitLimit returns the per-stage unmet-charge budget.
func (s *state) deficitLimit() float64 {
	if s.cfg.DeficitLimit > 0 {
		return s.cfg.DeficitLimit
	}
	return DefaultDeficitLimit
}

// chargeTol returns the absolute slack of the charge-balance invariant.
func (s *state) chargeTol() float64 {
	return chargeTolerance * math.Max(1, s.store.Capacity())
}

// shedding reports whether the run has degraded all the way to load-shed.
func (s *state) shedding() bool { return s.chainIdx == len(s.chain)-1 }

// logEvent appends one entry to the run's audit log.
func (s *state) logEvent(kind EventKind, detail string) {
	s.res.Events = append(s.res.Events, RunEvent{T: s.t, Kind: kind, Detail: detail})
}

// drainFaults moves injector transitions up to the current time into the
// event log.
func (s *state) drainFaults() {
	if s.inj == nil {
		return
	}
	for _, tr := range s.inj.Drain(s.t) {
		kind := EventFaultStart
		if !tr.On {
			kind = EventFaultEnd
		}
		detail := tr.Event.Kind.String()
		if tr.Event.Magnitude != 0 {
			detail = fmt.Sprintf("%s (magnitude %.4g)", detail, tr.Event.Magnitude)
		}
		s.res.Events = append(s.res.Events, RunEvent{T: tr.T, Kind: kind, Detail: detail})
	}
}

// degrade advances the fallback chain after a supervisor trip. It reports
// whether a further stage was available; at the end of the chain the trip
// is logged but nothing changes.
func (s *state) degrade(reason string) bool {
	if s.shedding() {
		s.logEvent(EventInvariant, fmt.Sprintf("%s (already at %s; no further fallback)", reason, s.pol.Name()))
		return false
	}
	from := s.pol.Name()
	s.setPolicy(s.chainIdx + 1)
	cap := s.store.Capacity()
	s.pol.Reset(cap, math.Min(s.chargeTarget, cap))
	s.tripDeficit = 0
	s.res.Fallbacks++
	s.logEvent(EventFallback, fmt.Sprintf("%s -> %s: %s", from, s.pol.Name(), reason))
	return true
}

// checkPieces validates a policy's segment plan. The basic sanity checks
// (finite, non-negative, exact tiling) always apply; the FC-range check is
// a supervised-only invariant because the classic simulator accepted
// out-of-range requests and clamping behavior is policy-specific.
func (s *state) checkPieces(seg Segment, pieces []Piece) *InvariantError {
	var total float64
	for _, p := range pieces {
		if p.Dur < 0 || math.IsNaN(p.Dur) || math.IsInf(p.Dur, 0) {
			return &InvariantError{T: s.t, Slot: s.res.Slots, Check: "piece",
				Detail: fmt.Sprintf("policy %s returned piece duration %v", s.pol.Name(), p.Dur)}
		}
		if p.IF < 0 || math.IsNaN(p.IF) || math.IsInf(p.IF, 0) {
			return &InvariantError{T: s.t, Slot: s.res.Slots, Check: "piece",
				Detail: fmt.Sprintf("policy %s returned piece current %v", s.pol.Name(), p.IF)}
		}
		if s.supervised() && p.IF > s.cfg.Sys.MaxOutput*(1+1e-9) {
			return &InvariantError{T: s.t, Slot: s.res.Slots, Check: "fc-range",
				Detail: fmt.Sprintf("policy %s requested %v A above the load-following ceiling %v A",
					s.pol.Name(), p.IF, s.cfg.Sys.MaxOutput)}
		}
		total += p.Dur
	}
	if math.Abs(total-seg.Dur) > 1e-6*math.Max(1, seg.Dur) {
		return &InvariantError{T: s.t, Slot: s.res.Slots, Check: "piece",
			Detail: fmt.Sprintf("policy %s pieces cover %v s of a %v s segment", s.pol.Name(), total, seg.Dur)}
	}
	return nil
}

// postChecks verifies the always-on run invariants after a segment: the
// storage level stays within [0, Cmax] (within tolerance) and every
// accumulated quantity is finite.
func (s *state) postChecks() *InvariantError {
	q, cap := s.store.Charge(), s.store.Capacity()
	tol := s.chargeTol()
	if math.IsNaN(q) || math.IsInf(q, 0) || q < -tol || q > cap+tol {
		return &InvariantError{T: s.t, Slot: s.res.Slots, Check: "charge-balance",
			Detail: fmt.Sprintf("storage charge %v outside [0, %v]", q, cap)}
	}
	if math.IsNaN(s.res.Fuel) || math.IsInf(s.res.Fuel, 0) {
		return &InvariantError{T: s.t, Slot: s.res.Slots, Check: "finite",
			Detail: fmt.Sprintf("fuel total %v", s.res.Fuel)}
	}
	if math.IsNaN(s.res.Deficit) || math.IsInf(s.res.Deficit, 0) ||
		math.IsNaN(s.res.Bled) || math.IsInf(s.res.Bled, 0) {
		return &InvariantError{T: s.t, Slot: s.res.Slots, Check: "finite",
			Detail: fmt.Sprintf("deficit %v / bled %v", s.res.Deficit, s.res.Bled)}
	}
	return nil
}
