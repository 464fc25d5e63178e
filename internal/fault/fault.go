// Package fault models the failure modes of the hybrid power source so
// that policies can be evaluated under the conditions real deployments
// actually see: fuel-cell stack dropout and voltage droop, membrane
// dry-out (efficiency degradation), charge-storage capacity fade, DC-DC
// converter brown-outs, dirty sensors feeding the predictors, and load
// surges beyond the traced workload.
//
// A fault run is described by a Schedule — a list of timed Events — that
// is deterministic and seed-reproducible: the same schedule over the same
// trace yields byte-identical simulation results. The simulator composes
// the events active at any instant into a State (a set of derating
// factors) and integrates each constant-load piece exactly between fault
// boundaries, so the analytical-integration guarantee of the sim package
// survives fault injection.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind identifies a fault class.
type Kind int

// Fault classes, roughly ordered from source to load.
const (
	// StackDropout cuts the FC system output entirely for the event
	// window — a stack stall, fuel starvation, or emergency shutdown.
	// Magnitude is ignored (delivery scale is 0).
	StackDropout Kind = iota
	// StackDerate limits the deliverable FC output to a fraction of the
	// nominal maximum — voltage droop under ageing or partial cell
	// failure. Magnitude is the remaining fraction in (0, 1).
	StackDerate
	// EfficiencyDegrade models membrane dry-out / catalyst poisoning:
	// the efficiency curve drops (α↓, β↑), so every delivered amp burns
	// more fuel. Magnitude is the fractional efficiency loss in [0, 1);
	// fuel per amp scales by 1/(1−Magnitude).
	EfficiencyDegrade
	// CapacityFade shrinks the charge-storage capacity — supercapacitor
	// ESR growth or battery fade. Magnitude is the remaining capacity
	// fraction in (0, 1]. Charge above the faded capacity is lost.
	CapacityFade
	// DCDCDropout is a converter brown-out: no power reaches the bus for
	// the event window. Electrically equivalent to StackDropout for the
	// charge balance, but logged as its own class. Magnitude is ignored.
	DCDCDropout
	// SensorNoise corrupts the measurements feeding the period/current
	// predictors with multiplicative Gaussian noise. Magnitude is the
	// relative standard deviation (e.g. 0.3 = 30 %).
	SensorNoise
	// LoadSurge scales the embedded-system load current — a thermal
	// event, a stuck peripheral, or traffic beyond the traced workload.
	// Magnitude is the multiplier (> 1).
	LoadSurge

	numKinds = iota
)

// Kinds lists every fault class once, in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// String names the fault class.
func (k Kind) String() string {
	switch k {
	case StackDropout:
		return "stack-dropout"
	case StackDerate:
		return "stack-derate"
	case EfficiencyDegrade:
		return "efficiency-degrade"
	case CapacityFade:
		return "capacity-fade"
	case DCDCDropout:
		return "dcdc-dropout"
	case SensorNoise:
		return "sensor-noise"
	case LoadSurge:
		return "load-surge"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a fault-class name as printed by Kind.String.
func ParseKind(name string) (Kind, error) {
	for _, k := range Kinds() {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown fault kind %q", name)
}

// Event is one scheduled fault: a class, an onset time, a duration, and a
// class-specific magnitude (see the Kind constants for semantics).
type Event struct {
	Kind  Kind    `json:"kind"`
	Start float64 `json:"start"`    // onset, seconds of simulated time
	Dur   float64 `json:"duration"` // seconds; +Inf or <= 0 means permanent
	// Magnitude is the class-specific severity; 0 selects a sensible
	// default severity for the class.
	Magnitude float64 `json:"magnitude"`
}

// End returns the instant the event clears, +Inf for permanent faults.
func (e Event) End() float64 {
	if e.Dur <= 0 || math.IsInf(e.Dur, 1) {
		return math.Inf(1)
	}
	return e.Start + e.Dur
}

// active reports whether the event covers instant t. Intervals are
// half-open [Start, End) so adjacent events compose without overlap.
func (e Event) active(t float64) bool { return t >= e.Start && t < e.End() }

// defaultMagnitude supplies the class default when Magnitude is zero.
func (e Event) defaultMagnitude() float64 {
	if e.Magnitude != 0 {
		return e.Magnitude
	}
	switch e.Kind {
	case StackDerate:
		return 0.5 // half the nominal ceiling remains
	case EfficiencyDegrade:
		return 0.25 // 25 % efficiency loss
	case CapacityFade:
		return 0.5 // half the capacity remains
	case SensorNoise:
		return 0.3 // 30 % relative noise
	case LoadSurge:
		return 1.5 // 50 % overload
	default:
		return 0
	}
}

// Validate reports whether the event is well-formed.
func (e Event) Validate() error {
	if e.Kind < 0 || int(e.Kind) >= numKinds {
		return fmt.Errorf("fault: unknown kind %d", int(e.Kind))
	}
	if e.Start < 0 || math.IsNaN(e.Start) || math.IsInf(e.Start, 0) {
		return fmt.Errorf("fault: %s event with bad start %v", e.Kind, e.Start)
	}
	if math.IsNaN(e.Dur) || math.IsInf(e.Dur, -1) {
		return fmt.Errorf("fault: %s event with bad duration %v", e.Kind, e.Dur)
	}
	m := e.defaultMagnitude()
	switch e.Kind {
	case StackDerate:
		if m <= 0 || m >= 1 {
			return fmt.Errorf("fault: stack-derate magnitude %v outside (0, 1)", m)
		}
	case EfficiencyDegrade:
		if m < 0 || m >= 1 {
			return fmt.Errorf("fault: efficiency-degrade magnitude %v outside [0, 1)", m)
		}
	case CapacityFade:
		if m <= 0 || m > 1 {
			return fmt.Errorf("fault: capacity-fade magnitude %v outside (0, 1]", m)
		}
	case SensorNoise:
		if m < 0 {
			return fmt.Errorf("fault: negative sensor-noise magnitude %v", m)
		}
	case LoadSurge:
		if m <= 0 {
			return fmt.Errorf("fault: non-positive load-surge magnitude %v", m)
		}
	}
	return nil
}

// State is the composed effect of all faults active at one instant. The
// zero value is NOT nominal; use Nominal().
type State struct {
	// DeliveryScale multiplies the maximum deliverable FC output
	// (1 nominal, 0 during a dropout). Requested output above the scaled
	// ceiling is simply not delivered; the storage covers the difference
	// or a deficit results.
	DeliveryScale float64
	// FuelScale multiplies the stack current drawn per delivered amp
	// (≥ 1 under efficiency degradation).
	FuelScale float64
	// CapacityScale multiplies the storage capacity (≤ 1 under fade).
	CapacityScale float64
	// SensorSigma is the relative stddev of multiplicative noise applied
	// to the measurements the predictors observe (0 = clean).
	SensorSigma float64
	// LoadScale multiplies the embedded-system load current.
	LoadScale float64
}

// Nominal returns the no-fault state.
func Nominal() State {
	return State{DeliveryScale: 1, FuelScale: 1, CapacityScale: 1, SensorSigma: 0, LoadScale: 1}
}

// apply folds one event into the state.
func (s State) apply(e Event) State {
	m := e.defaultMagnitude()
	switch e.Kind {
	case StackDropout, DCDCDropout:
		s.DeliveryScale = 0
	case StackDerate:
		s.DeliveryScale *= m
	case EfficiencyDegrade:
		s.FuelScale /= 1 - m
	case CapacityFade:
		s.CapacityScale *= m
	case SensorNoise:
		if m > s.SensorSigma {
			s.SensorSigma = m
		}
	case LoadSurge:
		s.LoadScale *= m
	}
	return s
}

// Schedule is a deterministic fault plan: a set of events over simulated
// time. The zero value is an empty (all-nominal) schedule.
type Schedule struct {
	Events []Event
}

// Validate checks every event.
func (s *Schedule) Validate() error {
	for i, e := range s.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("fault: event %d: %w", i, err)
		}
	}
	return nil
}

// Empty reports whether the schedule has no events.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// StateAt composes the events active at instant t.
func (s *Schedule) StateAt(t float64) State {
	st := Nominal()
	if s == nil {
		return st
	}
	for _, e := range s.Events {
		if e.active(t) {
			st = st.apply(e)
		}
	}
	return st
}

// Boundaries returns the sorted distinct instants at which the composed
// fault state can change (event starts and ends), ignoring non-finite
// ends.
func (s *Schedule) Boundaries() []float64 {
	if s == nil {
		return nil
	}
	var bs []float64
	for _, e := range s.Events {
		bs = append(bs, e.Start)
		if end := e.End(); !math.IsInf(end, 1) {
			bs = append(bs, end)
		}
	}
	sort.Float64s(bs)
	out := bs[:0]
	for i, b := range bs {
		if i == 0 || b != out[len(out)-1] {
			out = append(out, b)
		}
	}
	return out
}

// String summarizes the schedule for logs.
func (s *Schedule) String() string {
	if s.Empty() {
		return "fault schedule: none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault schedule (%d events):", len(s.Events))
	for _, e := range s.Events {
		if math.IsInf(e.End(), 1) {
			fmt.Fprintf(&b, " %s@%.6gs..∞", e.Kind, e.Start)
		} else {
			fmt.Fprintf(&b, " %s@%.6gs+%.6gs", e.Kind, e.Start, e.Dur)
		}
		if e.Magnitude != 0 {
			fmt.Fprintf(&b, "×%.6g", e.Magnitude)
		}
	}
	return b.String()
}
