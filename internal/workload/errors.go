package workload

import "fmt"

// ValidationError reports a trace record whose timing fields are not
// physically meaningful. It is a typed error so transport layers can
// distinguish a malformed trace (client fault) from an engine failure:
// the CLI maps it to exit code 1 and the server to HTTP 400.
type ValidationError struct {
	Slot  int     // slot index within the trace, -1 for a standalone slot
	Field string  // "idle", "active", "activeCurrent", or "duration"
	Value float64 // the offending value
}

func (e *ValidationError) Error() string {
	where := "slot"
	if e.Slot >= 0 {
		where = fmt.Sprintf("slot %d", e.Slot)
	}
	return fmt.Sprintf("workload: %s: invalid %s %v", where, e.Field, e.Value)
}

// MaxSlots caps the slots a generator emits, so that no configured
// duration builds a trace that exhausts memory. It admits the longest
// traces committed specs and tests ask for by a factor of two or more: a
// 3e7 s synthetic trace of about 1.67 million slots, and a 4e6 s DVS
// trace of one slot per second.
const MaxSlots = 1 << 23

// errTooLong is the error of a generator whose trace would pass MaxSlots.
func errTooLong(duration float64) error {
	return &ValidationError{Slot: MaxSlots, Field: "duration", Value: duration}
}

// at returns a copy of the error pinned to a slot index, so Trace-level
// validation can reuse Slot-level checks without re-wrapping.
func (e *ValidationError) at(k int) *ValidationError {
	c := *e
	c.Slot = k
	return &c
}
