// Package policy implements the FC-system output-control policies the
// paper evaluates:
//
//   - Conv-DPM: no fuel-flow control; the FC is pinned at the top of its
//     load-following range (§5, "Ifc is always set to 1.3 A").
//   - ASAP-DPM: the FC follows the load as closely as possible, with a
//     recharge-ASAP rule when the storage drops below half capacity.
//   - FC-DPM: the paper's contribution (Fig 5) — per-slot fuel-optimal
//     flat output from the fcopt framework, planned from predictions at
//     idle start and re-planned from actuals at active start.
//   - Flat: a fixed-output policy used as the offline "oracle" lower bound
//     (by convexity, the best capacity-unconstrained setting is the
//     demand-weighted average current).
//
// All policies split their segment plans at storage-full/-empty boundaries
// so that bleed and deficit only occur where the physics forces them
// (range floor with a full store, range ceiling with an empty one).
package policy

import (
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/sim"
)

// Conv is the Conv-DPM baseline: the FC constantly delivers the current
// matching the highest load profile; there is no fuel-flow control at all,
// so fuel burns at the maximum rate regardless of storage state.
type Conv struct {
	sys *fuelcell.System
}

// NewConv returns the Conv-DPM baseline over the given FC system.
func NewConv(sys *fuelcell.System) *Conv { return &Conv{sys: sys} }

// Name implements sim.Policy.
func (c *Conv) Name() string { return "Conv-DPM" }

// Reset implements sim.Policy.
func (c *Conv) Reset(cmax, chargeTarget float64) {}

// PlanIdle implements sim.Policy.
func (c *Conv) PlanIdle(sim.SlotInfo) {}

// PlanActive implements sim.Policy.
func (c *Conv) PlanActive(sim.SlotInfo) {}

// SegmentPlan implements sim.Policy: always the top of the range.
func (c *Conv) SegmentPlan(seg sim.Segment, charge float64, buf []sim.Piece) []sim.Piece {
	return append(buf, sim.Piece{IF: c.sys.MaxOutput, Dur: seg.Dur})
}

// Flat holds a fixed FC output for the whole run — the offline optimum for
// an unconstrained storage (Jensen), and a useful ablation point. The
// output is clamped to the load-following range at construction.
type Flat struct {
	sys *fuelcell.System
	IF  float64
}

// NewFlat returns a fixed-output policy at iF (clamped to range).
func NewFlat(sys *fuelcell.System, iF float64) *Flat {
	return &Flat{sys: sys, IF: sys.Clamp(iF)}
}

// Name implements sim.Policy.
func (f *Flat) Name() string { return "Flat" }

// Reset implements sim.Policy.
func (f *Flat) Reset(cmax, chargeTarget float64) {}

// PlanIdle implements sim.Policy.
func (f *Flat) PlanIdle(sim.SlotInfo) {}

// PlanActive implements sim.Policy.
func (f *Flat) PlanActive(sim.SlotInfo) {}

// SegmentPlan implements sim.Policy.
func (f *Flat) SegmentPlan(seg sim.Segment, charge float64, buf []sim.Piece) []sim.Piece {
	return append(buf, sim.Piece{IF: f.IF, Dur: seg.Dur})
}

// splitAtFull plans a constant output iF but drops to the range-clamped
// load current once the storage fills, so charge is not pointlessly bled.
// If even the clamped load overfills (load below the range floor), the
// remainder bleeds — the paper's bleeder by-pass case. The plan is
// appended to buf (which may be nil) so callers on the simulator's hot
// path can reuse one buffer across segments.
func splitAtFull(buf []sim.Piece, sys *fuelcell.System, seg sim.Segment, charge, cmax, iF float64) []sim.Piece {
	net := iF - seg.Load
	if net <= 0 {
		return append(buf, sim.Piece{IF: iF, Dur: seg.Dur})
	}
	tFull := (cmax - charge) / net
	if tFull >= seg.Dur {
		return append(buf, sim.Piece{IF: iF, Dur: seg.Dur})
	}
	hold := sys.Clamp(seg.Load)
	if tFull <= 0 {
		return append(buf, sim.Piece{IF: hold, Dur: seg.Dur})
	}
	return append(buf,
		sim.Piece{IF: iF, Dur: tFull},
		sim.Piece{IF: hold, Dur: seg.Dur - tFull},
	)
}

// splitAtEmpty plans a constant output iF but rises to the range-clamped
// load current once the storage empties, avoiding brownout where the range
// allows. Appends to buf like splitAtFull.
func splitAtEmpty(buf []sim.Piece, sys *fuelcell.System, seg sim.Segment, charge, iF float64) []sim.Piece {
	net := iF - seg.Load
	if net >= 0 {
		return append(buf, sim.Piece{IF: iF, Dur: seg.Dur})
	}
	tEmpty := charge / -net
	if tEmpty >= seg.Dur {
		return append(buf, sim.Piece{IF: iF, Dur: seg.Dur})
	}
	hold := sys.Clamp(seg.Load)
	if tEmpty <= 0 {
		return append(buf, sim.Piece{IF: hold, Dur: seg.Dur})
	}
	return append(buf,
		sim.Piece{IF: iF, Dur: tEmpty},
		sim.Piece{IF: hold, Dur: seg.Dur - tEmpty},
	)
}

var (
	_ sim.Policy = (*Conv)(nil)
	_ sim.Policy = (*Flat)(nil)
)
