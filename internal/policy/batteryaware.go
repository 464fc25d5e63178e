package policy

import (
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/sim"
)

// BatteryAware is a battery-centric source-control strategy in the spirit
// of the battery-aware DPM literature the paper's introduction surveys
// ([5, 8]): shape the storage element's current profile for battery
// health — shallow discharge, prompt recharge, and rest windows that let
// the recovery effect replenish the available-charge well.
//
// Concretely: during active periods the FC delivers its maximum so the
// battery discharges as little as possible; during idle periods the FC
// recharges at maximum until the battery is full, then drops to the range
// floor to give it a low-current rest.
//
// On an actual battery buffer this is sensible. On the FC hybrid it is
// exactly wrong: the on/off output pattern sits at the two worst points of
// the convex fuel map, and a supercapacitor has no recovery effect to
// exploit. The BatteryAwareAblation experiment reproduces the paper's §1
// claim — "battery-aware DPM policies cannot be applied to FC systems" —
// quantitatively.
type BatteryAware struct {
	sys  *fuelcell.System
	cmax float64
}

// NewBatteryAware returns the battery-centric strategy over the given FC
// system.
func NewBatteryAware(sys *fuelcell.System) *BatteryAware { return &BatteryAware{sys: sys} }

// Name implements sim.Policy.
func (b *BatteryAware) Name() string { return "Battery-Aware" }

// Reset implements sim.Policy.
func (b *BatteryAware) Reset(cmax, chargeTarget float64) { b.cmax = cmax }

// PlanIdle implements sim.Policy.
func (b *BatteryAware) PlanIdle(sim.SlotInfo) {}

// PlanActive implements sim.Policy.
func (b *BatteryAware) PlanActive(sim.SlotInfo) {}

// SegmentPlan implements sim.Policy.
func (b *BatteryAware) SegmentPlan(seg sim.Segment, charge float64, buf []sim.Piece) []sim.Piece {
	hi := b.sys.MaxOutput
	if !seg.Kind.IdlePhase() {
		// Active: shield the battery — deliver the maximum.
		return append(buf, sim.Piece{IF: hi, Dur: seg.Dur})
	}
	// Idle: recharge at maximum until full, then rest at the range floor.
	net := hi - seg.Load
	if net <= 0 {
		return append(buf, sim.Piece{IF: hi, Dur: seg.Dur})
	}
	tFull := (b.cmax - charge) / net
	if tFull >= seg.Dur {
		return append(buf, sim.Piece{IF: hi, Dur: seg.Dur})
	}
	lo := b.sys.MinOutput
	if tFull <= 0 {
		return append(buf, sim.Piece{IF: lo, Dur: seg.Dur})
	}
	return append(buf, sim.Piece{IF: hi, Dur: tFull}, sim.Piece{IF: lo, Dur: seg.Dur - tFull})
}

var _ sim.Policy = (*BatteryAware)(nil)
