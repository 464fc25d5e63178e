package policy

import (
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/sim"
)

// ASAP is the ASAP-DPM baseline (§5): the FC system output matches the load
// current as closely as the load-following range allows. The charge-storage
// element supplies the excess when the load exceeds the range; "if the
// state of the charge storage drops below half its capacity, then it is
// recharged to full capacity as soon as possible by letting the FC deliver
// the highest current in the successive task slots."
type ASAP struct {
	sys        *fuelcell.System
	cmax       float64
	recharging bool
}

// NewASAP returns the ASAP-DPM baseline over the given FC system.
func NewASAP(sys *fuelcell.System) *ASAP { return &ASAP{sys: sys} }

// Name implements sim.Policy.
func (a *ASAP) Name() string { return "ASAP-DPM" }

// Reset implements sim.Policy.
func (a *ASAP) Reset(cmax, chargeTarget float64) {
	a.cmax = cmax
	a.recharging = false
}

// PlanIdle implements sim.Policy (ASAP plans per segment, not per slot).
func (a *ASAP) PlanIdle(sim.SlotInfo) {}

// PlanActive implements sim.Policy.
func (a *ASAP) PlanActive(sim.SlotInfo) {}

// SegmentPlan implements sim.Policy.
func (a *ASAP) SegmentPlan(seg sim.Segment, charge float64, buf []sim.Piece) []sim.Piece {
	if charge < a.cmax/2 {
		a.recharging = true
	}
	if a.recharging {
		hi := a.sys.MaxOutput
		net := hi - seg.Load
		if net <= 0 {
			// Cannot gain charge against this load; keep delivering the
			// maximum and try again next segment.
			return append(buf, sim.Piece{IF: hi, Dur: seg.Dur})
		}
		tFull := (a.cmax - charge) / net
		if tFull >= seg.Dur {
			return append(buf, sim.Piece{IF: hi, Dur: seg.Dur})
		}
		// Full before the segment ends: resume load following.
		a.recharging = false
		rest := sim.Segment{Kind: seg.Kind, Dur: seg.Dur - tFull, Load: seg.Load}
		buf = append(buf, sim.Piece{IF: hi, Dur: tFull})
		return a.follow(buf, rest, a.cmax)
	}
	return a.follow(buf, seg, charge)
}

// follow matches the load within range. When the range floor sits above the
// load the storage absorbs the excess until full and the bleeder takes the
// rest; the FC output stays at the floor either way, so no split is needed.
func (a *ASAP) follow(buf []sim.Piece, seg sim.Segment, charge float64) []sim.Piece {
	return append(buf, sim.Piece{IF: a.sys.Clamp(seg.Load), Dur: seg.Dur})
}

var _ sim.Policy = (*ASAP)(nil)
