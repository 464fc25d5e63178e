package policy

import (
	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/sim"
)

// Schedule plays a precomputed per-slot FC output schedule — typically the
// offline dynamic-programming optimum from fcopt.SolveOffline — through
// the simulator. It is the reference point for "how much does online
// prediction cost FC-DPM?".
//
// Slots beyond the schedule fall back to range-clamped load following.
type Schedule struct {
	sys      *fuelcell.System
	settings []fcopt.Setting

	cmax     float64
	k        int
	ifi, ifa float64
}

// NewSchedule returns a policy that replays the given per-slot settings.
func NewSchedule(sys *fuelcell.System, settings []fcopt.Setting) *Schedule {
	cp := make([]fcopt.Setting, len(settings))
	copy(cp, settings)
	return &Schedule{sys: sys, settings: cp}
}

// Name implements sim.Policy.
func (s *Schedule) Name() string { return "Offline-Schedule" }

// Reset implements sim.Policy.
func (s *Schedule) Reset(cmax, chargeTarget float64) {
	s.cmax = cmax
	s.k = 0
	s.ifi = s.sys.MinOutput
	s.ifa = s.sys.MaxOutput
}

// PlanIdle implements sim.Policy by looking up the slot's scheduled
// setting.
func (s *Schedule) PlanIdle(info sim.SlotInfo) {
	s.k = info.K
	if info.K < len(s.settings) {
		s.ifi = s.settings[info.K].IFi
		s.ifa = s.settings[info.K].IFa
		return
	}
	s.ifi = s.sys.Clamp(info.IdleLoad)
	s.ifa = s.sys.Clamp(info.PredActiveCurrent)
}

// PlanActive implements sim.Policy; the schedule is fixed, so nothing to
// re-plan (the offline solver already used actuals).
func (s *Schedule) PlanActive(info sim.SlotInfo) {
	if info.K >= len(s.settings) {
		s.ifa = s.sys.Clamp(info.ActualActiveCurrent)
	}
}

// SegmentPlan implements sim.Policy with the same boundary splitting as the
// online policy.
func (s *Schedule) SegmentPlan(seg sim.Segment, charge float64, buf []sim.Piece) []sim.Piece {
	if seg.Kind.IdlePhase() {
		return splitAtFull(buf, s.sys, seg, charge, s.cmax, s.ifi)
	}
	return splitAtEmpty(buf, s.sys, seg, charge, s.ifa)
}

var _ sim.Policy = (*Schedule)(nil)
