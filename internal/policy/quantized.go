package policy

import (
	"fmt"

	"fcdpm/internal/device"
	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/sim"
)

// FCDPMQuantized is FC-DPM for fuel-flow controllers that support only
// discrete output levels (the multi-level configuration of [11]). Planning
// uses the quantized slot optimizer; the active-period re-plan computes the
// continuous Eq 13 value and snaps to the nearest level at or above it
// (rounding up so the Cend target is not silently missed).
type FCDPMQuantized struct {
	sys    *fuelcell.System
	dev    *device.Model
	levels fcopt.Levels
	// overhead is the precomputed sleep-transition overhead block, nil
	// when the device has none; built once so per-slot planning does not
	// allocate.
	overhead *fcopt.Overhead

	cmax, chargeTarget float64
	ifi, ifa           float64
	planErr            error
}

// NewFCDPMQuantized returns the quantized FC-DPM policy. The levels must
// all lie within the system's load-following range; they are sorted
// internally and priced once (fcopt.NewLevels). An empty or out-of-range
// level set — level grids arrive from scenario files and flags — yields
// a *ConfigError.
func NewFCDPMQuantized(sys *fuelcell.System, dev *device.Model, levels []float64) (*FCDPMQuantized, error) {
	lv, err := fcopt.NewLevels(sys, levels)
	if err != nil {
		return nil, &ConfigError{Policy: "FC-DPM-q", Param: "levels", Detail: err.Error()}
	}
	f := &FCDPMQuantized{sys: sys, dev: dev, levels: lv}
	if dev.TauPD != 0 || dev.TauWU != 0 {
		f.overhead = &fcopt.Overhead{
			TauWU: dev.TauWU, IWU: dev.IWU,
			TauPD: dev.TauPD, IPD: dev.IPD,
		}
	}
	return f, nil
}

// Name implements sim.Policy.
func (f *FCDPMQuantized) Name() string {
	return fmt.Sprintf("FC-DPM-q%d", len(f.levels.Values()))
}

// Err returns the first planning failure, if any.
func (f *FCDPMQuantized) Err() error { return f.planErr }

// Reset implements sim.Policy.
func (f *FCDPMQuantized) Reset(cmax, chargeTarget float64) {
	f.cmax = cmax
	f.chargeTarget = chargeTarget
	lv := f.levels.Values()
	f.ifi = lv[0]
	f.ifa = lv[len(lv)-1]
	f.planErr = nil
}

// snapUp returns the smallest level >= x, or the top level.
func (f *FCDPMQuantized) snapUp(x float64) float64 {
	lv := f.levels.Values()
	for _, l := range lv {
		if l >= x-1e-12 {
			return l
		}
	}
	return lv[len(lv)-1]
}

// PlanIdle implements sim.Policy using the quantized slot optimizer on the
// predicted slot.
func (f *FCDPMQuantized) PlanIdle(info sim.SlotInfo) {
	slot := fcopt.Slot{
		Ti:       info.PredIdle,
		IldI:     info.IdleLoad,
		Ta:       info.PredActive + f.dev.TauSR + f.dev.TauRS,
		IldA:     info.PredActiveCurrent,
		Cini:     info.Charge,
		Cend:     info.ChargeTarget,
		Sleep:    info.Sleeping,
		Overhead: f.overhead,
	}
	set, err := fcopt.OptimizeQuantized(f.levels, f.cmax, slot)
	if err != nil {
		if f.planErr == nil {
			f.planErr = err
		}
		f.ifi = f.snapUp(info.IdleLoad)
		f.ifa = f.snapUp(info.PredActiveCurrent)
		return
	}
	f.ifi = set.IFi
	f.ifa = set.IFa
}

// PlanActive implements sim.Policy: the continuous Eq 13 re-plan, snapped
// up to the nearest level.
func (f *FCDPMQuantized) PlanActive(info sim.SlotInfo) {
	dur := info.ActualActive + f.dev.TauSR + f.dev.TauRS
	charge := info.ActualActiveCurrent * dur
	if info.Sleeping {
		dur += f.dev.TauWU
		charge += f.dev.IWU * f.dev.TauWU
	}
	if dur <= 0 {
		return
	}
	f.ifa = f.snapUp((info.ChargeTarget + charge - info.Charge) / dur)
}

// SegmentPlan implements sim.Policy, splitting at storage boundaries like
// the continuous policy. The hold level after a boundary is snapped (up
// after an empty split so the load keeps being covered, down to the
// nearest feasible level after a full split is unnecessary — the bleeder
// handles the floor case, matching the continuous policy's behaviour).
func (f *FCDPMQuantized) SegmentPlan(seg sim.Segment, charge float64, buf []sim.Piece) []sim.Piece {
	start := len(buf)
	if seg.Kind.IdlePhase() {
		buf = splitAtFull(buf, f.sys, seg, charge, f.cmax, f.ifi)
	} else {
		buf = splitAtEmpty(buf, f.sys, seg, charge, f.ifa)
	}
	f.snapPieces(buf[start:])
	return buf
}

// snapPieces forces every piece current onto the level grid.
func (f *FCDPMQuantized) snapPieces(pieces []sim.Piece) []sim.Piece {
	for i := range pieces {
		pieces[i].IF = f.snapUp(pieces[i].IF)
	}
	return pieces
}

var _ sim.Policy = (*FCDPMQuantized)(nil)
