package policy

import (
	"fcdpm/internal/device"
	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/sim"
)

// FCDPM is the paper's fuel-efficient DPM policy (Algorithm FC-DPM, Fig 5).
// At the start of each idle period it runs the §3 optimization over the
// *predicted* slot (T'i, T'a, I'ld,a) to set the idle-period FC output
// IF,i; when the active period's demands are revealed it re-solves the
// charge-balance equation (Eq 13) with the *actual* values to set IF,a,
// steering the storage back to the stability target Cend = Cini(1).
type FCDPM struct {
	sys *fuelcell.System
	dev *device.Model

	cmax, chargeTarget float64
	ifi, ifa           float64
	planErr            error // first planning failure, surfaced via Err

	// ovh caches the §3.3.2 overhead spec so PlanIdle does not rebuild
	// it (and allocate) every slot; refreshed from the device model on
	// Reset. hasOvh distinguishes "no sleep transitions" (nil spec).
	ovh    fcopt.Overhead
	hasOvh bool
}

// NewFCDPM returns the FC-DPM policy over the given FC system and device
// model (the device supplies the transition-overhead parameters of §3.3.2).
func NewFCDPM(sys *fuelcell.System, dev *device.Model) *FCDPM {
	f := &FCDPM{sys: sys, dev: dev}
	f.refreshOverhead()
	return f
}

// Name implements sim.Policy.
func (f *FCDPM) Name() string { return "FC-DPM" }

// Err returns the first slot-planning failure encountered, if any. Planning
// failures degrade to load following for the affected slot instead of
// aborting the run.
func (f *FCDPM) Err() error { return f.planErr }

// Reset implements sim.Policy.
func (f *FCDPM) Reset(cmax, chargeTarget float64) {
	f.cmax = cmax
	f.chargeTarget = chargeTarget
	f.ifi = f.sys.MinOutput
	f.ifa = f.sys.MaxOutput
	f.planErr = nil
	f.refreshOverhead()
}

// refreshOverhead rebuilds the cached §3.3.2 overhead spec from the
// device model (whose transition fields could have been edited between
// runs, so Reset re-reads them).
func (f *FCDPM) refreshOverhead() {
	f.hasOvh = f.dev.TauPD != 0 || f.dev.TauWU != 0
	f.ovh = fcopt.Overhead{
		TauWU: f.dev.TauWU, IWU: f.dev.IWU,
		TauPD: f.dev.TauPD, IPD: f.dev.IPD,
	}
}

// overhead returns the cached §3.3.2 overhead spec, nil when the device
// has no sleep transitions.
func (f *FCDPM) overhead() *fcopt.Overhead {
	if !f.hasOvh {
		return nil
	}
	return &f.ovh
}

// PlanIdle implements sim.Policy: run the slot optimization on predictions.
func (f *FCDPM) PlanIdle(info sim.SlotInfo) {
	// The active period seen by the optimizer includes the STANDBY↔RUN
	// transitions the simulator models explicitly, since they run at the
	// active current (§3.3.2 absorbs them into the active period).
	slot := fcopt.Slot{
		Ti:       info.PredIdle,
		IldI:     info.IdleLoad,
		Ta:       info.PredActive + f.dev.TauSR + f.dev.TauRS,
		IldA:     info.PredActiveCurrent,
		Cini:     info.Charge,
		Cend:     info.ChargeTarget,
		Sleep:    info.Sleeping,
		Overhead: f.overhead(),
	}
	set, err := fcopt.Optimize(f.sys, f.cmax, slot)
	if err != nil {
		if f.planErr == nil {
			f.planErr = err
		}
		// Degrade to load following for this slot.
		f.ifi = f.sys.Clamp(info.IdleLoad)
		f.ifa = f.sys.Clamp(info.PredActiveCurrent)
		return
	}
	f.ifi = set.IFi
	f.ifa = set.IFa
}

// PlanActive implements sim.Policy: re-solve IF,a from the actual active
// demands and the realized storage state (Fig 5, "Determine IF,a using
// actual Ta and Ild,a").
func (f *FCDPM) PlanActive(info sim.SlotInfo) {
	// Remaining demand until the end of the slot: wake-up (if sleeping),
	// startup, active, shutdown.
	dur := info.ActualActive + f.dev.TauSR + f.dev.TauRS
	charge := info.ActualActiveCurrent * dur
	if info.Sleeping {
		dur += f.dev.TauWU
		charge += f.dev.IWU * f.dev.TauWU
	}
	if dur <= 0 {
		return
	}
	// Eq 13 solved for IF,a over the remaining segments.
	ifa := (info.ChargeTarget + charge - info.Charge) / dur
	f.ifa = f.sys.Clamp(ifa)
}

// SegmentPlan implements sim.Policy: idle-phase segments run at IF,i (with
// a split at storage-full), active-phase segments at IF,a (with a split at
// storage-empty).
func (f *FCDPM) SegmentPlan(seg sim.Segment, charge float64, buf []sim.Piece) []sim.Piece {
	if seg.Kind.IdlePhase() {
		return splitAtFull(buf, f.sys, seg, charge, f.cmax, f.ifi)
	}
	return splitAtEmpty(buf, f.sys, seg, charge, f.ifa)
}

var _ sim.Policy = (*FCDPM)(nil)
