package policy

import (
	"fmt"

	"fcdpm/internal/device"
	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/sim"
)

// MPC is a receding-horizon (model-predictive) variant of FC-DPM: at each
// idle-period start it solves the offline dynamic program over the next
// Horizon slots — the upcoming slot from the current predictions, the rest
// from the stationary assumption that future slots look like the predicted
// one — and commits only the first slot's setting. Active-period re-planning
// is identical to FC-DPM.
//
// On the paper's workload the single-slot policy already sits ~0.1 % from
// the clairvoyant offline DP schedule (see BenchmarkAblationOfflineDP), so
// the horizon buys essentially nothing — MPC exists to *demonstrate* that
// negative result (`exp.MPCAblation`) and to serve workloads with strong
// slot-to-slot coupling (tiny storage, highly alternating demand) where it
// does help.
type MPC struct {
	inner   *FCDPM
	Horizon int
	GridN   int
	planErr error
}

// NewMPC returns a receding-horizon FC-DPM with the given horizon (≥ 1
// slots; 1 degenerates to per-slot planning through the DP) and storage
// grid resolution (0 selects a fast 24-interval grid). A non-positive
// horizon — it arrives from scenario files and flags — yields a
// *ConfigError.
func NewMPC(sys *fuelcell.System, dev *device.Model, horizon int) (*MPC, error) {
	if horizon < 1 {
		return nil, &ConfigError{Policy: "FC-DPM-mpc", Param: "horizon",
			Detail: fmt.Sprintf("%d < 1", horizon)}
	}
	return &MPC{inner: NewFCDPM(sys, dev), Horizon: horizon, GridN: 24}, nil
}

// Name implements sim.Policy.
func (m *MPC) Name() string { return fmt.Sprintf("FC-DPM-mpc%d", m.Horizon) }

// Err returns the first planning failure; planning failures degrade to the
// single-slot FC-DPM plan for the affected slot.
func (m *MPC) Err() error {
	if m.planErr != nil {
		return m.planErr
	}
	return m.inner.Err()
}

// Reset implements sim.Policy.
func (m *MPC) Reset(cmax, chargeTarget float64) {
	m.inner.Reset(cmax, chargeTarget)
	m.planErr = nil
}

// PlanIdle implements sim.Policy: DP over the predicted horizon, commit
// slot 0.
func (m *MPC) PlanIdle(info sim.SlotInfo) {
	// Fall back to the single-slot plan first; the DP refines it.
	m.inner.PlanIdle(info)
	if m.Horizon <= 1 {
		return
	}
	dev := m.inner.dev
	taEff := info.PredActive + dev.TauSR + dev.TauRS
	activeCharge := info.PredActiveCurrent * taEff
	if info.Sleeping {
		taEff += dev.TauWU
		activeCharge += dev.IWU * dev.TauWU
	}
	if taEff <= 0 || info.PredIdle <= 0 {
		return
	}
	proto := fcopt.Slot{
		Ti:   info.PredIdle,
		IldI: info.IdleLoad,
		Ta:   taEff,
		IldA: activeCharge / taEff,
	}
	slots := make([]fcopt.Slot, m.Horizon)
	for k := range slots {
		slots[k] = proto
	}
	sched, err := fcopt.SolveOffline(fcopt.OfflineProblem{
		Sys:      m.inner.sys,
		Cmax:     m.inner.cmax,
		Slots:    slots,
		Q0:       info.Charge,
		FinalMin: info.ChargeTarget,
		GridN:    m.GridN,
	})
	if err != nil {
		if m.planErr == nil {
			m.planErr = err
		}
		return // keep the single-slot plan
	}
	m.inner.ifi = sched.Settings[0].IFi
	m.inner.ifa = sched.Settings[0].IFa
}

// PlanActive implements sim.Policy via FC-DPM's Eq 13 re-plan.
func (m *MPC) PlanActive(info sim.SlotInfo) { m.inner.PlanActive(info) }

// SegmentPlan implements sim.Policy via FC-DPM's boundary-splitting plans.
func (m *MPC) SegmentPlan(seg sim.Segment, charge float64, buf []sim.Piece) []sim.Piece {
	return m.inner.SegmentPlan(seg, charge, buf)
}

var _ sim.Policy = (*MPC)(nil)
