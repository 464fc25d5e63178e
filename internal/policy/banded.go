package policy

import (
	"fmt"
	"math"

	"fcdpm/internal/device"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/sim"
)

// FCDPMBanded wraps FC-DPM with an actuation dead band: a freshly computed
// set point is only commanded when it differs from the currently held one
// by more than Epsilon amps. Fuel-flow actuators (pump, valve, blower set
// points) wear with every move; the dead band trades a bounded fuel
// sub-optimality for far fewer commands — see the actuation ablation.
type FCDPMBanded struct {
	inner   *FCDPM
	Epsilon float64
	// A single held set point spans idle and active phases: FC-DPM's
	// optimum already makes IF,i ≈ IF,a within a slot (Eq 11), so one
	// band absorbs both the intra-slot re-plan and the slot-to-slot
	// drift.
	held float64
	have bool
}

// NewFCDPMBanded returns FC-DPM with an actuation dead band of epsilon
// amps. A negative epsilon — the band arrives from scenario files and
// flags — yields a *ConfigError; epsilon 0 degenerates to plain FC-DPM.
func NewFCDPMBanded(sys *fuelcell.System, dev *device.Model, epsilon float64) (*FCDPMBanded, error) {
	if epsilon < 0 {
		return nil, &ConfigError{Policy: "FC-DPM-band", Param: "epsilon",
			Detail: fmt.Sprintf("dead band %v is negative", epsilon)}
	}
	return &FCDPMBanded{inner: NewFCDPM(sys, dev), Epsilon: epsilon}, nil
}

// Name implements sim.Policy.
func (b *FCDPMBanded) Name() string { return fmt.Sprintf("FC-DPM-band(%.2fA)", b.Epsilon) }

// Err surfaces the wrapped policy's planning failures.
func (b *FCDPMBanded) Err() error { return b.inner.Err() }

// Reset implements sim.Policy.
func (b *FCDPMBanded) Reset(cmax, chargeTarget float64) {
	b.inner.Reset(cmax, chargeTarget)
	b.have = false
}

// band holds the previous value unless the new one escapes the dead band.
func (b *FCDPMBanded) band(fresh float64) float64 {
	if !b.have || math.Abs(fresh-b.held) > b.Epsilon {
		b.held = fresh
		b.have = true
	}
	return b.held
}

// PlanIdle implements sim.Policy.
func (b *FCDPMBanded) PlanIdle(info sim.SlotInfo) {
	b.inner.PlanIdle(info)
	b.inner.ifi = b.band(b.inner.ifi)
	b.inner.ifa = b.band(b.inner.ifa)
}

// PlanActive implements sim.Policy.
func (b *FCDPMBanded) PlanActive(info sim.SlotInfo) {
	b.inner.PlanActive(info)
	b.inner.ifa = b.band(b.inner.ifa)
}

// SegmentPlan implements sim.Policy.
func (b *FCDPMBanded) SegmentPlan(seg sim.Segment, charge float64, buf []sim.Piece) []sim.Piece {
	return b.inner.SegmentPlan(seg, charge, buf)
}

var _ sim.Policy = (*FCDPMBanded)(nil)
