package policy

import (
	"fmt"
	"math"
	"strings"
)

// BatchKey identities let the batched simulation core (sim.BatchRunner)
// group lanes whose policies are guaranteed to plan identically. Every
// policy here is fully determined by its construction parameters: Reset
// clears all per-run state before each run, so two instances with equal
// keys produce identical piece plans under identical inputs. The fuel
// cell system and device model enter by pointer identity — conservative:
// sim's dynamics fingerprint keys the system by content — and tunable
// floats by exact bits, so lanes group only on true equality.

// BatchKey implements sim.BatchKeyer.
func (c *Conv) BatchKey() string { return fmt.Sprintf("conv|%p", c.sys) }

// BatchKey implements sim.BatchKeyer.
func (f *Flat) BatchKey() string {
	return fmt.Sprintf("flat|%p|%x", f.sys, math.Float64bits(f.IF))
}

// BatchKey implements sim.BatchKeyer. ASAP's recharge hysteresis is
// per-run state cleared by Reset; two instances over the same system
// flip it at the same segments, so grouping is sound.
func (a *ASAP) BatchKey() string { return fmt.Sprintf("asap|%p", a.sys) }

// BatchKey implements sim.BatchKeyer.
func (f *FCDPM) BatchKey() string { return fmt.Sprintf("fcdpm|%p|%p", f.sys, f.dev) }

// BatchKey implements sim.BatchKeyer.
func (f *FCDPMQuantized) BatchKey() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fcdpm-q|%p|%p", f.sys, f.dev)
	for _, l := range f.levels.Values() {
		fmt.Fprintf(&sb, "|%x", math.Float64bits(l))
	}
	return sb.String()
}

// BatchKey implements sim.BatchKeyer.
func (b *FCDPMBanded) BatchKey() string {
	return fmt.Sprintf("fcdpm-band|%p|%p|%x", b.inner.sys, b.inner.dev, math.Float64bits(b.Epsilon))
}

// BatchKey implements sim.BatchKeyer.
func (b *BatteryAware) BatchKey() string { return fmt.Sprintf("battery-aware|%p", b.sys) }
