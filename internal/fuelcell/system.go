package fuelcell

import (
	"fmt"
	"math"

	"fcdpm/internal/numeric"
)

// EfficiencyModel maps FC system output current IF (amps) to the FC system
// efficiency ηs = VF·IF / ΔE_Gibbs (paper Eq 1).
type EfficiencyModel interface {
	// Eta returns the system efficiency at output current iF. Values are
	// in (0, 1); implementations clamp rather than return non-positive
	// efficiencies.
	Eta(iF float64) float64
}

// LinearEfficiency is the paper's measured linear characterization
// ηs ≈ α − β·IF (Eq 2), valid over the load-following range. The paper's
// setup measures α = 0.45 and β = 0.13.
type LinearEfficiency struct {
	Alpha, Beta float64
}

// Eta implements EfficiencyModel; the value is floored at a small positive
// epsilon so the fuel map stays finite outside the calibrated range.
func (l LinearEfficiency) Eta(iF float64) float64 {
	eta := l.Alpha - l.Beta*iF
	if eta < 1e-3 {
		return 1e-3
	}
	return eta
}

// PaperEfficiency returns the paper's measured coefficients α=0.45, β=0.13.
func PaperEfficiency() LinearEfficiency { return LinearEfficiency{Alpha: 0.45, Beta: 0.13} }

// ConstantEfficiency models the on/off-fan + PWM configuration of the
// authors' earlier work [10, 11], where ηs is treated as constant (±3 %)
// over the load-following range. Under a constant ηs the fuel map is linear
// in IF and FC-DPM's flattening advantage disappears — the ablation
// `exp.ConstantEtaAblation` demonstrates exactly that.
type ConstantEfficiency struct{ Value float64 }

// Eta implements EfficiencyModel.
func (c ConstantEfficiency) Eta(float64) float64 {
	if c.Value < 1e-3 {
		return 1e-3
	}
	return c.Value
}

// TableEfficiency interpolates a measured (IF, ηs) table.
type TableEfficiency struct{ T *numeric.Table }

// Eta implements EfficiencyModel.
func (t TableEfficiency) Eta(iF float64) float64 {
	eta := t.T.At(iF)
	if eta < 1e-3 {
		return 1e-3
	}
	return eta
}

// ChainEfficiency computes ηs from the physical component chain: the stack
// polarization curve, the DC-DC converter loss model, and the controller
// draw. For a requested system output IF it solves the power balance
//
//	Vfc(Ifc)·Ifc·η_dc = Vdc·(IF + Ictrl(IF))
//
// for the stack current Ifc on the efficient side of the power curve, then
// returns ηs = Vdc·IF / (ζ·Ifc).
type ChainEfficiency struct {
	Stack *Stack
	Conv  Converter
	Ctrl  Controller
	// cache of the solved curve, built lazily on first use.
	cache *numeric.Table
}

// NewChainEfficiency assembles the chain and pre-solves the ηs(IF) curve on
// a fine grid so Eta is a cheap interpolation.
func NewChainEfficiency(stack *Stack, conv Converter, ctrl Controller) (*ChainEfficiency, error) {
	c := &ChainEfficiency{Stack: stack, Conv: conv, Ctrl: ctrl}
	if err := c.build(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *ChainEfficiency) build() error {
	const (
		gridLo = 0.01
		gridHi = 1.4
		nGrid  = 140
	)
	xs := make([]float64, 0, nGrid)
	ys := make([]float64, 0, nGrid)
	for k := 0; k < nGrid; k++ {
		iF := gridLo + (gridHi-gridLo)*float64(k)/float64(nGrid-1)
		eta, err := c.solve(iF)
		if err != nil {
			// Beyond stack capacity: stop the table here.
			break
		}
		xs = append(xs, iF)
		ys = append(ys, eta)
	}
	if len(xs) < 2 {
		return fmt.Errorf("fuelcell: chain infeasible even at light load")
	}
	tab, err := numeric.NewTable(xs, ys)
	if err != nil {
		return err
	}
	c.cache = tab
	return nil
}

// solve computes ηs at one output current from first principles.
func (c *ChainEfficiency) solve(iF float64) (float64, error) {
	vdc := c.Conv.OutputVoltage()
	pOut := vdc * (iF + c.Ctrl.Current(iF)) // DC-DC output power incl. controller
	// The converter efficiency depends on its own output power, which is
	// known; the required stack power follows directly.
	pStack := pOut / c.Conv.Efficiency(pOut)
	ifc, err := c.Stack.CurrentForPower(pStack)
	if err != nil {
		return 0, err
	}
	if ifc <= 0 {
		return 0, fmt.Errorf("fuelcell: degenerate stack current at IF=%v", iF)
	}
	return vdc * iF / (c.Stack.Params().Zeta * ifc), nil
}

// Eta implements EfficiencyModel via the pre-solved table.
func (c *ChainEfficiency) Eta(iF float64) float64 {
	eta := c.cache.At(iF)
	if eta < 1e-3 {
		return 1e-3
	}
	return eta
}

// MaxOutput returns the largest system output current the chain can supply,
// i.e. where the stack hits its maximum power capacity.
func (c *ChainEfficiency) MaxOutput() float64 {
	_, hi := c.cache.Domain()
	return hi
}

// System is the FC system as seen by the rest of fcdpm: a regulated-voltage
// source with a bounded load-following range, an efficiency map, and the
// fuel-rate map Ifc(IF) (Eq 3/4) derived from it.
type System struct {
	// VF is the regulated output voltage (12 V in the paper).
	VF float64
	// Zeta is the Gibbs coefficient: ΔE_Gibbs = ζ·Ifc (≈ 37.5 measured).
	Zeta float64
	// MinOutput and MaxOutput bound the load-following range
	// ([0.1 A, 1.2 A] in the paper).
	MinOutput, MaxOutput float64
	// Eff maps output current to system efficiency.
	Eff EfficiencyModel
}

// NewSystem validates and returns an FC system description.
func NewSystem(vf, zeta, minOut, maxOut float64, eff EfficiencyModel) (*System, error) {
	switch {
	case vf <= 0:
		return nil, fmt.Errorf("fuelcell: VF must be positive, got %v", vf)
	case zeta <= 0:
		return nil, fmt.Errorf("fuelcell: zeta must be positive, got %v", zeta)
	case minOut < 0 || maxOut <= minOut:
		return nil, fmt.Errorf("fuelcell: bad load-following range [%v, %v]", minOut, maxOut)
	case eff == nil:
		return nil, fmt.Errorf("fuelcell: nil efficiency model")
	}
	return &System{VF: vf, Zeta: zeta, MinOutput: minOut, MaxOutput: maxOut, Eff: eff}, nil
}

// PaperSystem returns the FC system exactly as the paper's experiments use
// it: VF = 12 V, ζ = 37.5, load-following range [0.1 A, 1.2 A], and the
// linear efficiency ηs = 0.45 − 0.13·IF. With these values Eq 4 holds:
// Ifc = 0.32·IF/(0.45 − 0.13·IF).
func PaperSystem() *System {
	s, err := NewSystem(12, 37.5, 0.1, 1.2, PaperEfficiency())
	if err != nil {
		panic(err) // fixed literal; cannot fail
	}
	return s
}

// Efficiency returns ηs at output current iF.
func (s *System) Efficiency(iF float64) float64 { return s.Eff.Eta(iF) }

// StackCurrent returns the stack (fuel-rate) current Ifc for a system
// output iF per Eq 3: Ifc = VF·IF / (ζ·ηs(IF)). The fuel consumed over a
// duration is StackCurrent·dt in amp-seconds, proportional to moles of H2.
// Zero and negative outputs consume no fuel.
func (s *System) StackCurrent(iF float64) float64 {
	if iF <= 0 {
		return 0
	}
	return s.VF * iF / (s.Zeta * s.Eff.Eta(iF))
}

// Fuel returns the fuel consumed (A·s of stack current) by holding output
// iF for dt seconds.
func (s *System) Fuel(iF, dt float64) float64 { return s.StackCurrent(iF) * dt }

// Clamp limits a requested output current to the load-following range.
func (s *System) Clamp(iF float64) float64 {
	return numeric.Clamp(iF, s.MinOutput, s.MaxOutput)
}

// InRange reports whether iF lies within the load-following range.
func (s *System) InRange(iF float64) bool {
	return iF >= s.MinOutput-1e-12 && iF <= s.MaxOutput+1e-12
}

// IsConvexFuel numerically verifies that the fuel map Ifc(IF) is convex
// over the load-following range — the property FC-DPM's flattening argument
// rests on (Jensen's inequality). It is exposed for tests and for guarding
// exotic efficiency models.
func (s *System) IsConvexFuel(n int) bool {
	if n < 3 {
		n = 3
	}
	lo, hi := s.MinOutput, s.MaxOutput
	prev := math.Inf(-1)
	for k := 0; k < n-1; k++ {
		x0 := lo + (hi-lo)*float64(k)/float64(n-1)
		x1 := lo + (hi-lo)*float64(k+1)/float64(n-1)
		slope := (s.StackCurrent(x1) - s.StackCurrent(x0)) / (x1 - x0)
		if slope < prev-1e-9 {
			return false
		}
		prev = slope
	}
	return true
}
