package exp

import (
	"context"
	"fmt"

	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/sim"
)

// Fig2Series regenerates the stack I-V-P characteristic of Fig 2 from the
// calibrated BCS 20 W polarization model.
func Fig2Series(n int) []fuelcell.IVPoint {
	// Sample past the maximum-power knee (~1.5 A for the calibrated
	// stack) so the capacity point is visible, as in the paper's figure.
	return fuelcell.BCS20W().IVPCurve(1.7, n)
}

// Fig3Point is one abscissa of the Fig 3 efficiency comparison.
type Fig3Point struct {
	IF float64 // FC system output current, A
	// StackEff is curve (a): the stack efficiency at the stack current
	// feeding this output point (proportional-fan chain).
	StackEff float64
	// SystemProportional is curve (b): system efficiency with
	// variable-speed fans (physical chain).
	SystemProportional float64
	// LinearModel is the paper's Eq 2 fit of curve (b): 0.45 − 0.13·IF.
	LinearModel float64
	// SystemOnOff is curve (c): system efficiency with constant-speed +
	// on/off cooling fan and a plain PWM converter.
	SystemOnOff float64
}

// Fig3Series regenerates the three measured efficiency curves of Fig 3.
func Fig3Series(n int) ([]Fig3Point, error) {
	stack := fuelcell.BCS20W()
	prop, err := fuelcell.NewChainEfficiency(stack, fuelcell.NewPWMPFMConverter(12), fuelcell.ProportionalController())
	if err != nil {
		return nil, fmt.Errorf("exp: proportional chain: %w", err)
	}
	onoff, err := fuelcell.NewChainEfficiency(stack, fuelcell.NewPWMConverter(12), fuelcell.OnOffController())
	if err != nil {
		return nil, fmt.Errorf("exp: on/off chain: %w", err)
	}
	linear := fuelcell.PaperEfficiency()
	if n < 2 {
		n = 2
	}
	const lo, hi = 0.05, 1.3
	pts := make([]Fig3Point, n)
	zeta := stack.Params().Zeta
	for k := 0; k < n; k++ {
		iF := lo + (hi-lo)*float64(k)/float64(n-1)
		etaProp := prop.Eta(iF)
		// Recover the stack current from ηs = Vdc·IF/(ζ·Ifc).
		ifc := 12 * iF / (zeta * etaProp)
		pts[k] = Fig3Point{
			IF:                 iF,
			StackEff:           stack.Efficiency(ifc),
			SystemProportional: etaProp,
			LinearModel:        linear.Eta(iF),
			SystemOnOff:        onoff.Eta(iF),
		}
	}
	return pts, nil
}

// Motivational reproduces the §3.2 worked example (Fig 4): the three FC
// output settings for the Ti = 20 s @ 0.2 A / Ta = 10 s @ 1.2 A slot with
// Cmax = 200 A-s.
type Motivational struct {
	// ConvFuel is setting (a) with the exact Eq 4 model (39.18 A-s);
	// ConvFuelPaper is the value the paper reports (36 A-s), which
	// corresponds to Ifc ≈ IF — see EXPERIMENTS.md.
	ConvFuel, ConvFuelPaper float64
	// ASAPFuel is setting (b): perfect load following (≈16 A-s).
	ASAPFuel float64
	// FCDPMFuel is setting (c): the optimal flat output (13.45 A-s).
	FCDPMFuel float64
	// OptimalIF is the Eq 11 setting (0.533 A) and OptimalIfc the
	// corresponding stack current (0.448 A).
	OptimalIF, OptimalIfc float64
	// SavingVsConv and SavingVsASAP are fractional fuel savings of
	// setting (c) over (a) and (b).
	SavingVsConv, SavingVsASAP float64
	// DeliveredEnergy is VF·(IF,i·Ti + IF,a·Ta) for settings (b) and (c),
	// identical by charge balance (192 J in the paper).
	DeliveredEnergy float64
}

// MotivationalExample computes the §3.2 comparison.
func MotivationalExample() (*Motivational, error) {
	sys := fuelcell.PaperSystem()
	slot := fcopt.Slot{Ti: 20, IldI: 0.2, Ta: 10, IldA: 1.2}
	set, err := fcopt.Optimize(sys, 200, slot)
	if err != nil {
		return nil, err
	}
	m := &Motivational{
		ConvFuel:        fcopt.Objective(sys, slot, 1.2, 1.2),
		ConvFuelPaper:   1.2 * (slot.Ti + slot.Ta),
		ASAPFuel:        fcopt.Objective(sys, slot, 0.2, 1.2),
		FCDPMFuel:       set.Fuel,
		OptimalIF:       set.IFi,
		OptimalIfc:      sys.StackCurrent(set.IFi),
		DeliveredEnergy: sys.VF * (set.IFi*slot.Ti + set.IFa*slot.Ta),
	}
	m.SavingVsConv = 1 - m.FCDPMFuel/m.ConvFuel
	m.SavingVsASAP = 1 - m.FCDPMFuel/m.ASAPFuel
	return m, nil
}

// Fig7Series extracts the first window seconds of the Experiment 1 current
// profiles: the load profile (identical under every policy) and the FC
// system output profiles of ASAP-DPM and FC-DPM — the three panels of
// Fig 7.
type Fig7Series struct {
	Load, ASAP, FCDPM []sim.ProfilePoint
}

// Fig7 runs Experiment 1 with profile recording and clips the profiles.
func Fig7(ctx context.Context, seed uint64, window float64) (*Fig7Series, error) {
	sc, err := Experiment1Scenario(seed)
	if err != nil {
		return nil, err
	}
	sc.Record = sim.RecordFull
	cmp, err := sc.Compare(ctx, sc.Policies())
	if err != nil {
		return nil, err
	}
	clip := func(pts []sim.ProfilePoint) []sim.ProfilePoint {
		out := make([]sim.ProfilePoint, 0, len(pts))
		for _, p := range pts {
			if p.T > window {
				break
			}
			out = append(out, p)
		}
		return out
	}
	asap := cmp.Results["ASAP-DPM"]
	fc := cmp.Results["FC-DPM"]
	return &Fig7Series{
		Load:  clip(asap.Profile), // Load field carries the common load profile
		ASAP:  clip(asap.Profile),
		FCDPM: clip(fc.Profile),
	}, nil
}
