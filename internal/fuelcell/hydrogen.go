package fuelcell

import "math"

// Physical constants for hydrogen fuel accounting.
const (
	// FaradayConstant is the charge per mole of electrons, C/mol.
	FaradayConstant = 96485.33212
	// H2MolarMass is the molar mass of H2 in grams per mole.
	H2MolarMass = 2.016
	// H2MolarVolumeSTP is the molar volume of an ideal gas at standard
	// temperature and pressure (0 °C, 100 kPa), litres per mole.
	H2MolarVolumeSTP = 22.711
	// H2LHV is the lower heating value of hydrogen, joules per gram.
	H2LHV = 119.96e3
)

// Hydrogen converts the simulator's fuel measure — integrated stack
// current in amp-seconds — into physical hydrogen quantities for a stack
// with a given cell count. Each H2 molecule supplies two electrons per
// cell pass, and series cells share the same current, so
//
//	mol H2 = Q · cells / (2·F)
//
// The paper's fuel objective (∫Ifc dt) is proportional to all of these, so
// policy comparisons are invariant to the conversion; Hydrogen exists for
// reporting real cartridge lifetimes.
type Hydrogen struct {
	// Cells is the number of series cells in the stack (20 for BCS 20 W).
	Cells int
}

// PaperHydrogen returns the converter for the paper's 20-cell stack.
func PaperHydrogen() Hydrogen { return Hydrogen{Cells: 20} }

// Moles returns the hydrogen consumed, in moles, for fuel amp-seconds of
// stack charge.
func (h Hydrogen) Moles(fuelAs float64) float64 {
	return fuelAs * float64(h.Cells) / (2 * FaradayConstant)
}

// Grams returns the hydrogen mass consumed for fuel amp-seconds.
func (h Hydrogen) Grams(fuelAs float64) float64 {
	return h.Moles(fuelAs) * H2MolarMass
}

// LitresSTP returns the hydrogen gas volume at STP for fuel amp-seconds.
func (h Hydrogen) LitresSTP(fuelAs float64) float64 {
	return h.Moles(fuelAs) * H2MolarVolumeSTP
}

// ChemicalEnergy returns the lower-heating-value energy content of the
// consumed hydrogen, in joules.
func (h Hydrogen) ChemicalEnergy(fuelAs float64) float64 {
	return h.Grams(fuelAs) * H2LHV
}

// FuelForGrams inverts Grams: the stack amp-seconds a hydrogen mass can
// sustain.
func (h Hydrogen) FuelForGrams(grams float64) float64 {
	return grams / H2MolarMass * 2 * FaradayConstant / float64(h.Cells)
}

// CartridgeLifetime returns how long a cartridge holding grams of H2 lasts
// at the given average stack current (A), in seconds. It returns +Inf for
// a non-positive rate.
func (h Hydrogen) CartridgeLifetime(grams, avgStackCurrent float64) float64 {
	if avgStackCurrent <= 0 {
		return math.Inf(1)
	}
	return h.FuelForGrams(grams) / avgStackCurrent
}

// EndToEndEfficiency returns delivered electrical energy divided by the
// chemical (LHV) energy of the hydrogen consumed — a whole-system figure
// of merit the paper's ηs approximates from the Gibbs side.
func (h Hydrogen) EndToEndEfficiency(deliveredJoules, fuelAs float64) float64 {
	chem := h.ChemicalEnergy(fuelAs)
	if chem <= 0 {
		return 0
	}
	return deliveredJoules / chem
}
