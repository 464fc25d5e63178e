package fuelcell

import "fmt"

// Converter models a DC-DC converter by its efficiency as a function of
// output power. Output voltage is regulated to a constant.
type Converter interface {
	// Efficiency returns the conversion efficiency at the given output
	// power in watts. Implementations return a value in (0, 1].
	Efficiency(outWatts float64) float64
	// OutputVoltage returns the regulated output voltage in volts.
	OutputVoltage() float64
}

// lossConverter implements the standard two-term converter loss model
//
//	Ploss(Pout) = Pfixed + Kq·Pout²
//	η(Pout)     = Pout / (Pout + Ploss)
//
// Pfixed captures gate-drive/quiescent losses that dominate at light load;
// Kq captures conduction (I²R) losses that dominate at heavy load.
type lossConverter struct {
	vout   float64
	pfixed float64
	kq     float64
	name   string
}

func (c *lossConverter) OutputVoltage() float64 { return c.vout }

func (c *lossConverter) Efficiency(outWatts float64) float64 {
	if outWatts <= 0 {
		return 1 // no load, no transfer; efficiency is moot
	}
	loss := c.pfixed + c.kq*outWatts*outWatts
	return outWatts / (outWatts + loss)
}

func (c *lossConverter) String() string { return c.name }

// NewPWMConverter returns a pulse-width-modulation-only converter. PWM
// converters switch at a fixed frequency, so the fixed loss term is large
// and efficiency collapses at light loads — the configuration used in the
// authors' earlier work [10, 11] where ηs was treated as constant over the
// load-following range.
func NewPWMConverter(vout float64) Converter {
	return &lossConverter{vout: vout, pfixed: 0.9, kq: 0.005, name: "PWM"}
}

// NewPWMPFMConverter returns the paper's PWM-PFM converter: PWM at high
// load, pulse-frequency modulation at light load. PFM scales switching
// activity with load, so the fixed loss is small and the converter holds
// roughly 85 % efficiency over the entire load range (paper §2.1).
func NewPWMPFMConverter(vout float64) Converter {
	return &lossConverter{vout: vout, pfixed: 0.03, kq: 0.012, name: "PWM-PFM"}
}

// Controller models the FC balance-of-plant: cathode air-blow fan, cooling
// fan, purge-valve solenoid, and microcontroller. Its current draw comes
// off the DC-DC output before the load sees it: IF = Idc − Ictrl.
type Controller struct {
	// Base is the always-on draw (microcontroller + solenoid duty), amps.
	Base float64
	// FanGain scales fan current with FC system output current when
	// Proportional is set (variable-speed fans, the paper's §2.3
	// configuration "fan speed proportional to the load current").
	FanGain float64
	// Proportional selects variable-speed fan control. When false the
	// controller models the constant-speed cathode fan plus an on/off
	// cooling fan that engages above CoolingOnAt amps (the Fig 3(c)
	// configuration).
	Proportional bool
	// FanConst is the constant-speed fan draw used when !Proportional.
	FanConst float64
	// CoolingOnAt and CoolingDraw describe the on/off cooling fan used
	// when !Proportional.
	CoolingOnAt, CoolingDraw float64
}

// Current returns the controller draw in amps at FC system output iF.
func (c Controller) Current(iF float64) float64 {
	if c.Proportional {
		return c.Base + c.FanGain*iF
	}
	draw := c.Base + c.FanConst
	if iF >= c.CoolingOnAt {
		draw += c.CoolingDraw
	}
	return draw
}

// ProportionalController returns the paper's variable-speed fan controller.
func ProportionalController() Controller {
	return Controller{Base: 0.005, FanGain: 0.06, Proportional: true}
}

// OnOffController returns the constant-speed + on/off cooling fan
// controller of the authors' earlier configuration (Fig 3(c)); the cooling
// fan kicks in around 0.6 A, producing the efficiency notch visible in the
// figure.
func OnOffController() Controller {
	return Controller{Base: 0.02, FanConst: 0.08, CoolingOnAt: 0.6, CoolingDraw: 0.06}
}

var _ fmt.Stringer = (*lossConverter)(nil)
