// Package fcdpm is a Go reproduction of "Dynamic Power Management with
// Hybrid Power Sources" (Zhuo, Chakrabarti, Lee, Chang — DAC 2007): a
// fuel-efficient dynamic power management policy (FC-DPM) for embedded
// systems powered by a fuel-cell + charge-storage hybrid source, together
// with the full substrate needed to evaluate it — fuel-cell stack and
// system models, DC-DC converter and controller models, charge-storage
// models, a DPM-enabled device model, workload-trace generators, period
// predictors, the per-slot fuel-optimization framework, a trace-driven
// simulator, and the experiment harness that regenerates every table and
// figure of the paper.
//
// This package is the public facade: it re-exports what the README quick
// start and the programs under examples/ use, so downstream users need a
// single import. The implementation lives in the internal packages (see
// DESIGN.md for the module map); everything exposed here is a direct
// alias or thin wrapper. The command-line tool cmd/fcdpm reaches the rest
// of the system (racks, faults, serving, distributed sweeps).
//
// # Quick start
//
//	sys := fcdpm.PaperSystem()                  // 12 V FC system, ηs = 0.45 − 0.13·IF
//	dev := fcdpm.Camcorder()                    // Fig 6 power-state machine
//	trace, _ := fcdpm.CamcorderTrace(1)         // 28-min MPEG encode/write workload
//	res, _ := fcdpm.Run(fcdpm.SimConfig{
//		Sys: sys, Dev: dev,
//		Store:  fcdpm.MustSuperCap(6, 1),
//		Trace:  trace,
//		Policy: fcdpm.NewFCDPM(sys, dev),
//	})
//	fmt.Println(res.Fuel, res.Lifetime(3600))
//
// See the examples directory for complete programs.
package fcdpm

import (
	"context"

	"fcdpm/internal/device"
	"fcdpm/internal/exp"
	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/policy"
	"fcdpm/internal/predict"
	"fcdpm/internal/sim"
	"fcdpm/internal/stochdpm"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

// Fuel-cell power source types.
type (
	// System is the FC system as the policies see it: regulated voltage,
	// load-following range, efficiency map, and the fuel-rate map
	// Ifc(IF) of Eq 3/4.
	System = fuelcell.System
	// Stack is the Larminie–Dicks polarization model of the FC stack.
	Stack = fuelcell.Stack
	// Converter models a DC-DC converter's efficiency.
	Converter = fuelcell.Converter
	// Controller models the FC balance-of-plant (fans, solenoid, MCU).
	Controller = fuelcell.Controller
	// ChainEfficiency derives ηs from the stack/converter/controller
	// chain.
	ChainEfficiency = fuelcell.ChainEfficiency
)

// Storage types.
type (
	// Storage is the charge buffer between the FC output and the load.
	Storage = storage.Storage
	// SuperCapacitor is the ideal coulomb buffer the paper assumes.
	SuperCapacitor = storage.SuperCap
)

// Device and workload types.
type (
	// Device is the DPM-enabled embedded-system power model.
	Device = device.Model
	// Trace is a task-slot workload.
	Trace = workload.Trace
	// SyntheticConfig parameterizes the Experiment 2 trace generator.
	SyntheticConfig = workload.SyntheticConfig
)

// Prediction types.
type (
	// Predictor forecasts the next idle/active period or active current.
	Predictor = predict.Predictor
	// PredictAccuracy reports MAE/RMSE/over-prediction rate.
	PredictAccuracy = predict.Accuracy
)

// Optimization types (the paper's §3 framework).
type (
	// OptSlot specifies one task slot for the fuel optimizer.
	OptSlot = fcopt.Slot
	// OptSetting is the optimizer's per-slot FC output decision.
	OptSetting = fcopt.Setting
	// OfflineProblem is a whole-trace fuel-minimization instance solved
	// by dynamic programming on a storage grid (a feasible schedule, so an
	// upper bound on the offline optimum).
	OfflineProblem = fcopt.OfflineProblem
	// OfflineSchedule is the DP result: per-slot settings plus fuel.
	OfflineSchedule = fcopt.OfflineSchedule
)

// Simulation types.
type (
	// SimConfig assembles one simulation run.
	SimConfig = sim.Config
	// Result summarizes a run (fuel, energy, profiles, lifetime).
	Result = sim.Result
	// Policy is an FC-output control policy.
	Policy = sim.Policy
)

// Comparison is a Table 2/3-style policy comparison.
type Comparison = exp.Comparison

// PaperSystem returns the FC system of the paper's experiments: VF = 12 V,
// ζ = 37.5, load-following range [0.1 A, 1.2 A], ηs = 0.45 − 0.13·IF.
func PaperSystem() *System { return fuelcell.PaperSystem() }

// BCS20W returns the polarization model calibrated to the paper's BCS 20 W
// stack (Fig 2).
func BCS20W() *Stack { return fuelcell.BCS20W() }

// NewPWMPFMConverter returns the paper's high-efficiency DC-DC converter.
func NewPWMPFMConverter(vout float64) Converter { return fuelcell.NewPWMPFMConverter(vout) }

// ProportionalController returns the variable-speed fan controller.
func ProportionalController() Controller { return fuelcell.ProportionalController() }

// NewChainEfficiency derives an ηs(IF) model from physical components.
func NewChainEfficiency(s *Stack, c Converter, ctrl Controller) (*ChainEfficiency, error) {
	return fuelcell.NewChainEfficiency(s, c, ctrl)
}

// NewSuperCap returns an ideal supercapacitor with capacity cmax A-s
// holding q0, or a typed storage error for a non-positive capacity.
func NewSuperCap(cmax, q0 float64) (*SuperCapacitor, error) { return storage.NewSuperCap(cmax, q0) }

// MustSuperCap is NewSuperCap for compile-time-fixed parameters; it panics
// on the error a literal capacity cannot produce.
func MustSuperCap(cmax, q0 float64) *SuperCapacitor { return storage.MustSuperCap(cmax, q0) }

// Camcorder returns the paper's DVD-camcorder device model (Fig 6).
func Camcorder() *Device { return device.Camcorder() }

// SyntheticDevice returns the Experiment 2 device model.
func SyntheticDevice() *Device { return device.Synthetic() }

// CamcorderTrace generates the Experiment 1 MPEG encode/write trace with
// the default configuration and the given seed.
func CamcorderTrace(seed uint64) (*Trace, error) {
	cfg := workload.DefaultCamcorderConfig()
	cfg.Seed = seed
	return workload.Camcorder(cfg)
}

// GenerateSyntheticTrace generates a synthetic trace with a custom
// configuration.
func GenerateSyntheticTrace(cfg SyntheticConfig) (*Trace, error) { return workload.Synthetic(cfg) }

// DefaultSyntheticConfig returns the Experiment 2 generator configuration.
func DefaultSyntheticConfig() SyntheticConfig { return workload.DefaultSyntheticConfig() }

// PeriodicTrace returns n identical idle/active slots.
func PeriodicTrace(n int, idle, active, activeCurrent float64) *Trace {
	return workload.Periodic(n, idle, active, activeCurrent)
}

// NewExpAverage returns the paper's Eq 14/15 exponential-average
// predictor. An out-of-range rho is a *predict.ConfigError; use
// MustExpAverage for fixed literals.
func NewExpAverage(rho, initial float64) (Predictor, error) {
	return predict.NewExpAverage(rho, initial)
}

// MustExpAverage is NewExpAverage for fixed in-range literals; it panics
// on a construction error.
func MustExpAverage(rho, initial float64) Predictor { return predict.MustExpAverage(rho, initial) }

// NewLastValue returns a last-value predictor.
func NewLastValue(initial float64) Predictor { return predict.NewLastValue(initial) }

// NewRegressionPredictor returns a sliding-window linear-regression
// predictor [2]. A window below 2 is a *predict.ConfigError.
func NewRegressionPredictor(window int, initial float64) (Predictor, error) {
	return predict.NewRegression(window, initial)
}

// MustRegressionPredictor is NewRegressionPredictor for fixed valid
// literals; it panics on a construction error.
func MustRegressionPredictor(window int, initial float64) Predictor {
	return predict.MustRegression(window, initial)
}

// NewTreePredictor returns an adaptive-learning-tree predictor [3].
// Out-of-range parameters are a *predict.ConfigError.
func NewTreePredictor(levels, depth int, lo, hi, initial float64) (Predictor, error) {
	return predict.NewTree(levels, depth, lo, hi, initial)
}

// MustTreePredictor is NewTreePredictor for fixed valid literals; it
// panics on a construction error.
func MustTreePredictor(levels, depth int, lo, hi, initial float64) Predictor {
	return predict.MustTree(levels, depth, lo, hi, initial)
}

// NewMarkovPredictor returns a first-order Markov-chain predictor over
// quantized levels (the stochastic-control modelling of [4, 5]).
// Out-of-range parameters are a *predict.ConfigError.
func NewMarkovPredictor(levels int, lo, hi, initial float64) (Predictor, error) {
	return predict.NewMarkov(levels, lo, hi, initial)
}

// MustMarkovPredictor is NewMarkovPredictor for fixed valid literals; it
// panics on a construction error.
func MustMarkovPredictor(levels int, lo, hi, initial float64) Predictor {
	return predict.MustMarkov(levels, lo, hi, initial)
}

// EvaluatePredictor streams a series through a predictor and reports
// accuracy. An empty series is an error.
func EvaluatePredictor(p Predictor, series []float64) (PredictAccuracy, error) {
	return predict.Evaluate(p, series)
}

// NewConv returns the Conv-DPM baseline policy.
func NewConv(sys *System) Policy { return policy.NewConv(sys) }

// NewASAP returns the ASAP-DPM load-following baseline policy.
func NewASAP(sys *System) Policy { return policy.NewASAP(sys) }

// NewFCDPM returns the paper's FC-DPM policy (Fig 5).
func NewFCDPM(sys *System, dev *Device) Policy { return policy.NewFCDPM(sys, dev) }

// NewFlat returns a fixed-output policy (offline flat oracle).
func NewFlat(sys *System, iF float64) Policy { return policy.NewFlat(sys, iF) }

// NewSchedule returns a policy replaying a precomputed per-slot schedule,
// typically from SolveOffline.
func NewSchedule(sys *System, settings []OptSetting) Policy {
	return policy.NewSchedule(sys, settings)
}

// OptimizeSlot runs the §3 fuel-optimization framework on one task slot.
func OptimizeSlot(sys *System, cmax float64, s OptSlot) (OptSetting, error) {
	return fcopt.Optimize(sys, cmax, s)
}

// SolveOffline computes the minimum-fuel whole-trace schedule by dynamic
// programming over the storage state.
func SolveOffline(p OfflineProblem) (*OfflineSchedule, error) { return fcopt.SolveOffline(p) }

// OptimalTimeout returns the timeout minimizing expected idle-period
// charge over the given idle-length samples (the stochastic-control
// approach of [4, 5]).
func OptimalTimeout(dev *Device, samples []float64) float64 {
	return stochdpm.OptimalTimeout(dev, samples)
}

// Run executes a trace-driven simulation.
func Run(cfg SimConfig) (*Result, error) { return sim.Run(cfg) }

// Experiment2 reproduces the paper's Table 3 (synthetic trace).
func Experiment2(seed uint64) (*Comparison, error) {
	return exp.Experiment2(context.Background(), seed)
}
