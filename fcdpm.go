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
// This package is the public facade: it re-exports the library's primary
// types and constructors so downstream users need a single import. The
// implementation lives in the internal packages (see DESIGN.md for the
// module map); everything exposed here is a direct alias or thin wrapper.
//
// # Quick start
//
//	sys := fcdpm.PaperSystem()                  // 12 V FC system, ηs = 0.45 − 0.13·IF
//	dev := fcdpm.Camcorder()                    // Fig 6 power-state machine
//	trace, _ := fcdpm.CamcorderTrace(1)         // 28-min MPEG encode/write workload
//	res, _ := fcdpm.Run(fcdpm.SimConfig{
//		Sys: sys, Dev: dev,
//		Store:  fcdpm.NewSuperCap(6, 1),
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
	"fcdpm/internal/dvs"
	"fcdpm/internal/exp"
	"fcdpm/internal/fault"
	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/multistack"
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
	// StackParams parameterizes a Stack.
	StackParams = fuelcell.StackParams
	// EfficiencyModel maps FC output current to system efficiency ηs.
	EfficiencyModel = fuelcell.EfficiencyModel
	// LinearEfficiency is the paper's Eq 2 model ηs = α − β·IF.
	LinearEfficiency = fuelcell.LinearEfficiency
	// ConstantEfficiency is the flat-ηs model of the authors' earlier
	// configuration [10, 11].
	ConstantEfficiency = fuelcell.ConstantEfficiency
	// Converter models a DC-DC converter's efficiency.
	Converter = fuelcell.Converter
	// Controller models the FC balance-of-plant (fans, solenoid, MCU).
	Controller = fuelcell.Controller
	// ChainEfficiency derives ηs from the stack/converter/controller
	// chain.
	ChainEfficiency = fuelcell.ChainEfficiency
	// IVPoint is one sample of the stack I-V-P characteristic (Fig 2).
	IVPoint = fuelcell.IVPoint
)

// Storage types.
type (
	// Storage is the charge buffer between the FC output and the load.
	Storage = storage.Storage
	// SuperCapacitor is the ideal coulomb buffer the paper assumes.
	SuperCapacitor = storage.SuperCap
	// LiIon is a kinetic battery model with rate-capacity and recovery
	// effects, for battery-contrast ablations.
	LiIon = storage.LiIon
	// Flow reports stored/bled/deficit charge from a storage update.
	Flow = storage.Flow
)

// Device and workload types.
type (
	// Device is the DPM-enabled embedded-system power model.
	Device = device.Model
	// PowerState is RUN, STANDBY, or SLEEP.
	PowerState = device.State
	// Trace is a task-slot workload.
	Trace = workload.Trace
	// TraceSlot is one idle+active task slot.
	TraceSlot = workload.Slot
	// CamcorderConfig parameterizes the MPEG trace generator.
	CamcorderConfig = workload.CamcorderConfig
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
	// OptOverhead carries the §3.3.2 sleep-transition costs.
	OptOverhead = fcopt.Overhead
	// OptSetting is the optimizer's per-slot FC output decision.
	OptSetting = fcopt.Setting
)

// Simulation types.
type (
	// SimConfig assembles one simulation run.
	SimConfig = sim.Config
	// Result summarizes a run (fuel, energy, profiles, lifetime).
	Result = sim.Result
	// Policy is an FC-output control policy.
	Policy = sim.Policy
	// DPMMode selects the device-side sleep policy.
	DPMMode = sim.DPMMode
	// ProfilePoint is one step of a recorded current profile (Fig 7).
	ProfilePoint = sim.ProfilePoint
	// RecordLevel selects how much per-run detail a simulation records.
	RecordLevel = sim.RecordLevel
	// SimLane is one scenario variant of a batched run: a SimConfig plus
	// an optional grouping key asserting "same simulation as any lane
	// with an equal key".
	SimLane = sim.Lane
	// LaneResult is one lane's outcome from a BatchRunner run.
	//
	// CAUTION: Res aliases the batch runner's internal buffers. It is
	// valid only until the next Run call, which rewinds and overwrites
	// those buffers in place. Copy any fields (including slices such as
	// Profile, Charges, and SlotLog) that must outlive the next run.
	// Results from the one-shot Run / RunContext package functions do
	// not alias anything and are safe to retain.
	LaneResult = sim.LaneResult
	// BatchRunner is the simulation engine: it executes K scenario
	// variants in lockstep over one trace walk, collapsing
	// identical-dynamics lanes to a single simulation while guaranteeing
	// every lane's Result is bit-identical to a one-lane run (Run is a
	// one-lane batch). Allocate once with NewBatchRunner; repeated Run
	// calls are allocation-free at steady state (sweeps, benchmarks,
	// services).
	BatchRunner = sim.BatchRunner
	// BatchKeyer is the optional grouping identity a policy, predictor,
	// or storage element can expose to let BatchRunner group lanes.
	BatchKeyer = sim.BatchKeyer
)

// Recording levels for SimConfig.Record.
const (
	// RecordFuelOnly (the zero value) records scalar totals only — the
	// zero-allocation fast path for runs that never read
	// Profile/Charges/SlotLog.
	RecordFuelOnly = sim.RecordFuelOnly
	// RecordFull records the Fig 7 profiles and the per-slot audit log.
	RecordFull = sim.RecordFull
)

// Experiment-harness types.
type (
	// Comparison is a Table 2/3-style policy comparison.
	Comparison = exp.Comparison
	// PolicyRow is one line of a Comparison.
	PolicyRow = exp.PolicyRow
	// Scenario bundles a full experiment configuration.
	Scenario = exp.Scenario
	// Motivational is the §3.2 worked example (Fig 4).
	Motivational = exp.Motivational
)

// Device-side DPM modes.
const (
	DPMPredictive  = sim.DPMPredictive
	DPMNeverSleep  = sim.DPMNeverSleep
	DPMAlwaysSleep = sim.DPMAlwaysSleep
	DPMOracle      = sim.DPMOracle
)

// Power states.
const (
	StateRun     = device.Run
	StateStandby = device.Standby
	StateSleep   = device.Sleep
)

// PaperSystem returns the FC system of the paper's experiments: VF = 12 V,
// ζ = 37.5, load-following range [0.1 A, 1.2 A], ηs = 0.45 − 0.13·IF.
func PaperSystem() *System { return fuelcell.PaperSystem() }

// NewSystem builds a custom FC system description.
func NewSystem(vf, zeta, minOut, maxOut float64, eff EfficiencyModel) (*System, error) {
	return fuelcell.NewSystem(vf, zeta, minOut, maxOut, eff)
}

// BCS20W returns the polarization model calibrated to the paper's BCS 20 W
// stack (Fig 2).
func BCS20W() *Stack { return fuelcell.BCS20W() }

// NewStack builds a custom stack model.
func NewStack(p StackParams) (*Stack, error) { return fuelcell.NewStack(p) }

// NewPWMPFMConverter returns the paper's high-efficiency DC-DC converter.
func NewPWMPFMConverter(vout float64) Converter { return fuelcell.NewPWMPFMConverter(vout) }

// NewPWMConverter returns a plain PWM converter (poor light-load
// efficiency), the earlier-work configuration.
func NewPWMConverter(vout float64) Converter { return fuelcell.NewPWMConverter(vout) }

// ProportionalController returns the variable-speed fan controller.
func ProportionalController() Controller { return fuelcell.ProportionalController() }

// OnOffController returns the constant-speed + on/off cooling fan
// controller.
func OnOffController() Controller { return fuelcell.OnOffController() }

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

// PaperSuperCap returns the experiments' 1 F / 100 mA-min supercapacitor,
// full.
func PaperSuperCap() *SuperCapacitor { return storage.PaperSuperCap() }

// NewLiIon returns a KiBaM battery model.
func NewLiIon(cmax, c, k, q0 float64) (*LiIon, error) { return storage.NewLiIon(cmax, c, k, q0) }

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

// GenerateCamcorderTrace generates an MPEG trace with a custom
// configuration.
func GenerateCamcorderTrace(cfg CamcorderConfig) (*Trace, error) { return workload.Camcorder(cfg) }

// SyntheticTrace generates the Experiment 2 trace with the default
// configuration and the given seed.
func SyntheticTrace(seed uint64) (*Trace, error) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Seed = seed
	return workload.Synthetic(cfg)
}

// GenerateSyntheticTrace generates a synthetic trace with a custom
// configuration.
func GenerateSyntheticTrace(cfg SyntheticConfig) (*Trace, error) { return workload.Synthetic(cfg) }

// DefaultCamcorderConfig returns the Experiment 1 generator configuration.
func DefaultCamcorderConfig() CamcorderConfig { return workload.DefaultCamcorderConfig() }

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

// OptimizeSlot runs the §3 fuel-optimization framework on one task slot.
func OptimizeSlot(sys *System, cmax float64, s OptSlot) (OptSetting, error) {
	return fcopt.Optimize(sys, cmax, s)
}

// Run executes a trace-driven simulation.
func Run(cfg SimConfig) (*Result, error) { return sim.Run(cfg) }

// RunContext is Run with cancellation: the simulation stops between slots
// when ctx is done and returns a *sim.CanceledError.
func RunContext(ctx context.Context, cfg SimConfig) (*Result, error) {
	return sim.RunContext(ctx, cfg)
}

// NewBatchRunner validates the lanes (which must share one trace), groups
// identical-dynamics lanes, and allocates a reusable arena; one lane is
// the reusable form of Run. See the LaneResult type note for the
// aliasing caution.
func NewBatchRunner(lanes []SimLane) (*BatchRunner, error) { return sim.NewBatchRunner(lanes) }

// Fault-injection types (the robustness subsystem).
type (
	// FaultKind names a fault class (stack dropout, capacity fade, ...).
	FaultKind = fault.Kind
	// FaultEvent is one timed fault on a schedule.
	FaultEvent = fault.Event
	// FaultSchedule is the set of faults injected into a run.
	FaultSchedule = fault.Schedule
	// FaultGenConfig parameterizes the deterministic schedule generator.
	FaultGenConfig = fault.GenConfig
	// RunEvent is one audit-log entry (fault transition, invariant trip,
	// or policy fallback) of a supervised run.
	RunEvent = sim.RunEvent
	// SupervisorConfig tunes the graceful-degradation supervisor.
	SupervisorConfig = sim.SupervisorConfig
	// InvariantError reports a violated simulation invariant.
	InvariantError = sim.InvariantError
)

// GenerateFaults draws a deterministic random fault schedule from a seed.
func GenerateFaults(cfg FaultGenConfig) (*FaultSchedule, error) { return fault.Generate(cfg) }

// Experiment1 reproduces the paper's Table 2 (camcorder MPEG trace).
func Experiment1(seed uint64) (*Comparison, error) { return exp.Experiment1(seed) }

// Experiment2 reproduces the paper's Table 3 (synthetic trace).
func Experiment2(seed uint64) (*Comparison, error) { return exp.Experiment2(seed) }

// MotivationalExample reproduces the §3.2 / Fig 4 worked example.
func MotivationalExample() (*Motivational, error) { return exp.MotivationalExample() }

// Extension types: quantized output, offline oracle, hydrogen accounting.
type (
	// OfflineProblem is a whole-trace fuel-minimization instance solved
	// by dynamic programming (the true offline lower bound).
	OfflineProblem = fcopt.OfflineProblem
	// OfflineSchedule is the DP result: per-slot settings plus fuel.
	OfflineSchedule = fcopt.OfflineSchedule
	// HydrogenAccounting converts stack amp-seconds into physical H2.
	HydrogenAccounting = fuelcell.Hydrogen
)

// NewFCDPMQuantized returns FC-DPM restricted to discrete output levels
// (the multi-level configuration of the authors' companion work [11]),
// or a typed policy error for an empty or out-of-range level set.
func NewFCDPMQuantized(sys *System, dev *Device, levels []float64) (Policy, error) {
	return policy.NewFCDPMQuantized(sys, dev, levels)
}

// NewSchedule returns a policy replaying a precomputed per-slot schedule,
// typically from SolveOffline.
func NewSchedule(sys *System, settings []OptSetting) Policy {
	return policy.NewSchedule(sys, settings)
}

// OptimizeSlotQuantized solves one slot over a discrete output-level set.
func OptimizeSlotQuantized(sys *System, cmax float64, s OptSlot, levels []float64) (OptSetting, error) {
	return fcopt.OptimizeQuantized(sys, cmax, s, levels)
}

// UniformLevels returns n evenly spaced output levels over the system's
// load-following range.
func UniformLevels(sys *System, n int) []float64 { return fcopt.UniformLevels(sys, n) }

// SolveOffline computes the minimum-fuel whole-trace schedule by dynamic
// programming over the storage state.
func SolveOffline(p OfflineProblem) (*OfflineSchedule, error) { return fcopt.SolveOffline(p) }

// PaperHydrogen returns the hydrogen converter for the paper's 20-cell
// stack.
func PaperHydrogen() HydrogenAccounting { return fuelcell.PaperHydrogen() }

// DVS companion types ([10]).
type (
	// DVSProcessor is a DVS-capable processor model.
	DVSProcessor = dvs.Processor
	// DVSLevel is one voltage/frequency operating point.
	DVSLevel = dvs.Level
	// DVSTask is a periodic job: cycles, period, job count.
	DVSTask = dvs.Task
)

// XScale600 returns an XScale-class five-level processor model.
func XScale600() *DVSProcessor { return dvs.XScale600() }

// DVSEnergyOptimalLevel returns the feasible level minimizing load charge
// per period (classic DVS).
func DVSEnergyOptimalLevel(p *DVSProcessor, t DVSTask, idleCurrent float64) int {
	return dvs.EnergyOptimalLevel(p, t, idleCurrent)
}

// DVSFuelOptimalLevel returns the feasible level minimizing fuel per period
// under a load-following source (the [10] objective).
func DVSFuelOptimalLevel(sys *System, p *DVSProcessor, t DVSTask, idleCurrent float64) int {
	return dvs.FuelOptimalLevel(sys, p, t, idleCurrent)
}

// Stochastic-control DPM ([4, 5]) and workload-shaping extensions.

// TimeoutAdapter serves per-slot timeouts for the timeout DPM mode.
type TimeoutAdapter = sim.TimeoutAdapter

// NewAdaptiveTimeout returns a timeout adapter that learns the idle-length
// distribution over a sliding window and serves the expected-cost-optimal
// timeout (the stochastic-control approach of [4, 5]).
func NewAdaptiveTimeout(dev *Device, window int) (TimeoutAdapter, error) {
	return stochdpm.NewAdaptiveTimeout(dev, window)
}

// OptimalTimeout returns the timeout minimizing expected idle-period
// charge over the given idle-length samples.
func OptimalTimeout(dev *Device, samples []float64) float64 {
	return stochdpm.OptimalTimeout(dev, samples)
}

// HeavyTailConfig parameterizes the Pareto-idle stress workload.
type HeavyTailConfig = workload.HeavyTailConfig

// DefaultHeavyTailConfig returns the Experiment 3 configuration.
func DefaultHeavyTailConfig() HeavyTailConfig { return workload.DefaultHeavyTailConfig() }

// HeavyTailTrace generates a Pareto-idle trace.
func HeavyTailTrace(cfg HeavyTailConfig) (*Trace, error) { return workload.HeavyTail(cfg) }

// AggregateTrace merges groups of k consecutive slots (task
// procrastination, [6, 7]); MaxDeferral reports the worst task delay it
// imposes.
func AggregateTrace(t *Trace, k int) (*Trace, error) { return workload.Aggregate(t, k) }

// MaxDeferral reports the worst-case task-completion delay of
// AggregateTrace(t, k).
func MaxDeferral(t *Trace, k int) (float64, error) { return workload.MaxDeferral(t, k) }

// NewBatteryAware returns the battery-centric shaping strategy used by the
// contrast ablation (§1: battery-aware DPM does not transfer to FCs).
func NewBatteryAware(sys *System) Policy { return policy.NewBatteryAware(sys) }

// Thermal stress analysis and additional presets.

// Thermal is the lumped stack-temperature model for post-hoc thermal
// stress analysis of output profiles.
type Thermal = fuelcell.Thermal

// ThermalStress summarizes a temperature trajectory.
type ThermalStress = fuelcell.ThermalStress

// PaperThermal returns thermal parameters for the BCS 20 W-class stack.
func PaperThermal() Thermal { return fuelcell.PaperThermal() }

// HDD returns a 2.5-inch disk-drive device model (spin-up-dominated
// break-even time ≈ 16 s).
func HDD() *Device { return device.HDD() }

// SlotRecord is one entry of the per-slot audit log (recorded at RecordFull).
type SlotRecord = sim.SlotRecord

// SizingAdvice is the hybrid design advisor's output (the §2.2 argument as
// a function): FC range feasibility plus storage-capacity recommendation.
type SizingAdvice = exp.Advice

// Advise analyses a workload/device pair against an FC system and
// recommends the storage sizing FC-DPM needs.
func Advise(sys *System, dev *Device, tr *Trace) (*SizingAdvice, error) {
	return exp.Advise(sys, dev, tr)
}

// BurstyConfig parameterizes the regime-switching (Markov-modulated)
// workload generator.
type BurstyConfig = workload.BurstyConfig

// DefaultBurstyConfig returns the regime-switching study configuration.
func DefaultBurstyConfig() BurstyConfig { return workload.DefaultBurstyConfig() }

// BurstyTrace generates a two-regime workload with correlated idle lengths.
func BurstyTrace(cfg BurstyConfig) (*Trace, error) { return workload.Bursty(cfg) }

// TraceFromEvents converts an activity log (arrival/service/current events)
// into the slot representation the simulator consumes.
func TraceFromEvents(name string, events []workload.Event, leadIn float64) (*Trace, error) {
	return workload.FromEvents(name, events, leadIn)
}

// TraceEvent is one task request in an activity log.
type TraceEvent = workload.Event

// Multi-stack hybrid sources (K stacks behind one storage element).

// Rack is a K-stack hybrid power source aggregated under an allocation
// policy into a single System (see internal/multistack).
type Rack = multistack.Rack

// RackStack is one fuel-cell stack of a Rack: its system description,
// fractional efficiency degradation, and online/offline state.
type RackStack = multistack.Stack

// RackAllocator is a power-allocation policy splitting rack demand
// across stacks.
type RackAllocator = multistack.Allocator

// NewRack validates the stack set and pre-solves the aggregate system.
func NewRack(stacks []RackStack, alloc RackAllocator) (*Rack, error) {
	return multistack.New(stacks, alloc)
}

// UniformRack builds a rack of k identical stacks with a cycled
// degradation mix (nil means all healthy).
func UniformRack(sys *System, k int, alloc RackAllocator, degrade []float64) (*Rack, error) {
	return multistack.Uniform(sys, k, alloc, degrade)
}

// ParseRackAllocator maps a selector ("equal", "waterfill", "rotation")
// to an allocation policy.
func ParseRackAllocator(name string) (RackAllocator, error) {
	return multistack.ParseAllocator(name)
}

// RackAllocators returns the built-in allocation policies in comparison
// order: equal-split, water-filling, health-rotation.
func RackAllocators() []RackAllocator { return multistack.Allocators() }

// RackSurgeConfig parameterizes the datacenter rack workload generator:
// steady service work punctuated by power-surge episodes.
type RackSurgeConfig = workload.RackSurgeConfig

// DefaultRackSurgeConfig returns the surge-study configuration.
func DefaultRackSurgeConfig() RackSurgeConfig { return workload.DefaultRackSurgeConfig() }

// RackSurgeTrace generates the surge-modulated rack workload.
func RackSurgeTrace(cfg RackSurgeConfig) (*Trace, error) { return workload.RackSurge(cfg) }

// MultiStackConfig parameterizes the rack-allocation study.
type MultiStackConfig = exp.MultiStackConfig

// MultiStackRow is one (allocator, rack size, intensity) study cell.
type MultiStackRow = exp.MultiStackRow

// MultiStackStudy compares rack allocation policies across rack sizes
// and surge intensities on the racksurge workload.
func MultiStackStudy(cfg MultiStackConfig) ([]MultiStackRow, error) {
	return exp.MultiStackStudy(cfg)
}
