// Package sim is the trace-driven simulator of the FC-hybrid-powered
// embedded system. It expands each task slot into the exact sequence of
// piecewise-constant-current segments implied by the device power-state
// machine and the DPM decision, asks the source policy for the FC output
// over each segment, and integrates charge, fuel, and energy analytically
// (no time stepping — results are exact for the model).
package sim

import (
	"context"
	"fmt"
	"math"

	"fcdpm/internal/device"
	"fcdpm/internal/fault"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/obs"
	"fcdpm/internal/predict"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

// SegmentKind identifies what the embedded system is doing during a
// segment.
type SegmentKind int

// Segment kinds, in the order they can occur within one task slot.
const (
	SegPowerDown SegmentKind = iota // entering SLEEP (τPD at IPD)
	SegSleep                        // SLEEP mode
	SegStandby                      // STANDBY mode
	SegWakeUp                       // exiting SLEEP (τWU at IWU)
	SegStartup                      // STANDBY→RUN transition at RUN current
	SegActive                       // RUN mode, task executing
	SegShutdown                     // RUN→STANDBY transition at RUN current
)

// String names the segment kind.
func (k SegmentKind) String() string {
	switch k {
	case SegPowerDown:
		return "power-down"
	case SegSleep:
		return "sleep"
	case SegStandby:
		return "standby"
	case SegWakeUp:
		return "wake-up"
	case SegStartup:
		return "startup"
	case SegActive:
		return "active"
	case SegShutdown:
		return "shutdown"
	default:
		return fmt.Sprintf("SegmentKind(%d)", int(k))
	}
}

// IdlePhase reports whether the segment belongs to the idle phase of a slot
// (FC output planned from predictions) rather than the active phase (FC
// output planned from actuals).
func (k SegmentKind) IdlePhase() bool {
	switch k {
	case SegPowerDown, SegSleep, SegStandby:
		return true
	default:
		return false
	}
}

// Segment is one constant-load interval.
type Segment struct {
	Kind SegmentKind
	Dur  float64 // seconds
	Load float64 // embedded-system current, A
}

// Piece is one constant FC-output interval within a segment, returned by a
// policy. Pieces of a segment must tile its duration exactly.
type Piece struct {
	IF  float64 // FC system output current, A
	Dur float64 // seconds
}

// SlotInfo is the context handed to policies at planning points.
type SlotInfo struct {
	// K is the slot index (0-based).
	K int
	// Sleeping is the DPM decision for this idle period.
	Sleeping bool
	// PredIdle, PredActive, PredActiveCurrent are the predictor outputs
	// for this slot (valid at PlanIdle).
	PredIdle, PredActive, PredActiveCurrent float64
	// ActualIdle, ActualActive, ActualActiveCurrent are the realized slot
	// parameters (valid at PlanActive; the task reveals its demands when
	// it arrives, per Fig 5 "using actual Ta and Ild,a").
	ActualIdle, ActualActive, ActualActiveCurrent float64
	// IdleLoad is the embedded-system current during the idle period
	// (Isdb or Islp per the sleep decision).
	IdleLoad float64
	// Charge and Cmax describe the storage element right now.
	Charge, Cmax float64
	// ChargeTarget is the Cend the policy should steer back to (the
	// paper's Cini(1) stability target).
	ChargeTarget float64
}

// Policy decides the FC system output. Implementations live in the policy
// package; they are stateful per simulation run.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Reset prepares the policy for a fresh run.
	Reset(cmax, chargeTarget float64)
	// PlanIdle is called at the start of each slot's idle period with
	// predictions only.
	PlanIdle(info SlotInfo)
	// PlanActive is called when the active period's demands are revealed
	// (just before the wake-up transition when sleeping).
	PlanActive(info SlotInfo)
	// SegmentPlan appends the FC output pieces covering the segment,
	// given the current storage charge, to buf and returns the extended
	// slice, so the simulator reuses one scratch buffer across segments.
	// Piece durations must sum to seg.Dur.
	SegmentPlan(seg Segment, charge float64, buf []Piece) []Piece
}

// DPMMode selects how the device-side sleep decision is made.
type DPMMode int

// Device-side DPM modes.
const (
	// DPMPredictive sleeps when the predicted idle period meets the
	// break-even time (the paper's policy, Fig 5).
	DPMPredictive DPMMode = iota
	// DPMNeverSleep keeps the device in STANDBY through every idle
	// period.
	DPMNeverSleep
	// DPMAlwaysSleep sleeps on every idle period regardless of length.
	DPMAlwaysSleep
	// DPMOracle sleeps exactly when the *actual* idle period meets the
	// break-even time.
	DPMOracle
	// DPMTimeout is the classic reactive policy: the device waits in
	// STANDBY for Config.Timeout seconds and sleeps only if the idle
	// period outlasts the timeout. No prediction is involved in the
	// sleep decision itself (source policies still receive predictions).
	DPMTimeout
)

// String names the DPM mode.
func (m DPMMode) String() string {
	switch m {
	case DPMPredictive:
		return "predictive"
	case DPMNeverSleep:
		return "never-sleep"
	case DPMAlwaysSleep:
		return "always-sleep"
	case DPMOracle:
		return "oracle-sleep"
	case DPMTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("DPMMode(%d)", int(m))
	}
}

// TimeoutAdapter serves per-slot timeouts for DPMTimeout and learns from
// realized idle lengths (see the stochdpm package).
type TimeoutAdapter interface {
	// NextTimeout returns the dwell to use for the upcoming idle period.
	NextTimeout() float64
	// Observe feeds the realized idle length after the slot completes.
	Observe(idle float64)
	// CloneTimeoutAdapter returns an independent adapter with identical
	// learned state, so each lane of a batched timeout study owns its
	// adaptation.
	CloneTimeoutAdapter() TimeoutAdapter
}

// Config assembles one simulation run.
type Config struct {
	Sys    *fuelcell.System
	Dev    *device.Model
	Store  storage.Storage // cloned; the original is not mutated
	Trace  *workload.Trace
	Policy Policy
	// DPM selects the device-side sleep policy (default: predictive).
	DPM DPMMode
	// Timeout is the STANDBY dwell before sleeping under DPMTimeout, in
	// seconds. It defaults to the device break-even time, the classic
	// 2-competitive choice.
	Timeout float64
	// TimeoutAdapter, when set with DPMTimeout, supplies a fresh timeout
	// before each slot and is fed the realized idle length afterwards —
	// the hook for distribution-learning (stochastic-control) policies.
	TimeoutAdapter TimeoutAdapter
	// IdlePredictor, ActivePredictor, CurrentPredictor forecast the slot
	// parameters. Nil fields get exponential-average defaults with
	// ρ = σ = 0.5 seeded from the device break-even time and the first
	// slot's values.
	IdlePredictor, ActivePredictor, CurrentPredictor predict.Predictor
	// Record selects how much per-run history the simulator keeps. The
	// zero value, RecordFuelOnly, skips every Profile/Charges/SlotLog
	// append — the steady-state zero-allocation path; RecordFull keeps
	// the per-piece profile (Fig 7), the charge trajectory, and the
	// per-slot audit log.
	Record RecordLevel
	// SlewRate limits how fast the FC system output can change, in amps
	// per second; 0 means ideal (instantaneous) steps. Real fuel-flow
	// controllers ramp: the blower, pump, and stack gas dynamics give
	// seconds-scale settling. Load-following policies pay for every ramp
	// (the storage must cover the tracking error); flat-output policies
	// barely notice — an FC-DPM advantage the paper's ideal-source model
	// hides.
	SlewRate float64
	// Faults, when non-nil, injects the scheduled perturbations into the
	// fuel-cell / storage / workload models mid-run. Integration splits
	// exactly at fault boundaries, so results stay analytical and
	// seed-reproducible.
	Faults *fault.Schedule
	// FaultSeed drives the sensor-noise stream of the fault injector.
	FaultSeed uint64
	// Fallbacks is the graceful-degradation chain the supervisor walks
	// when invariants trip: Policy, then each fallback in order, then an
	// implicit last-resort load-shed stage. Degradation is one-way.
	Fallbacks []Policy
	// DeficitLimit is the unmet-load charge (A-s) the supervisor
	// tolerates per degradation stage before falling back to the next
	// policy in the chain; 0 means DefaultDeficitLimit. The supervisor
	// is armed exactly when Faults (even an empty schedule) or Fallbacks
	// are configured; plain runs keep the fail-fast error behavior.
	DeficitLimit float64
	// Metrics, when non-nil, receives one RecordRun per completed run:
	// slots simulated, fuel consumed, memo hit/miss deltas, and wall
	// time. Recording is a handful of atomic adds after the run — the
	// zero-allocation hot path is untouched.
	Metrics *obs.SimMetrics
}

// RecordLevel selects how much per-run history the simulator keeps.
type RecordLevel int

// Record levels.
const (
	// RecordFuelOnly (the zero value) keeps scalar totals only: no
	// Profile, Charges, or SlotLog appends. Experiment comparisons and
	// every serving surface need nothing more, and it is the level at
	// which steady-state runs allocate nothing.
	RecordFuelOnly RecordLevel = iota
	// RecordFull records the per-piece profile, the charge trajectory,
	// and the per-slot audit log.
	RecordFull
)

// String names the record level.
func (l RecordLevel) String() string {
	switch l {
	case RecordFuelOnly:
		return "fuel-only"
	case RecordFull:
		return "full"
	default:
		return "RecordLevel(?)"
	}
}

// validate checks the configuration.
func (c *Config) validate() error {
	switch {
	case c.Sys == nil:
		return fmt.Errorf("sim: nil fuel-cell system")
	case c.Dev == nil:
		return fmt.Errorf("sim: nil device model")
	case c.Store == nil:
		return fmt.Errorf("sim: nil storage")
	case c.Trace == nil || c.Trace.Len() == 0:
		return fmt.Errorf("sim: empty trace")
	case c.Policy == nil:
		return fmt.Errorf("sim: nil policy")
	}
	if err := c.Dev.Validate(); err != nil {
		return err
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	for i, p := range c.Fallbacks {
		if p == nil {
			return fmt.Errorf("sim: nil fallback policy at index %d", i)
		}
	}
	if d := c.DeficitLimit; math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		return fmt.Errorf("sim: bad supervisor deficit limit %v", d)
	}
	return c.Trace.Validate()
}

// ProfilePoint is one step of the recorded current profile.
type ProfilePoint struct {
	T    float64 // segment-piece start time, s
	Load float64 // embedded-system current, A
	IF   float64 // FC system output current, A
}

// ChargePoint is one sample of the storage trajectory.
type ChargePoint struct {
	T float64
	Q float64
}

// Result summarizes one simulation run.
type Result struct {
	Policy string
	// Fuel is the total stack charge consumed, ∫Ifc dt in A-s —
	// proportional to hydrogen consumed; the paper's objective.
	Fuel float64
	// Duration is the simulated wall time in seconds (trace time plus
	// sleep-transition overheads).
	Duration float64
	// DeliveredEnergy is the energy the FC system output supplied (J);
	// LoadEnergy is what the embedded system consumed (J). They differ
	// by storage round-tripping, bleed, and deficit.
	DeliveredEnergy, LoadEnergy float64
	// Bled is charge dissipated through the bleeder by-pass (A-s);
	// Deficit is unmet load charge (A-s, should be ~0 for sane policies).
	Bled, Deficit float64
	// Slots and Sleeps count task slots and sleep decisions.
	Slots, Sleeps int
	// FuelByKind breaks the fuel total down by what the device was doing
	// when it was burned.
	FuelByKind map[SegmentKind]float64
	// SetpointChanges counts how often the FC output set point moved —
	// each change exercises the fuel-flow actuator (valve, blower), so
	// policies that re-command constantly age the plant faster.
	SetpointChanges int
	// Shed is load charge intentionally not served while the supervisor's
	// last-resort load-shed stage was active (A-s). Deficit, by contrast,
	// is unmet load that no stage decided to drop.
	Shed float64
	// Fallbacks counts supervisor policy downgrades; FinalPolicy names
	// the policy active when the run ended (equal to Policy unless the
	// run degraded).
	Fallbacks   int
	FinalPolicy string
	// Events is the run audit log: fault onsets/clears, invariant
	// violations, and fallbacks, in time order.
	Events []RunEvent
	// LostCharge is storage charge destroyed by capacity-fade faults
	// (A-s).
	LostCharge float64
	// FinalCharge is the storage charge at the end of the run.
	FinalCharge float64
	// Profile, Charges, and SlotLog are recorded at RecordFull.
	Profile []ProfilePoint
	Charges []ChargePoint
	SlotLog []SlotRecord
}

// SlotRecord is one task slot's audit entry.
type SlotRecord struct {
	K                      int
	Idle, Active           float64
	ActiveCurrent          float64
	Slept                  bool
	PredIdle               float64 // what the predictor believed at idle start
	ChargeStart, ChargeEnd float64
	Fuel                   float64 // stack A-s burned during the slot
}

// Reset clears the result for reuse, keeping the backing storage of its
// slices and map so a reused BatchRunner's steady-state runs allocate
// nothing.
func (r *Result) Reset() {
	m := r.FuelByKind
	if m != nil {
		clear(m)
	}
	*r = Result{
		FuelByKind: m,
		Events:     r.Events[:0],
		Profile:    r.Profile[:0],
		Charges:    r.Charges[:0],
		SlotLog:    r.SlotLog[:0],
	}
}

// AvgFuelRate returns the mean stack current over the run (A).
func (r *Result) AvgFuelRate() float64 {
	if r.Duration == 0 {
		return 0
	}
	return r.Fuel / r.Duration
}

// Lifetime returns how long the system would run on fuelBudget amp-seconds
// of stack charge at this run's average fuel rate. Infinite when the run
// consumed no fuel.
func (r *Result) Lifetime(fuelBudget float64) float64 {
	rate := r.AvgFuelRate()
	if rate == 0 {
		return math.Inf(1)
	}
	return fuelBudget / rate
}

// NormalizedFuel returns this run's fuel relative to a baseline run over
// the same trace — the paper's Tables 2 and 3 metric. Fuel totals are
// normalized by duration first so that policies with different transition
// overheads compare fairly.
func (r *Result) NormalizedFuel(baseline *Result) float64 {
	base := baseline.AvgFuelRate()
	if base == 0 {
		return math.Inf(1)
	}
	return r.AvgFuelRate() / base
}

// Run executes the simulation and returns the result.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the simulation under a context: cancellation or
// deadline expiry stops the run between slots with a CanceledError that
// records the simulated time reached. It is a one-lane BatchRunner run;
// the result is the caller's to keep.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	out, _ := newSingleLane(cfg).RunContext(ctx)
	return out[0].Res, out[0].Err
}

// numSegmentKinds sizes the per-kind fuel accumulator array.
const numSegmentKinds = int(SegShutdown) + 1

// state carries one run group's mutable simulation state plus the
// scratch buffers a BatchRunner reuses across runs. One-time setup lives
// in init, per-run rewinding in reset.
type state struct {
	cfg   Config
	store storage.Storage
	res   *Result
	t     float64
	tbe   float64

	predIdle, predActive, predCurrent predict.Predictor
	chargeTarget                      float64

	// lastIF tracks the FC output for slew-rate limiting; negative means
	// "not yet set" (the first piece starts wherever it asks).
	lastIF float64

	// pol is the currently active policy; chain is the full degradation
	// sequence [Config.Policy, fallbacks..., load-shed] and chainIdx the
	// position of pol within it.
	pol      Policy
	chain    []Policy
	chainIdx int
	// tripDeficit accumulates unmet load since the last degradation; the
	// supervisor falls back when it exceeds the deficit budget.
	tripDeficit float64

	// inj and fade are set only under fault injection.
	inj  *fault.Injector
	fade *fault.FadeStore

	// Reuse machinery. base is the working storage clone, snap a
	// pristine snapshot base rewinds to; baseTimeout is the resolved
	// Timeout before any adapter overwrote it; polName caches
	// Config.Policy.Name() (a Name() may format). recFull records the
	// profile, charge trajectory, and slot log. fuelKind accumulates
	// per-kind fuel in an array so the hot loop never touches the result
	// map; memo caches the Eq 3/4 evaluations.
	base        storage.Storage
	snap        storage.Storage
	baseTimeout float64
	polName     string
	recFull     bool
	memo        *fuelcell.Memo
	fuelKind    [numSegmentKinds]float64
	fuelSeen    [numSegmentKinds]bool

	// Fixed-size piece scratch: policies return at most a handful of
	// pieces per segment (2 today; the buffer grows transparently if
	// exceeded). A slot expands to at most 3 idle and 4 active segments.
	pieceBuf  [8]Piece
	idleBuf   [3]Segment
	activeBuf [4]Segment
}

// init performs the one-time setup: every allocation a run needs happens
// here so reset and the run itself can stay allocation-free.
func (st *state) init(cfg Config) {
	st.cfg = cfg
	st.base = cfg.Store.Clone()
	st.snap = cfg.Store.Clone()
	st.res = &Result{FuelByKind: make(map[SegmentKind]float64, numSegmentKinds)}
	st.polName = cfg.Policy.Name()
	st.tbe = cfg.Dev.BreakEven()
	if st.cfg.Timeout <= 0 {
		st.cfg.Timeout = st.tbe
	}
	st.baseTimeout = st.cfg.Timeout
	st.chargeTarget = st.base.Charge() // the paper's Cini(1) stability target
	st.recFull = cfg.Record == RecordFull
	first := cfg.Trace.Slots[0]
	st.predIdle = cfg.IdlePredictor
	if st.predIdle == nil {
		st.predIdle = predict.MustExpAverage(0.5, st.tbe)
	}
	st.predActive = cfg.ActivePredictor
	if st.predActive == nil {
		st.predActive = predict.MustExpAverage(0.5, first.Active)
	}
	st.predCurrent = cfg.CurrentPredictor
	if st.predCurrent == nil {
		st.predCurrent = predict.MustExpAverage(0.5, first.ActiveCurrent)
	}
	st.memo = fuelcell.NewMemo(cfg.Sys)
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		// Built once; reset rewinds both in place so faulted runs stay on
		// the allocation-free reuse path.
		st.inj = fault.NewInjector(cfg.Faults, cfg.FaultSeed)
		st.fade = fault.NewFadeStore(st.base)
	}
	st.chain = make([]Policy, 0, len(cfg.Fallbacks)+2)
	st.chain = append(st.chain, cfg.Policy)
	st.chain = append(st.chain, cfg.Fallbacks...)
	st.chain = append(st.chain, loadShed{sys: cfg.Sys})
}

// reset rewinds the state for a fresh run, allocation-free: under fault
// injection the injector and fade wrapper rewind in place so the noise
// stream and fade accounting restart deterministically without rebuilds.
func (st *state) reset() {
	st.res.Reset()
	st.res.Policy = st.polName
	st.t = 0
	st.lastIF = -1
	st.tripDeficit = 0
	st.cfg.Timeout = st.baseTimeout
	if r, ok := st.base.(storage.Restorer); !ok || !r.RestoreFrom(st.snap) {
		st.base = st.snap.Clone()
	}
	st.store = st.base
	if st.inj != nil {
		st.inj.Reset()
		// st.base may have been replaced by a fresh Clone above (when the
		// storage kind implements no Restorer), so re-point the wrapper.
		st.fade.Reset(st.base)
		st.store = st.fade
	}
	st.predIdle.Reset()
	st.predActive.Reset()
	st.predCurrent.Reset()
	st.fuelKind = [numSegmentKinds]float64{}
	st.fuelSeen = [numSegmentKinds]bool{}
	st.setPolicy(0)
	st.pol.Reset(st.store.Capacity(), st.chargeTarget)
}

// setPolicy activates chain[i].
func (st *state) setPolicy(i int) {
	st.chainIdx = i
	st.pol = st.chain[i]
}

// finalize folds the accumulators into the result after the last slot.
func (st *state) finalize() *Result {
	st.drainFaults()
	for k, seen := range st.fuelSeen {
		if seen {
			st.res.FuelByKind[SegmentKind(k)] = st.fuelKind[k]
		}
	}
	st.res.FinalCharge = st.store.Charge()
	if st.chainIdx == 0 {
		st.res.FinalPolicy = st.polName
	} else {
		st.res.FinalPolicy = st.pol.Name()
	}
	if st.fade != nil {
		st.res.LostCharge = st.fade.Lost
	}
	return st.res
}

// sleepDecision applies the configured DPM mode at planning time. Under
// DPMTimeout the *execution* decision is reactive (made inside the idle
// period once the timeout elapses); the planning decision returned here is
// the best forecast of it.
func (s *state) sleepDecision(predIdle, actualIdle float64) bool {
	switch s.cfg.DPM {
	case DPMNeverSleep:
		return false
	case DPMAlwaysSleep:
		return true
	case DPMOracle:
		return actualIdle >= s.tbe
	case DPMTimeout:
		return predIdle > s.cfg.Timeout
	default:
		return predIdle >= s.tbe
	}
}

// step simulates one task slot: it plans the sleep decision from the
// predictions, runs the idle and active segments under the active
// policy, then trains the predictors on the realized slot.
func (s *state) step(k int, slot workload.Slot) error {
	dev := s.cfg.Dev
	fuelBefore := s.res.Fuel
	chargeBefore := s.store.Charge()
	info := SlotInfo{
		K:                 k,
		PredIdle:          s.predIdle.Predict(),
		PredActive:        s.predActive.Predict(),
		PredActiveCurrent: s.predCurrent.Predict(),
		Cmax:              s.store.Capacity(),
		ChargeTarget:      s.chargeTarget,
	}
	if s.cfg.DPM == DPMTimeout && s.cfg.TimeoutAdapter != nil {
		s.cfg.Timeout = s.cfg.TimeoutAdapter.NextTimeout()
	}
	planSleep := s.sleepDecision(info.PredIdle, slot.Idle)
	didSleep := planSleep
	if s.cfg.DPM == DPMTimeout {
		// Reactive execution: sleep happens only if the idle period
		// actually outlasts the timeout dwell.
		didSleep = slot.Idle > s.cfg.Timeout
	}
	info.Sleeping = planSleep
	info.IdleLoad = dev.IdleCurrent(planSleep)
	if s.cfg.DPM == DPMTimeout && planSleep && info.PredIdle > 0 {
		// Timeout idles are a STANDBY dwell followed by SLEEP; give the
		// planner the charge-equivalent average current.
		dwell := math.Min(s.cfg.Timeout, info.PredIdle)
		info.IdleLoad = (dev.Isdb*dwell + dev.Islp*(info.PredIdle-dwell)) / info.PredIdle
	}
	info.Charge = s.store.Charge()
	if didSleep {
		s.res.Sleeps++
	}
	s.pol.PlanIdle(info)

	// Idle phase. The segment slices are backed by fixed scratch arrays
	// sized for the worst-case slot shape, so building them never
	// allocates.
	idleSegs := s.idleBuf[:0]
	switch {
	case s.cfg.DPM == DPMTimeout:
		dwell := math.Min(s.cfg.Timeout, slot.Idle)
		if dwell > 0 {
			idleSegs = append(idleSegs, Segment{SegStandby, dwell, dev.Isdb})
		}
		if didSleep {
			pd := math.Min(dev.TauPD, slot.Idle-dwell)
			if pd > 0 {
				idleSegs = append(idleSegs, Segment{SegPowerDown, pd, dev.IPD})
			}
			if rest := slot.Idle - dwell - pd; rest > 0 {
				idleSegs = append(idleSegs, Segment{SegSleep, rest, dev.Islp})
			}
		}
	case didSleep:
		pd := math.Min(dev.TauPD, slot.Idle)
		if pd > 0 {
			idleSegs = append(idleSegs, Segment{SegPowerDown, pd, dev.IPD})
		}
		if rest := slot.Idle - pd; rest > 0 {
			idleSegs = append(idleSegs, Segment{SegSleep, rest, dev.Islp})
		}
	case slot.Idle > 0:
		idleSegs = append(idleSegs, Segment{SegStandby, slot.Idle, dev.Isdb})
	}
	for _, seg := range idleSegs {
		if err := s.applySegment(seg); err != nil {
			return fmt.Errorf("slot %d idle: %w", k, err)
		}
	}

	// Active phase: the arriving task reveals its actual demands. The
	// Sleeping flag now reflects what actually happened, since the
	// wake-up transition occurs only after a real sleep.
	info.Sleeping = didSleep
	info.ActualIdle = slot.Idle
	info.ActualActive = slot.Active
	info.ActualActiveCurrent = slot.ActiveCurrent
	info.Charge = s.store.Charge()
	s.pol.PlanActive(info)

	// Wake-up (after a real sleep), startup, the task itself, shutdown.
	activeSegs := s.activeBuf[:0]
	if didSleep && dev.TauWU > 0 {
		activeSegs = append(activeSegs, Segment{SegWakeUp, dev.TauWU, dev.IWU})
	}
	if dev.TauSR > 0 {
		activeSegs = append(activeSegs, Segment{SegStartup, dev.TauSR, slot.ActiveCurrent})
	}
	if slot.Active > 0 {
		activeSegs = append(activeSegs, Segment{SegActive, slot.Active, slot.ActiveCurrent})
	}
	if dev.TauRS > 0 {
		activeSegs = append(activeSegs, Segment{SegShutdown, dev.TauRS, slot.ActiveCurrent})
	}
	for _, seg := range activeSegs {
		if err := s.applySegment(seg); err != nil {
			return fmt.Errorf("slot %d active: %w", k, err)
		}
	}

	// Train the predictors on the realized slot. Under a sensor-noise
	// fault the predictors (and the timeout learner) see corrupted
	// measurements; the physical simulation above always uses the truth.
	obsIdle, obsActive, obsCurrent := slot.Idle, slot.Active, slot.ActiveCurrent
	if s.inj != nil {
		if sigma := s.inj.StateAt(s.t).SensorSigma; sigma > 0 {
			obsIdle = s.inj.Noisy(obsIdle, sigma)
			obsActive = s.inj.Noisy(obsActive, sigma)
			obsCurrent = s.inj.Noisy(obsCurrent, sigma)
		}
	}
	s.predIdle.Observe(obsIdle)
	s.predActive.Observe(obsActive)
	s.predCurrent.Observe(obsCurrent)
	if s.cfg.DPM == DPMTimeout && s.cfg.TimeoutAdapter != nil {
		s.cfg.TimeoutAdapter.Observe(obsIdle)
	}
	if s.recFull {
		s.res.SlotLog = append(s.res.SlotLog, SlotRecord{
			K:             k,
			Idle:          slot.Idle,
			Active:        slot.Active,
			ActiveCurrent: slot.ActiveCurrent,
			Slept:         didSleep,
			PredIdle:      info.PredIdle,
			ChargeStart:   chargeBefore,
			ChargeEnd:     s.store.Charge(),
			Fuel:          s.res.Fuel - fuelBefore,
		})
	}
	s.res.Slots++
	return nil
}

// applySegment integrates one segment under the active policy's piece
// plan. In supervised runs an invalid plan degrades to the next policy in
// the chain and replans the same segment; invariant violations detected
// after integration degrade for future segments. Unsupervised runs keep
// the classic fail-fast behavior and return a typed *InvariantError.
func (s *state) applySegment(seg Segment) error {
	if seg.Dur <= 0 {
		return nil
	}
	for {
		pieces := s.pol.SegmentPlan(seg, s.store.Charge(), s.pieceBuf[:0])
		inv := s.checkPieces(seg, pieces)
		if inv == nil {
			for _, p := range pieces {
				if p.Dur == 0 {
					continue
				}
				s.applyPiece(seg, p)
			}
			break
		}
		if !s.supervised() {
			return inv
		}
		s.logEvent(EventInvariant, inv.Detail)
		if !s.degrade("invalid segment plan") {
			// The last-resort stage itself misplanned; ride the segment
			// out at zero output rather than looping.
			s.integrateConst(seg, 0, seg.Dur)
			break
		}
	}
	s.drainFaults()
	if inv := s.postChecks(); inv != nil {
		if !s.supervised() {
			return inv
		}
		s.logEvent(EventInvariant, inv.Detail)
		s.degrade("invariant " + inv.Check + " violated")
	} else if s.supervised() && !s.shedding() && s.tripDeficit > s.deficitLimit() {
		s.degrade(fmt.Sprintf("unmet load %.3g A-s exceeds budget %.3g A-s",
			s.tripDeficit, s.deficitLimit()))
	}
	return nil
}

// applyPiece integrates one constant-output piece, inserting a slew ramp
// from the previous output level when a rate limit is configured.
func (s *state) applyPiece(seg Segment, p Piece) {
	if s.lastIF >= 0 && p.IF != s.lastIF {
		s.res.SetpointChanges++
	}
	rate := s.cfg.SlewRate
	remain := p.Dur
	if rate > 0 && s.lastIF >= 0 && s.lastIF != p.IF {
		delta := p.IF - s.lastIF
		rampDur := math.Abs(delta) / rate
		if rampDur >= remain {
			// The whole piece is spent ramping; the target is not
			// reached.
			reached := s.lastIF + math.Copysign(rate*remain, delta)
			s.integrateRamp(seg, s.lastIF, reached, remain)
			s.lastIF = reached
			return
		}
		s.integrateRamp(seg, s.lastIF, p.IF, rampDur)
		remain -= rampDur
	}
	s.lastIF = p.IF
	if remain > 0 {
		s.integrateConst(seg, p.IF, remain)
	}
}

// integrateConst advances the simulation by dur seconds at a constant FC
// output iF against the segment load. Under fault injection it splits the
// interval exactly at fault boundaries so each step sees one composed
// fault state and the analytical integration stays exact.
func (s *state) integrateConst(seg Segment, iF, dur float64) {
	if s.inj == nil {
		s.integrateStep(seg, iF, dur, fault.Nominal())
		return
	}
	for dur > 0 {
		st := s.inj.StateAt(s.t)
		step := dur
		if next := s.inj.NextBoundary(s.t); next-s.t < step {
			step = next - s.t
			if step <= 0 || step < 1e-12*math.Max(1, s.t) {
				// Floating-point guard: a boundary indistinguishable from
				// the current instant cannot split the interval.
				step = dur
			}
		}
		if s.fade != nil {
			s.fade.SetScale(st.CapacityScale)
		}
		s.integrateStep(seg, iF, step, st)
		dur -= step
	}
}

// integrateStep is one constant interval under one fault state: the FC
// delivers the requested output capped by the derated stack ceiling, the
// load is scaled by any active surge, and fuel cost is inflated by any
// efficiency degradation.
func (s *state) integrateStep(seg Segment, iF, dur float64, st fault.State) {
	load := seg.Load * st.LoadScale
	deliver := iF
	if st.DeliveryScale < 1 {
		if ceil := s.cfg.Sys.MaxOutput * st.DeliveryScale; deliver > ceil {
			deliver = ceil
		}
	}
	if s.recFull {
		s.res.Profile = append(s.res.Profile, ProfilePoint{T: s.t, Load: load, IF: deliver})
		s.res.Charges = append(s.res.Charges, ChargePoint{T: s.t, Q: s.store.Charge()})
	}
	flow := s.store.Apply(deliver-load, dur)
	fuel := s.memo.Fuel(deliver, dur) * st.FuelScale
	s.res.Fuel += fuel
	s.fuelKind[seg.Kind] += fuel
	s.fuelSeen[seg.Kind] = true
	s.res.DeliveredEnergy += s.cfg.Sys.VF * deliver * dur
	s.res.LoadEnergy += s.cfg.Sys.VF * load * dur
	s.res.Bled += flow.Bled
	if flow.Deficit > 0 {
		if s.shedding() {
			s.res.Shed += flow.Deficit
		} else {
			s.res.Deficit += flow.Deficit
			s.tripDeficit += flow.Deficit
		}
	}
	s.t += dur
	s.res.Duration = s.t
}

// integrateRamp approximates a linear output ramp with midpoint sub-steps.
// Eight sub-steps keep the fuel error of the convex Ifc map under 0.1 %
// for any ramp within the load-following range.
func (s *state) integrateRamp(seg Segment, from, to, dur float64) {
	const sub = 8
	h := dur / sub
	for i := 0; i < sub; i++ {
		mid := from + (to-from)*(float64(i)+0.5)/sub
		s.integrateConst(seg, mid, h)
	}
}
