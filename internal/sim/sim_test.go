package sim

import (
	"math"
	"testing"

	"fcdpm/internal/device"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/predict"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

// maxPolicy pins the FC at the top of the range (Conv-DPM behaviour,
// re-implemented locally to keep sim tests free of the policy package).
type maxPolicy struct{ sys *fuelcell.System }

func (p *maxPolicy) Name() string                     { return "max" }
func (p *maxPolicy) Reset(cmax, chargeTarget float64) {}
func (p *maxPolicy) PlanIdle(SlotInfo)                {}
func (p *maxPolicy) PlanActive(SlotInfo)              {}
func (p *maxPolicy) SegmentPlan(seg Segment, charge float64, buf []Piece) []Piece {
	return append(buf, Piece{IF: p.sys.MaxOutput, Dur: seg.Dur})
}

// followPolicy tracks the load within range.
type followPolicy struct{ sys *fuelcell.System }

func (p *followPolicy) Name() string                     { return "follow" }
func (p *followPolicy) Reset(cmax, chargeTarget float64) {}
func (p *followPolicy) PlanIdle(SlotInfo)                {}
func (p *followPolicy) PlanActive(SlotInfo)              {}
func (p *followPolicy) SegmentPlan(seg Segment, charge float64, buf []Piece) []Piece {
	return append(buf, Piece{IF: p.sys.Clamp(seg.Load), Dur: seg.Dur})
}

// badPolicy returns pieces that do not tile the segment.
type badPolicy struct{}

func (p *badPolicy) Name() string                     { return "bad" }
func (p *badPolicy) Reset(cmax, chargeTarget float64) {}
func (p *badPolicy) PlanIdle(SlotInfo)                {}
func (p *badPolicy) PlanActive(SlotInfo)              {}
func (p *badPolicy) SegmentPlan(seg Segment, charge float64, buf []Piece) []Piece {
	return append(buf, Piece{IF: 0.5, Dur: seg.Dur / 2})
}

// recorder captures planning callbacks for structural assertions.
type recorder struct {
	followPolicy
	idleInfos, activeInfos []SlotInfo
}

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) Reset(cmax, chargeTarget float64) {
	r.idleInfos = nil
	r.activeInfos = nil
}
func (r *recorder) PlanIdle(i SlotInfo)   { r.idleInfos = append(r.idleInfos, i) }
func (r *recorder) PlanActive(i SlotInfo) { r.activeInfos = append(r.activeInfos, i) }

func baseConfig(p Policy) Config {
	return Config{
		Sys:    fuelcell.PaperSystem(),
		Dev:    device.Camcorder(),
		Store:  storage.PaperSuperCap(),
		Trace:  workload.Periodic(10, 14, 3.03, device.CamcorderRunCurrent),
		Policy: p,
	}
}

func TestRunBasicAccounting(t *testing.T) {
	sys := fuelcell.PaperSystem()
	cfg := baseConfig(&maxPolicy{sys})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 10 {
		t.Fatalf("slots = %d", res.Slots)
	}
	// Every idle exceeds Tbe=1 s, so all slots sleep, adding τPD+τWU per
	// slot to the duration.
	if res.Sleeps != 10 {
		t.Fatalf("sleeps = %d, want 10", res.Sleeps)
	}
	wantDur := 10*(14+3.03+1.5+0.5) + 10*0.5 // trace + SR/RS + τWU (τPD inside idle)
	if math.Abs(res.Duration-wantDur) > 1e-6 {
		t.Fatalf("duration = %v, want %v", res.Duration, wantDur)
	}
	// Max policy burns Ifc(1.2) for the entire duration.
	wantFuel := sys.StackCurrent(1.2) * res.Duration
	if math.Abs(res.Fuel-wantFuel) > 1e-6 {
		t.Fatalf("fuel = %v, want %v", res.Fuel, wantFuel)
	}
	// Pinned at max with mostly light loads: heavy bleed, no deficit.
	if res.Bled <= 0 {
		t.Error("max policy should bleed")
	}
	if res.Deficit > 0.5 {
		t.Errorf("deficit = %v, want ~0 (storage covers the 1.22 A peaks)", res.Deficit)
	}
}

func TestFollowPolicyCheaperThanMax(t *testing.T) {
	a, err := Run(baseConfig(&maxPolicy{fuelcell.PaperSystem()}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig(&followPolicy{fuelcell.PaperSystem()}))
	if err != nil {
		t.Fatal(err)
	}
	if b.Fuel >= a.Fuel {
		t.Fatalf("follow fuel %v should beat max %v", b.Fuel, a.Fuel)
	}
	if n := b.NormalizedFuel(a); n <= 0 || n >= 1 {
		t.Fatalf("normalized fuel = %v, want in (0,1)", n)
	}
}

func TestEnergyAccountingConsistency(t *testing.T) {
	res, err := Run(baseConfig(&followPolicy{fuelcell.PaperSystem()}))
	if err != nil {
		t.Fatal(err)
	}
	// Delivered = load + storage delta + bleed - deficit (all ×VF).
	sys := fuelcell.PaperSystem()
	lhs := res.DeliveredEnergy
	deltaQ := res.FinalCharge - 6 // started full
	rhs := res.LoadEnergy + sys.VF*(deltaQ+res.Bled-res.Deficit)
	if math.Abs(lhs-rhs) > 1e-6*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("energy balance broken: delivered %v vs accounted %v", lhs, rhs)
	}
}

func TestSleepDecisionModes(t *testing.T) {
	mk := func(mode DPMMode, trace *workload.Trace) *Result {
		cfg := baseConfig(&followPolicy{fuelcell.PaperSystem()})
		cfg.Trace = trace
		cfg.DPM = mode
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	long := workload.Periodic(5, 14, 3, 1.2)
	short := workload.Periodic(5, 0.4, 3, 1.2) // under camcorder Tbe=1
	if r := mk(DPMNeverSleep, long); r.Sleeps != 0 {
		t.Errorf("never-sleep slept %d times", r.Sleeps)
	}
	if r := mk(DPMAlwaysSleep, short); r.Sleeps != 5 {
		t.Errorf("always-sleep slept %d times, want 5", r.Sleeps)
	}
	if r := mk(DPMOracle, short); r.Sleeps != 0 {
		t.Errorf("oracle slept %d times on sub-Tbe idles", r.Sleeps)
	}
	if r := mk(DPMOracle, long); r.Sleeps != 5 {
		t.Errorf("oracle slept %d times, want 5", r.Sleeps)
	}
}

func TestPredictiveSleepUsesPrediction(t *testing.T) {
	// First slot: predictor initialized at Tbe ⇒ sleeps. Feed a trace of
	// short idles; the exponential average learns and stops sleeping.
	cfg := baseConfig(&followPolicy{fuelcell.PaperSystem()})
	cfg.Trace = workload.Periodic(6, 0.3, 3, 1.2)
	cfg.IdlePredictor = predict.MustExpAverage(0.5, 10) // optimistic start
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sleeps == 0 || res.Sleeps == 6 {
		t.Fatalf("sleeps = %d, want some but not all (prediction adapting)", res.Sleeps)
	}
}

func TestPlanCallbacks(t *testing.T) {
	rec := &recorder{followPolicy: followPolicy{fuelcell.PaperSystem()}}
	cfg := baseConfig(rec)
	cfg.Trace = workload.Periodic(4, 14, 3.03, device.CamcorderRunCurrent)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(rec.idleInfos) != 4 || len(rec.activeInfos) != 4 {
		t.Fatalf("callbacks: %d idle, %d active", len(rec.idleInfos), len(rec.activeInfos))
	}
	// Idle planning sees predictions only; active planning sees actuals.
	if rec.idleInfos[0].ActualActive != 0 {
		t.Error("idle info leaked actuals")
	}
	if rec.activeInfos[0].ActualActive != 3.03 {
		t.Errorf("active info actual = %v", rec.activeInfos[0].ActualActive)
	}
	if rec.activeInfos[0].ActualActiveCurrent != device.CamcorderRunCurrent {
		t.Error("active info missing actual current")
	}
	// Slot indices increase.
	for k, info := range rec.idleInfos {
		if info.K != k {
			t.Fatalf("slot index %d at position %d", info.K, k)
		}
	}
	// Charge target is the initial charge (full supercap).
	if rec.idleInfos[0].ChargeTarget != 6 {
		t.Errorf("charge target = %v", rec.idleInfos[0].ChargeTarget)
	}
	// Predictors train: after several identical slots, prediction
	// approaches the actual idle length.
	last := rec.idleInfos[3]
	if math.Abs(last.PredIdle-14) > 7 {
		t.Errorf("idle prediction not converging: %v", last.PredIdle)
	}
}

func TestProfileRecording(t *testing.T) {
	cfg := baseConfig(&followPolicy{fuelcell.PaperSystem()})
	cfg.Record = RecordFull
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profile) == 0 || len(res.Charges) == 0 {
		t.Fatal("profile not recorded")
	}
	// Times strictly increase and start at 0.
	if res.Profile[0].T != 0 {
		t.Errorf("first profile point at t=%v", res.Profile[0].T)
	}
	for k := 1; k < len(res.Profile); k++ {
		if res.Profile[k].T <= res.Profile[k-1].T {
			t.Fatalf("profile times not increasing at %d", k)
		}
	}
	// Off by default.
	cfg.Record = RecordFuelOnly
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profile) != 0 {
		t.Error("profile recorded when disabled")
	}
}

func TestBadPolicyRejected(t *testing.T) {
	cfg := baseConfig(&badPolicy{})
	if _, err := Run(cfg); err == nil {
		t.Fatal("non-tiling piece plan accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	good := baseConfig(&maxPolicy{fuelcell.PaperSystem()})
	cases := []func(*Config){
		func(c *Config) { c.Sys = nil },
		func(c *Config) { c.Dev = nil },
		func(c *Config) { c.Store = nil },
		func(c *Config) { c.Trace = nil },
		func(c *Config) { c.Trace = &workload.Trace{} },
		func(c *Config) { c.Policy = nil },
	}
	for k, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", k)
		}
	}
}

func TestStorageNotMutated(t *testing.T) {
	store := storage.MustSuperCap(6, 3)
	cfg := baseConfig(&maxPolicy{fuelcell.PaperSystem()})
	cfg.Store = store
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if store.Charge() != 3 {
		t.Fatalf("original storage mutated: %v", store.Charge())
	}
}

func TestLifetimeAndRates(t *testing.T) {
	res := &Result{Fuel: 100, Duration: 50}
	if got := res.AvgFuelRate(); got != 2 {
		t.Errorf("rate = %v", got)
	}
	if got := res.Lifetime(1000); got != 500 {
		t.Errorf("lifetime = %v", got)
	}
	empty := &Result{}
	if got := empty.AvgFuelRate(); got != 0 {
		t.Errorf("empty rate = %v", got)
	}
	if !math.IsInf(empty.Lifetime(100), 1) {
		t.Error("zero-fuel lifetime should be infinite")
	}
	if !math.IsInf(res.NormalizedFuel(empty), 1) {
		t.Error("normalizing against zero baseline should be infinite")
	}
}

func TestShortIdleTruncatesPowerDown(t *testing.T) {
	// Idle shorter than τPD with forced sleep: power-down segment is
	// truncated, no negative sleep segment.
	cfg := baseConfig(&followPolicy{fuelcell.PaperSystem()})
	cfg.Trace = workload.Periodic(3, 0.2, 3, 1.2)
	cfg.DPM = DPMAlwaysSleep
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Duration = 3 slots × (0.2 idle + 0.5 WU + 1.5 SR + 3 active + 0.5 RS).
	want := 3 * (0.2 + 0.5 + 1.5 + 3 + 0.5)
	if math.Abs(res.Duration-want) > 1e-9 {
		t.Fatalf("duration = %v, want %v", res.Duration, want)
	}
}

func TestSegmentKindStrings(t *testing.T) {
	kinds := []SegmentKind{SegPowerDown, SegSleep, SegStandby, SegWakeUp, SegStartup, SegActive, SegShutdown}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad name %q", int(k), s)
		}
		seen[s] = true
	}
	if SegmentKind(99).String() == "" {
		t.Error("unknown kind has empty name")
	}
	if !SegPowerDown.IdlePhase() || !SegSleep.IdlePhase() || !SegStandby.IdlePhase() {
		t.Error("idle-phase kinds misclassified")
	}
	if SegWakeUp.IdlePhase() || SegActive.IdlePhase() {
		t.Error("active-phase kinds misclassified")
	}
	if DPMPredictive.String() == "" || DPMMode(99).String() == "" {
		t.Error("DPM mode names missing")
	}
}

func TestSlotLogRecording(t *testing.T) {
	cfg := baseConfig(&followPolicy{fuelcell.PaperSystem()})
	cfg.Record = RecordFull
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SlotLog) != res.Slots {
		t.Fatalf("slot log entries = %d, slots = %d", len(res.SlotLog), res.Slots)
	}
	var fuelSum float64
	for k, rec := range res.SlotLog {
		if rec.K != k {
			t.Fatalf("record %d has K=%d", k, rec.K)
		}
		if rec.Idle != 14 || rec.Active != 3.03 {
			t.Fatalf("record %d slot params wrong: %+v", k, rec)
		}
		if !rec.Slept {
			t.Fatalf("record %d should have slept", k)
		}
		if rec.Fuel <= 0 {
			t.Fatalf("record %d fuel = %v", k, rec.Fuel)
		}
		fuelSum += rec.Fuel
		if k > 0 && res.SlotLog[k-1].ChargeEnd != rec.ChargeStart {
			t.Fatalf("charge not continuous at record %d", k)
		}
	}
	if math.Abs(fuelSum-res.Fuel) > 1e-9 {
		t.Fatalf("slot fuel sum %v != total %v", fuelSum, res.Fuel)
	}
	// Off by default.
	cfg.Record = RecordFuelOnly
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SlotLog) != 0 {
		t.Fatal("slot log recorded when disabled")
	}
}

// TestOneLaneRunExecutesOneGroup pins the one-lane engine path Run
// takes: one executing group whose leader's result is the lane's result,
// with no projected copy. Only lanes that share a group get projection
// buffers of their own.
func TestOneLaneRunExecutesOneGroup(t *testing.T) {
	sys := fuelcell.PaperSystem()
	b, err := NewBatchRunner([]Lane{{Cfg: baseConfig(&maxPolicy{sys})}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Groups() != 1 {
		t.Fatalf("one-lane batch executes %d groups, want 1", b.Groups())
	}
	out, err := b.Run()
	if err != nil || out[0].Err != nil {
		t.Fatalf("run: %v / %v", err, out[0].Err)
	}
	if out[0].Res != b.groups[0].st.res || b.lanes[0].res != nil {
		t.Fatal("one-lane run copied its result through a projection")
	}

	b, err = NewBatchRunner([]Lane{
		{Cfg: baseConfig(&maxPolicy{sys}), Key: "same"},
		{Cfg: baseConfig(&maxPolicy{sys}), Key: "same"},
		{Cfg: baseConfig(&maxPolicy{sys})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out, err = b.Run(); err != nil {
		t.Fatal(err)
	}
	if b.GroupOf(0) != b.GroupOf(1) || b.GroupOf(2) == b.GroupOf(0) {
		t.Fatalf("groups %d/%d/%d, want lanes 0 and 1 together", b.GroupOf(0), b.GroupOf(1), b.GroupOf(2))
	}
	if lead := b.groups[b.GroupOf(0)].st.res; out[0].Res == out[1].Res || out[0].Res == lead {
		t.Fatal("lanes sharing a group share a result buffer")
	}
	if out[2].Res != b.groups[b.GroupOf(2)].st.res {
		t.Fatal("a lane alone in its group got a projected copy")
	}
}
