package exp

import (
	"context"
	"errors"
	"fmt"

	"fcdpm/internal/fault"
	"fcdpm/internal/obs"
	"fcdpm/internal/policy"
	"fcdpm/internal/runner"
	"fcdpm/internal/sim"
)

// FaultRow is one (fault class, policy) cell of a fault sweep.
type FaultRow struct {
	Class       string
	Policy      string
	Fuel        float64
	AvgRate     float64
	Deficit     float64 // unmet load nobody decided to drop, A-s
	Shed        float64 // load intentionally dropped by load-shed, A-s
	Fallbacks   int
	FinalPolicy string
	Events      int // audit-log length (faults + invariants + fallbacks)
	// Survived means the run completed with unplanned unmet load below
	// 1 % of the total load charge — the service held through the fault,
	// possibly on a fallback policy.
	Survived bool
}

// FaultSweepResult is the per-policy fuel/survival matrix over the
// canonical fault classes.
type FaultSweepResult struct {
	Scenario string
	Schedule map[string]*fault.Schedule
	Rows     []FaultRow
	// Resumed counts rows restored from the checkpoint journal instead of
	// re-simulated; Interrupted counts cells the batch was stopped before
	// finishing (the sweep is partial and resumable).
	Resumed     int
	Interrupted int
}

// canonicalFaults builds one representative schedule per fault class over
// a trace of the given duration: onset at one third of the trace, lasting
// a sixth of it, at the class's default severity. The nominal (no-fault)
// schedule is included under "nominal" as the baseline row.
func canonicalFaults(duration float64) (map[string]*fault.Schedule, []string) {
	start, dur := duration/3, duration/6
	sched := map[string]*fault.Schedule{"nominal": {}}
	order := []string{"nominal"}
	for _, k := range fault.Kinds() {
		sched[k.String()] = &fault.Schedule{Events: []fault.Event{
			{Kind: k, Start: start, Dur: dur},
		}}
		order = append(order, k.String())
	}
	return sched, order
}

// FaultSweep runs the paper's three policies over the Experiment 2
// setup under each canonical fault class on the run-orchestration
// engine, configured by opts: each (class, policy) cell is one task,
// with the standard degradation chain (FC-DPM -> ASAP -> Conv ->
// load-shed, truncated for policies already further down). The cells
// carry no breaker scenario: a fault class has three cells and the
// default breaker opens on the third consecutive failure, so grouping
// them by class could never skip one. metrics, when non-nil,
// instruments every cell's simulation. Cell order in the result is
// deterministic regardless of worker count. When the context is
// canceled mid-sweep the partial result is returned along with
// runner.ErrInterrupted; with a journal configured, re-running the same
// sweep completes the missing cells without re-simulating the finished
// ones. Each cell's task ID carries engine (version.Engine), so a
// journal resumes only the cells the same engine wrote.
func FaultSweep(ctx context.Context, engine string, seed uint64, opts runner.Options, metrics *obs.SimMetrics) (*FaultSweepResult, error) {
	sc, err := Experiment2Scenario(seed)
	if err != nil {
		return nil, err
	}
	sys := sc.Sys
	schedules, order := canonicalFaults(sc.Trace.Statistics().Duration)
	out := &FaultSweepResult{
		Scenario: fmt.Sprintf("fault sweep over Experiment 2 synthetic trace (seed %d)", seed),
		Schedule: schedules,
	}
	// Per-policy fallback chains: each policy degrades toward the
	// simpler, more conservative stages below it.
	runs := []struct {
		mk        func() sim.Policy
		fallbacks func() []sim.Policy
	}{
		{
			mk: func() sim.Policy { return policy.NewFCDPM(sys, sc.Dev) },
			fallbacks: func() []sim.Policy {
				return []sim.Policy{policy.NewASAP(sys), policy.NewConv(sys)}
			},
		},
		{
			mk:        func() sim.Policy { return policy.NewASAP(sys) },
			fallbacks: func() []sim.Policy { return []sim.Policy{policy.NewConv(sys)} },
		},
		{
			mk:        func() sim.Policy { return policy.NewConv(sys) },
			fallbacks: func() []sim.Policy { return nil },
		},
	}
	var tasks []runner.Task[FaultRow]
	for _, class := range order {
		for _, r := range runs {
			class, r := class, r
			name := r.mk().Name()
			tasks = append(tasks, runner.Task[FaultRow]{
				ID: runner.RunID("faults", "engine="+engine, fmt.Sprintf("seed=%d", seed),
					"class="+class, "policy="+name),
				Run: func(ctx context.Context) (FaultRow, error) {
					cfg := sc.simConfig(r.mk())
					cfg.Fallbacks = r.fallbacks()
					cfg.Faults = schedules[class]
					cfg.FaultSeed = seed
					cfg.Metrics = metrics
					res, err := sim.RunContext(ctx, cfg)
					if err != nil {
						return FaultRow{}, fmt.Errorf("exp: fault sweep %s / %s: %w", class, cfg.Policy.Name(), err)
					}
					loadCharge := res.LoadEnergy / sys.VF
					return FaultRow{
						Class:       class,
						Policy:      res.Policy,
						Fuel:        res.Fuel,
						AvgRate:     res.AvgFuelRate(),
						Deficit:     res.Deficit,
						Shed:        res.Shed,
						Fallbacks:   res.Fallbacks,
						FinalPolicy: res.FinalPolicy,
						Events:      len(res.Events),
						Survived:    res.Deficit <= 0.01*loadCharge,
					}, nil
				},
			})
		}
	}
	rep, runErr := runner.Run(ctx, opts, tasks)
	if rep == nil {
		return nil, runErr
	}
	for _, o := range rep.Outcomes {
		switch o.Status {
		case runner.StatusDone:
			out.Rows = append(out.Rows, o.Result)
		case runner.StatusResumed:
			out.Rows = append(out.Rows, o.Result)
			out.Resumed++
		case runner.StatusFailed:
			return nil, o.Err
		case runner.StatusInterrupted:
			out.Interrupted++
		}
	}
	if runErr != nil && !errors.Is(runErr, runner.ErrInterrupted) {
		return nil, runErr
	}
	return out, runErr
}
