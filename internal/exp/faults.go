package exp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fcdpm/internal/device"
	"fcdpm/internal/fault"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/obs"
	"fcdpm/internal/policy"
	"fcdpm/internal/predict"
	"fcdpm/internal/runner"
	"fcdpm/internal/sim"
	"fcdpm/internal/workload"
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

// FaultSweepOptions tunes how the sweep's cells are orchestrated by the
// run engine. The zero value runs with the engine defaults: GOMAXPROCS
// workers, no deadline, no retries, no journal.
type FaultSweepOptions struct {
	// Workers bounds concurrent cells.
	Workers int
	// TimeoutSec is the per-cell deadline in seconds (0: none).
	TimeoutSec float64
	// Retries re-attempts transiently failed cells.
	Retries int
	// Journal checkpoints each completed cell to this JSONL file; an
	// interrupted sweep re-invoked with the same journal skips completed
	// cells.
	Journal string
	// Metrics, when non-nil, instruments the run engine (queue depth,
	// retries, breaker transitions) for the sweep's tasks.
	Metrics *obs.PoolMetrics
	// SimMetrics, when non-nil, instruments every cell's simulation run
	// (runs, slots, fuel, memo hits/misses, wall time).
	SimMetrics *obs.SimMetrics
}

// FaultSweep runs the paper's three policies over the Experiment 2
// synthetic workload under each canonical fault class on the
// run-orchestration engine (the zero opts use the engine defaults):
// each (class, policy) cell is one task, grouped per fault class for
// circuit breaking, with the standard degradation chain (FC-DPM -> ASAP
// -> Conv -> load-shed, truncated for policies already further down).
// Cell order in the result is deterministic regardless of worker count.
// When the context is canceled mid-sweep the partial result is returned
// along with runner.ErrInterrupted; with a journal configured, re-running
// the same sweep completes the missing cells without re-simulating the
// finished ones.
func FaultSweep(ctx context.Context, seed uint64, opts FaultSweepOptions) (*FaultSweepResult, error) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Seed = seed
	trace, err := workload.Synthetic(cfg)
	if err != nil {
		return nil, err
	}
	sys := fuelcell.PaperSystem()
	dev := device.Synthetic()
	schedules, order := canonicalFaults(trace.Statistics().Duration)
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
			mk: func() sim.Policy { return policy.NewFCDPM(sys, dev) },
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
				ID: runner.RunID("faults", fmt.Sprintf("seed=%d", seed),
					"class="+class, "policy="+name),
				Scenario: class,
				Run: func(ctx context.Context) (FaultRow, error) {
					p := r.mk()
					res, err := sim.RunContext(ctx, sim.Config{
						Sys:              sys,
						Dev:              dev,
						Store:            scenarioStore(),
						Trace:            trace,
						Policy:           p,
						Fallbacks:        r.fallbacks(),
						Faults:           schedules[class],
						FaultSeed:        seed,
						IdlePredictor:    predict.MustExpAverage(0.5, (cfg.IdleMin+cfg.IdleMax)/2),
						ActivePredictor:  predict.MustExpAverage(0.5, (cfg.ActiveMin+cfg.ActiveMax)/2),
						CurrentPredictor: predict.MustExpAverage(1, 1.2),
						Metrics:          opts.SimMetrics,
					})
					if err != nil {
						return FaultRow{}, fmt.Errorf("exp: fault sweep %s / %s: %w", class, p.Name(), err)
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
	rep, runErr := runner.Run(ctx, runner.Options{
		Workers: opts.Workers,
		Timeout: secondsToDuration(opts.TimeoutSec),
		Retries: opts.Retries,
		Journal: opts.Journal,
		Metrics: opts.Metrics,
	}, tasks)
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

// secondsToDuration converts a seconds count (the unit scenario specs and
// CLI flags use) to a time.Duration.
func secondsToDuration(s float64) time.Duration {
	if s <= 0 {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}
