// Package runreport executes scenario specs and renders each completed
// simulation as the stable JSON body every serving surface agrees on.
// The simulation server, the sweep dispatcher's workers, `fcdpm batch`,
// and the chaos oracle all run specs through Execute and render through
// Render, which is what makes "byte-identical" a meaningful guarantee: a
// result computed on a remote worker, served from the content-addressed
// cache, or produced by a local batch of the same spec is the same bytes.
package runreport

import (
	"context"

	"fcdpm/internal/config"
	"fcdpm/internal/obs"
	"fcdpm/internal/report"
	"fcdpm/internal/sim"
)

// Report is the JSON body served for one completed run. It is rendered
// exactly once with report.StableJSON and the rendered bytes are what
// the content-addressed cache stores — a cache hit is byte-identical to
// the run that populated it.
type Report struct {
	Name   string `json:"name"`
	Key    string `json:"key"`
	Engine string `json:"engine"`
	Policy string `json:"policy"`
	// FinalPolicy differs from Policy when the supervisor degraded.
	FinalPolicy string  `json:"finalPolicy"`
	Slots       int     `json:"slots"`
	Sleeps      int     `json:"sleeps"`
	DurationS   float64 `json:"durationS"`
	// FuelAs is the paper's objective: stack charge consumed, A-s.
	FuelAs        float64  `json:"fuelAs"`
	AvgIfcA       float64  `json:"avgIfcA"`
	DeliveredJ    float64  `json:"deliveredJ"`
	LoadJ         float64  `json:"loadJ"`
	BledAs        float64  `json:"bledAs"`
	DeficitAs     float64  `json:"deficitAs"`
	ShedAs        float64  `json:"shedAs"`
	FinalChargeAs float64  `json:"finalChargeAs"`
	Fallbacks     int      `json:"fallbacks"`
	Events        []string `json:"events,omitempty"`
}

// Render builds and stably encodes the response body for one completed
// simulation.
func Render(name, key, engine string, res *sim.Result) ([]byte, error) {
	rr := Report{
		Name: name, Key: key, Engine: engine,
		Policy: res.Policy, FinalPolicy: res.FinalPolicy,
		Slots: res.Slots, Sleeps: res.Sleeps,
		DurationS: res.Duration, FuelAs: res.Fuel, AvgIfcA: res.AvgFuelRate(),
		DeliveredJ: res.DeliveredEnergy, LoadJ: res.LoadEnergy,
		BledAs: res.Bled, DeficitAs: res.Deficit, ShedAs: res.Shed,
		FinalChargeAs: res.FinalCharge, Fallbacks: res.Fallbacks,
	}
	for _, ev := range res.Events {
		rr.Events = append(rr.Events, ev.String())
	}
	return report.StableJSON(rr)
}

// Cell is one spec to execute: the validated scenario and its cache key
// — the content address that also collapses identical cells onto one
// executing lane.
type Cell struct {
	Spec *config.Scenario
	Key  string
}

// Row is one cell's outcome: the rendered report body and the result
// behind it, or the error that stopped the cell.
type Row struct {
	Body []byte
	Res  *sim.Result
	Err  error
}

// Execute builds every cell, runs the cells as lanes of one
// sim.BatchRunner batch (keyed by their cache keys), and renders each
// result under its spec's name, or "run" for an unnamed spec — so a body
// depends only on what its cache key hashes, whichever caller ran it. A
// Build, simulation, or render failure fails only its own row, and every
// Res stays valid after Execute returns. simMetrics and batchMetrics may
// be nil.
func Execute(ctx context.Context, engine string, cells []Cell, simMetrics *obs.SimMetrics, batchMetrics *obs.BatchMetrics) []Row {
	rows := make([]Row, len(cells))
	lanes := make([]sim.Lane, 0, len(cells))
	idx := make([]int, 0, len(cells))
	for i, c := range cells {
		cfg, err := c.Spec.Build()
		if err != nil {
			rows[i].Err = err
			continue
		}
		cfg.Metrics = simMetrics
		lanes = append(lanes, sim.Lane{Cfg: cfg, Key: c.Key})
		idx = append(idx, i)
	}
	for li, lr := range runLanes(ctx, lanes, batchMetrics) {
		i := idx[li]
		if lr.Err != nil {
			rows[i].Err = lr.Err
			continue
		}
		name := cells[i].Spec.Name
		if name == "" {
			name = "run"
		}
		rows[i].Res = lr.Res
		rows[i].Body, rows[i].Err = Render(name, cells[i].Key, engine, lr.Res)
	}
	return rows
}

// runLanes runs the lanes as one batch. When the engine refuses the
// batch — a lane whose configuration fails validation — each lane runs
// alone instead, so the refusal fails only the lanes it concerns.
func runLanes(ctx context.Context, lanes []sim.Lane, m *obs.BatchMetrics) []sim.LaneResult {
	if len(lanes) == 0 {
		return nil
	}
	if b, err := sim.NewBatchRunner(lanes); err == nil {
		b.Metrics = m
		out, _ := b.RunContext(ctx)
		return out
	}
	out := make([]sim.LaneResult, len(lanes))
	for i := range lanes {
		out[i].Res, out[i].Err = sim.RunContext(ctx, lanes[i].Cfg)
	}
	return out
}
