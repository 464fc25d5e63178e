// Package stochdpm implements the stochastic-control branch of the DPM
// literature the paper surveys ([4, 5]): instead of predicting each idle
// period, learn the idle-length *distribution* online and choose the
// timeout that minimizes the expected idle-period energy.
//
// For a timeout τ and an idle period of length L the device spends
//
//	L ≤ τ:  Isdb·L                         (never slept)
//	L > τ:  Isdb·τ + SleepEnergyCharge(L−τ) (dwell, then sleep round trip)
//
// The expectation over the empirical distribution is piecewise linear in τ
// with knots at the observed lengths, so the optimum is found exactly by
// evaluating the candidate knots — a tiny Markov-decision problem solved
// by enumeration, refreshed as observations arrive.
//
// The resulting adaptive timeout plugs into the simulator's DPMTimeout
// mode through the sim.TimeoutAdapter interface.
package stochdpm

import (
	"fmt"
	"math"

	"fcdpm/internal/device"
	"fcdpm/internal/sim"
)

// ExpectedCharge returns the mean idle-period charge (A-s) under timeout
// tau over the given idle-length samples.
func ExpectedCharge(dev *device.Model, tau float64, samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, l := range samples {
		if l <= tau {
			sum += dev.Isdb * l
		} else {
			sum += dev.Isdb*tau + dev.SleepEnergyCharge(l-tau)
		}
	}
	return sum / float64(len(samples))
}

// OptimalTimeout returns the timeout minimizing the expected idle-period
// charge over the samples. Candidates are 0, every sample value, and +Inf
// (never sleep, encoded as the largest sample plus one); the expected cost
// is piecewise linear between sample knots, so this enumeration is exact.
// It returns the device break-even time when no samples exist.
func OptimalTimeout(dev *device.Model, samples []float64) float64 {
	if len(samples) == 0 {
		return dev.BreakEven()
	}
	maxL := 0.0
	for _, l := range samples {
		if l > maxL {
			maxL = l
		}
	}
	best, bestCost := 0.0, math.Inf(1)
	try := func(tau float64) {
		if c := ExpectedCharge(dev, tau, samples); c < bestCost-1e-12 {
			best, bestCost = tau, c
		}
	}
	try(0)
	for _, l := range samples {
		try(l)
	}
	try(maxL + 1) // effectively "never sleep"
	return best
}

// AdaptiveTimeout learns the idle distribution over a sliding window and
// serves the per-slot optimal timeout. It implements sim.TimeoutAdapter.
type AdaptiveTimeout struct {
	dev    *device.Model
	window int
	hist   []float64
	cached float64
	dirty  bool
}

// NewAdaptiveTimeout returns an adapter with the given sliding-window
// length (at least 1). Before any observation it serves the device
// break-even time — the classic worst-case-competitive choice.
func NewAdaptiveTimeout(dev *device.Model, window int) (*AdaptiveTimeout, error) {
	if dev == nil {
		return nil, fmt.Errorf("stochdpm: nil device")
	}
	if window < 1 {
		return nil, fmt.Errorf("stochdpm: window %d < 1", window)
	}
	return &AdaptiveTimeout{dev: dev, window: window, cached: dev.BreakEven()}, nil
}

// NextTimeout implements sim.TimeoutAdapter.
func (a *AdaptiveTimeout) NextTimeout() float64 {
	if a.dirty {
		a.cached = OptimalTimeout(a.dev, a.hist)
		a.dirty = false
	}
	return a.cached
}

// Observe implements sim.TimeoutAdapter.
func (a *AdaptiveTimeout) Observe(idle float64) {
	a.hist = append(a.hist, idle)
	if len(a.hist) > a.window {
		a.hist = a.hist[1:]
	}
	a.dirty = true
}

// CloneTimeoutAdapter implements sim.TimeoutAdapter: the clone starts
// from the same learned distribution but adapts independently, so a
// batched comparison or sweep gives every lane its own adaptation.
func (a *AdaptiveTimeout) CloneTimeoutAdapter() sim.TimeoutAdapter {
	c := *a
	c.hist = append([]float64(nil), a.hist...)
	return &c
}

// Reset clears the learned history.
func (a *AdaptiveTimeout) Reset() {
	a.hist = a.hist[:0]
	a.cached = a.dev.BreakEven()
	a.dirty = false
}
