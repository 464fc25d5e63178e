package multistack

import (
	"math"
	"sort"
)

// This file keeps the straightforward allocators the optimized ones
// must reproduce bit for bit: water-filling as a plain double
// bisection that calls marginal at every step for every stack, and
// health-rotation through sort.SliceStable. The differential oracle in
// allocate_test.go compares both implementations.

// refLevelOutput returns the largest x in [0, max_k] with f_k'(x) <= lambda
// (monotone in lambda because f_k' is non-decreasing).
func refLevelOutput(s Stack, lambda float64) float64 {
	m := s.maxOut()
	if m <= 0 || marginal(s, 0) > lambda {
		return 0
	}
	if marginal(s, m) <= lambda {
		return m
	}
	lo, hi := 0.0, m
	for i := 0; i < 48; i++ {
		mid := 0.5 * (lo + hi)
		if marginal(s, mid) <= lambda {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// refWaterFill is the reference water-filling allocation.
func refWaterFill(stacks []Stack, iF float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	if iF <= 0 {
		return
	}
	// Bracket the water level: at lambda = 0 nothing runs; at the
	// largest saturated marginal cost everything runs flat out.
	hi := 0.0
	for _, s := range stacks {
		if m := s.maxOut(); m > 0 {
			if c := marginal(s, m); c > hi {
				hi = c
			}
		}
	}
	hi += 1
	lo := 0.0
	total := func(lambda float64) float64 {
		var t float64
		for _, s := range stacks {
			t += refLevelOutput(s, lambda)
		}
		return t
	}
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if total(mid) < iF {
			lo = mid
		} else {
			hi = mid
		}
	}
	for k, s := range stacks {
		out[k] = refLevelOutput(s, hi)
	}
	// Close the bisection residual on stacks with headroom so the
	// allocation sums to the demand exactly (the residual is far below
	// any physical scale, but the sim's charge balance is exact).
	var sum float64
	for _, x := range out {
		sum += x
	}
	diff := iF - sum
	for k := range out {
		if diff == 0 {
			break
		}
		room := stacks[k].maxOut() - out[k]
		if diff > 0 && room > 0 {
			take := math.Min(diff, room)
			out[k] += take
			diff -= take
		} else if diff < 0 && out[k] > 0 {
			give := math.Min(-diff, out[k])
			out[k] -= give
			diff += give
		}
	}
}

// refHealthRotation is the reference health-rotation allocation.
func refHealthRotation(stacks []Stack, iF float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	order := make([]int, len(stacks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return stacks[order[a]].Degrade < stacks[order[b]].Degrade
	})
	remaining := iF
	for _, k := range order {
		if remaining <= 0 {
			break
		}
		take := math.Min(remaining, stacks[k].maxOut())
		out[k] = take
		remaining -= take
	}
}
