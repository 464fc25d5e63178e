package fcopt

import (
	"fmt"
	"math"

	"fcdpm/internal/fuelcell"
)

// OfflineProblem is a whole-trace, capacity-constrained fuel-minimization
// instance: the clairvoyant schedule the online FC-DPM policy is compared
// against. Slots carry the *actual* (not predicted) parameters; the
// per-slot Cini/Cend fields are ignored — the dynamic program owns the
// storage trajectory. The DP returns a feasible schedule on a storage
// grid, so its fuel is an upper bound on the continuous optimum, not a
// lower bound.
type OfflineProblem struct {
	Sys   *fuelcell.System
	Cmax  float64
	Slots []Slot
	// Q0 is the storage charge at the start of the trace; the schedule
	// must end at or above FinalMin (defaults to Q0 — no free charge).
	Q0       float64
	FinalMin float64
	// GridN is the number of storage-level intervals in the DP
	// discretization (default 60).
	GridN int
}

// OfflineSchedule is the DP result: one Setting per slot plus the achieved
// total fuel and the storage trajectory at slot boundaries.
type OfflineSchedule struct {
	Settings []Setting
	Fuel     float64
	// Charges holds the storage level at each slot start plus the final
	// level (len = len(Settings)+1).
	Charges []float64
}

// SolveOffline computes the minimum-fuel schedule by dynamic programming
// over a discretized storage state. The transition cost between storage
// levels (q0 → q1) across one slot is the single-slot closed form
// (Optimize with Cini = q0, Cend = q1); because range clamps can make a
// target unreachable, each transition is re-simulated and credited to the
// grid level at or below the storage level actually achieved.
//
// Complexity is O(slots · GridN²) closed-form solves — about half a
// million for the paper's 28-minute trace at the default grid, well under
// a second.
func SolveOffline(p OfflineProblem) (*OfflineSchedule, error) {
	switch {
	case p.Sys == nil:
		return nil, fmt.Errorf("fcopt: nil system")
	case p.Cmax <= 0:
		return nil, fmt.Errorf("fcopt: non-positive capacity %v", p.Cmax)
	case len(p.Slots) == 0:
		return nil, fmt.Errorf("fcopt: no slots")
	case p.Q0 < 0 || p.Q0 > p.Cmax:
		return nil, fmt.Errorf("fcopt: Q0 %v outside [0, %v]", p.Q0, p.Cmax)
	}
	gridN := p.GridN
	if gridN <= 0 {
		gridN = 60
	}
	finalMin := p.FinalMin
	if finalMin == 0 {
		finalMin = p.Q0
	}
	n := len(p.Slots)
	levels := gridN + 1
	q := func(i int) float64 { return p.Cmax * float64(i) / float64(gridN) }
	// idxOf credits an achieved charge to the grid level at or below it.
	// The tolerance keeps a transition that ends a rounding error below
	// its level on that level; flooring it one level down would make the
	// DP pay fuel to climb back.
	idxOf := func(charge float64) int {
		i := int(math.Floor(charge/p.Cmax*float64(gridN) + 1e-9))
		if i < 0 {
			return 0
		}
		if i > gridN {
			return gridN
		}
		return i
	}

	type cell struct {
		cost float64
		next int // storage index after this slot
		set  Setting
	}
	// value[i] = minimal future fuel from slot k at storage level i.
	value := make([]float64, levels)
	nextVal := make([]float64, levels)
	choice := make([][]cell, n)

	// Terminal condition: require the final charge to be at least
	// finalMin (no ending the trace on borrowed charge).
	for i := 0; i < levels; i++ {
		if q(i)+1e-9 >= finalMin {
			value[i] = 0
		} else {
			value[i] = math.Inf(1)
		}
	}

	for k := n - 1; k >= 0; k-- {
		slot := p.Slots[k]
		choice[k] = make([]cell, levels)
		for i := 0; i < levels; i++ {
			bestCost := math.Inf(1)
			var bestCell cell
			for j := 0; j < levels; j++ {
				s := slot
				s.Cini = q(i)
				s.Cend = q(j)
				set, err := Optimize(p.Sys, p.Cmax, s)
				if err != nil {
					continue
				}
				// Recompute the achieved end charge with bleeder
				// clamping; clamped settings may miss the q(j) target.
				end := achievedEnd(p.Cmax, s, set)
				jj := idxOf(end)
				if math.IsInf(value[jj], 1) {
					continue
				}
				total := set.Fuel + value[jj]
				if total < bestCost {
					bestCost = total
					bestCell = cell{cost: total, next: jj, set: set}
				}
			}
			choice[k][i] = bestCell
			nextVal[i] = bestCost
		}
		value, nextVal = nextVal, value
	}

	start := idxOf(p.Q0)
	if math.IsInf(value[start], 1) {
		return nil, fmt.Errorf("fcopt: offline problem infeasible from Q0=%v", p.Q0)
	}
	out := &OfflineSchedule{Fuel: value[start]}
	i := start
	out.Charges = append(out.Charges, q(i))
	for k := 0; k < n; k++ {
		c := choice[k][i]
		out.Settings = append(out.Settings, c.set)
		i = c.next
		out.Charges = append(out.Charges, q(i))
	}
	return out, nil
}

// achievedEnd computes the slot-end storage charge a setting actually
// produces, with bleeder clamping at Cmax and an empty floor.
func achievedEnd(cmax float64, s Slot, set Setting) float64 {
	taEff, activeCharge := s.demand()
	peak := s.Cini + (set.IFi-s.IldI)*s.Ti
	if peak > cmax {
		peak = cmax
	}
	if peak < 0 {
		peak = 0
	}
	end := peak
	if taEff > 0 {
		end = peak + set.IFa*taEff - activeCharge
		if end > cmax {
			end = cmax
		}
		if end < 0 {
			end = 0
		}
	}
	return end
}
