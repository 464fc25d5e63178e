// Package multistack models a K-stack hybrid power source: K independent
// fuel-cell systems feeding one regulated bus behind a shared storage
// element, the configuration datacenter-scale deployments use (a rack of
// stacks sized for surge capacity rather than one monolithic stack).
//
// A Rack aggregates its stacks under a power-allocation policy into a
// single fuelcell.System — the seam the simulator, the policies, and the
// fuel-map memo already consume — by pre-solving the rack's effective
// efficiency curve on a dense grid at construction, the same idiom
// fuelcell.ChainEfficiency uses. The aggregate is immutable and
// allocation-free at query time, so racks batch, memoize, and share
// across lanes exactly like single-stack systems.
package multistack

import (
	"fmt"
	"math"
	"strings"

	"fcdpm/internal/fuelcell"
)

// Stack is one fuel-cell stack in a rack: its electrical description
// plus the health state allocation policies react to.
type Stack struct {
	// Sys is the stack's own system description. All stacks of a rack
	// must share the bus voltage VF and Gibbs coefficient Zeta.
	Sys *fuelcell.System
	// Degrade is the stack's fractional efficiency loss in [0, 1),
	// mirroring fault.EfficiencyDegrade: every amp the stack delivers
	// burns fuel scaled by 1/(1-Degrade). Zero is a healthy stack.
	Degrade float64
	// Offline removes the stack from allocation entirely (dropout /
	// maintenance); it contributes neither capacity nor fuel.
	Offline bool
}

// FuelRate returns the stack's fuel-rate current (A of stack current,
// proportional to mol H2/s) when delivering output x, inflated by the
// stack's efficiency degradation.
func (s Stack) FuelRate(x float64) float64 {
	if s.Offline || x <= 0 {
		return 0
	}
	return s.Sys.StackCurrent(x) / (1 - s.Degrade)
}

// maxOut returns the stack's deliverable ceiling, zero when offline.
func (s Stack) maxOut() float64 {
	if s.Offline {
		return 0
	}
	return s.Sys.MaxOutput
}

// batchKey fingerprints the stack for lane grouping.
func (s Stack) batchKey() string {
	off := 0
	if s.Offline {
		off = 1
	}
	return fmt.Sprintf("%s/%x/%d", s.Sys.BatchKey(), math.Float64bits(s.Degrade), off)
}

// Allocator splits a total rack demand across the stacks. Allocations
// treat each stack as gateable: a stack may sit at zero output while its
// siblings carry the load (the rack controller modulates stacks
// individually), so the per-stack constraint is 0 <= x_k <= MaxOutput_k
// with offline stacks pinned at zero.
type Allocator interface {
	// Name is the human-readable policy name for reports.
	Name() string
	// BatchKey is the allocator's grouping identity (see sim.BatchKeyer);
	// allocators are stateless, so the key is just the parameterization.
	BatchKey() string
	// Allocate writes the per-stack outputs for total demand iF into
	// out (len(stacks)). The demand is feasible: 0 <= iF <= sum of
	// online stack ceilings.
	Allocate(stacks []Stack, iF float64, out []float64)
}

// EqualSplit divides the demand evenly across online stacks, spilling
// the share a saturated stack cannot take onto the rest — the naive
// baseline a rack PDU implements with no efficiency feedback.
type EqualSplit struct{}

// Name implements Allocator.
func (EqualSplit) Name() string { return "equal-split" }

// BatchKey implements Allocator.
func (EqualSplit) BatchKey() string { return "equal" }

// Allocate implements Allocator.
func (EqualSplit) Allocate(stacks []Stack, iF float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	remaining := iF
	open := 0
	for _, s := range stacks {
		if s.maxOut() > 0 {
			open++
		}
	}
	// Saturation spill: each pass hands every open stack an equal share;
	// stacks that hit their ceiling close and the residual re-splits.
	for remaining > 1e-15 && open > 0 {
		share := remaining / float64(open)
		progressed := false
		for k := range stacks {
			room := stacks[k].maxOut() - out[k]
			if room <= 0 {
				continue
			}
			take := math.Min(share, room)
			out[k] += take
			remaining -= take
			if take > 0 {
				progressed = true
			}
			if out[k] >= stacks[k].maxOut()-1e-15 {
				open--
			}
		}
		if !progressed {
			break
		}
	}
}

// WaterFill allocates by marginal-cost equalization on the convex
// per-stack fuel curves: the rack's fuel rate sum(f_k(x_k)) is minimized
// subject to sum(x_k) = iF and 0 <= x_k <= max_k by finding the water
// level lambda at which every running stack's marginal fuel cost
// f_k'(x_k) equals lambda (stacks whose marginal cost at zero already
// exceeds lambda stay off; stacks saturated below lambda run at their
// ceiling) — the classic KKT structure of water-filling, valid because
// each f_k is convex (fuelcell.System.IsConvexFuel).
type WaterFill struct{}

// Name implements Allocator.
func (WaterFill) Name() string { return "water-filling" }

// BatchKey implements Allocator.
func (WaterFill) BatchKey() string { return "waterfill" }

// marginal returns df_k/dx at x via a central difference, one-sided at
// the domain edges.
func marginal(s Stack, x float64) float64 {
	const h = 1e-4
	lo, hi := x-h, x+h
	if lo < 0 {
		lo = 0
	}
	if m := s.maxOut(); hi > m {
		hi = m
	}
	if hi <= lo {
		return math.Inf(1)
	}
	return (s.FuelRate(hi) - s.FuelRate(lo)) / (hi - lo)
}

// levelPath is one inner bisection of a level output: bit i of bits
// records the comparison marginal(c_i) <= lambda at inner step i, and x
// is the output the 48 steps arrive at. full is false when an edge
// decided x without bisecting, so there are no bits to reuse.
type levelPath struct {
	bits uint64
	x    float64
	full bool
}

// levelClass is one class of equal stacks: the same Sys pointer,
// Degrade and Offline flag. The level output is a pure function of the
// stack, so one evaluation per class serves every member.
type levelClass struct {
	s   Stack
	max float64
	// edge0 and edgeMax are marginal(s, 0) and marginal(s, max), which
	// do not depend on the water level.
	edge0, edgeMax float64
	// lo and hi are the paths at the outer bracket ends, cur the path
	// at the level evaluated last.
	lo, hi, cur levelPath
}

func newLevelClass(s Stack) levelClass {
	c := levelClass{s: s, max: s.maxOut()}
	if c.max > 0 {
		c.edge0, c.edgeMax = marginal(s, 0), marginal(s, c.max)
	}
	return c
}

// level sets c.cur to the level output at lambda: the largest x in
// [0, max] with f'(x) <= lambda (monotone in lambda because f' is
// non-decreasing), by a 48-step bisection on the marginal cost. lo <=
// lambda <= hi are the outer bracket ends whose paths c.lo and c.hi
// hold. Where the search has so far followed lo's path and lo's
// comparison at this step held, marginal(c) <= lo <= lambda holds too;
// where it has followed hi's path and hi's comparison failed,
// marginal(c) > hi >= lambda. Either way the comparison is known
// without calling marginal, whether or not marginal is monotone, so the
// path, and x, are those of a bisection that evaluates every step.
func (c *levelClass) level(lambda, lo, hi float64) {
	switch {
	case c.max <= 0 || c.edge0 > lambda:
		c.cur = levelPath{}
		return
	case c.edgeMax <= lambda:
		c.cur = levelPath{x: c.max}
		return
	case lambda == lo && c.lo.full:
		c.cur = c.lo
		return
	case lambda == hi && c.hi.full:
		c.cur = c.hi
		return
	}
	onLo, onHi := c.lo.full, c.hi.full
	a, b := 0.0, c.max
	var bits uint64
	for i := 0; i < 48; i++ {
		mid := 0.5 * (a + b)
		bit := uint64(1) << i
		loLE, hiLE := c.lo.bits&bit != 0, c.hi.bits&bit != 0
		var le bool
		switch {
		case onLo && loLE:
			le = true
		case onHi && !hiLE:
			le = false
		default:
			le = marginal(c.s, mid) <= lambda
		}
		if le {
			a = mid
			bits |= bit
		} else {
			b = mid
		}
		onLo = onLo && loLE == le
		onHi = onHi && hiLE == le
	}
	c.cur = levelPath{bits: bits, x: a, full: true}
}

// outerSteps is the number of halvings of the water-level bracket.
const outerSteps = 60

// waterFill is water-filling over one stack set: its classes of equal
// stacks and, when it allocates a sequence of demands, the outer steps
// they took.
type waterFill struct {
	classes []levelClass
	classOf []int
	// steps[i] is outer step i as the latest demand that computed it
	// left it, for i < recorded. steps is nil when the fill allocates a
	// single demand.
	steps    []waterStep
	recorded int
}

// waterStep is one outer bisection step: the bracket [lo, hi] it
// halved, the rack total t at the bracket's midpoint, and each class's
// level path there. The midpoint, and so every path and t, are a
// function of the bracket alone.
type waterStep struct {
	lo, hi, t float64
	paths     []levelPath
}

// classify appends the class of each stack to classes, and its index
// there to classOf, in rack order.
func classify(stacks []Stack, classes []levelClass, classOf []int) ([]levelClass, []int) {
	for _, s := range stacks {
		j := 0
		for j < len(classes) && classes[j].s != s {
			j++
		}
		if j == len(classes) {
			classes = append(classes, newLevelClass(s))
		}
		classOf = append(classOf, j)
	}
	return classes, classOf
}

// newGridFill returns a fill that records its outer steps, for
// allocating many demands over stacks in turn. A demand replays the
// previous one's steps while its bracket matches: consecutive demands
// of a rack's grid share their first steps, the widest and costliest
// of the bisection.
func newGridFill(stacks []Stack) *waterFill {
	w := &waterFill{}
	w.classes, w.classOf = classify(stacks, make([]levelClass, 0, len(stacks)), make([]int, 0, len(stacks)))
	n := len(w.classes)
	paths := make([]levelPath, outerSteps*n)
	w.steps = make([]waterStep, outerSteps)
	for i := range w.steps {
		w.steps[i].paths = paths[i*n : (i+1)*n]
	}
	return w
}

// record stores outer step i, which the current demand has just
// computed, when the fill keeps history. Steps are computed in order
// and a replayed step was recorded before, so i <= w.recorded.
func (w *waterFill) record(i int, lo, hi, t float64) {
	if w.steps == nil {
		return
	}
	s := &w.steps[i]
	s.lo, s.hi, s.t = lo, hi, t
	for j := range w.classes {
		s.paths[j] = w.classes[j].cur
	}
	if i == w.recorded {
		w.recorded++
	}
}

// Allocate implements Allocator.
func (WaterFill) Allocate(stacks []Stack, iF float64, out []float64) {
	var classBuf [MaxStacks]levelClass
	var ofBuf [MaxStacks]int
	classes, classOf := classBuf[:0], ofBuf[:0]
	if len(stacks) > MaxStacks {
		// Only a direct caller can exceed the cap New enforces.
		classes, classOf = make([]levelClass, 0, len(stacks)), make([]int, 0, len(stacks))
	}
	var w waterFill
	w.classes, w.classOf = classify(stacks, classes, classOf)
	w.allocate(stacks, iF, out)
}

// allocate water-fills iF over stacks, the stack set w was classified
// from. The water level is found by a 60-step bisection on the rack
// total, each total evaluating every class once and summing the
// per-stack outputs in rack order. A step whose bracket matches the
// one recorded for it is replayed: its total is compared with iF, and
// the classes take its recorded paths.
func (w *waterFill) allocate(stacks []Stack, iF float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	if iF <= 0 {
		return
	}
	classes := w.classes
	// Bracket the water level: at lambda = 0 nothing runs; at the
	// largest saturated marginal cost everything runs flat out. The
	// bracket ends have no paths yet, whatever a previous demand left.
	hi := 0.0
	for j := range classes {
		c := &classes[j]
		c.lo, c.hi = levelPath{}, levelPath{}
		if c.max > 0 && c.edgeMax > hi {
			hi = c.edgeMax
		}
	}
	hi += 1
	lo := 0.0
	for i := 0; i < outerSteps; i++ {
		mid := 0.5 * (lo + hi)
		var t float64
		if i < w.recorded && w.steps[i].lo == lo && w.steps[i].hi == hi {
			s := &w.steps[i]
			t = s.t
			for j := range classes {
				classes[j].cur = s.paths[j]
			}
		} else {
			for j := range classes {
				classes[j].level(mid, lo, hi)
			}
			for _, j := range w.classOf {
				t += classes[j].cur.x
			}
			w.record(i, lo, hi, t)
		}
		if t < iF {
			lo = mid
			for j := range classes {
				classes[j].lo = classes[j].cur
			}
		} else {
			hi = mid
			for j := range classes {
				classes[j].hi = classes[j].cur
			}
		}
	}
	for j := range classes {
		classes[j].level(hi, lo, hi)
	}
	for k, j := range w.classOf {
		out[k] = classes[j].cur.x
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

// HealthRotation concentrates load on the healthiest stacks: stacks are
// ordered by ascending efficiency degradation (ties keep rack order) and
// filled greedily to their ceilings, so degraded stacks only run when
// the healthy prefix cannot cover the demand — the rotation a rack
// operator runs to shed wear onto stacks already scheduled for
// replacement.
type HealthRotation struct{}

// Name implements Allocator.
func (HealthRotation) Name() string { return "health-rotation" }

// BatchKey implements Allocator.
func (HealthRotation) BatchKey() string { return "rotation" }

// Allocate implements Allocator.
func (HealthRotation) Allocate(stacks []Stack, iF float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	// A stable insertion sort by ascending degradation: ties keep rack
	// order.
	var buf [MaxStacks]int
	order := buf[:0]
	if len(stacks) > MaxStacks {
		order = make([]int, 0, len(stacks))
	}
	for k := range stacks {
		order = append(order, k)
		for j := k; j > 0 && stacks[order[j]].Degrade < stacks[order[j-1]].Degrade; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
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

// ParseAllocator maps a selector string to an allocation policy.
func ParseAllocator(name string) (Allocator, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "equal", "equal-split", "equalsplit":
		return EqualSplit{}, nil
	case "waterfill", "water-filling", "water-fill":
		return WaterFill{}, nil
	case "rotation", "health-rotation", "health":
		return HealthRotation{}, nil
	default:
		return nil, fmt.Errorf("multistack: unknown allocator %q", name)
	}
}

// Allocators returns the three built-in allocation policies in
// comparison order.
func Allocators() []Allocator {
	return []Allocator{EqualSplit{}, WaterFill{}, HealthRotation{}}
}
