package multistack

import (
	"fmt"
	"math"

	"fcdpm/internal/fuelcell"
	"fcdpm/internal/numeric"
)

// effGrid is the resolution of the pre-solved aggregate efficiency
// curve. 512 points over the rack's output range keeps the interpolation
// error orders of magnitude below the allocation differences the curve
// exists to expose.
const effGrid = 512

// MaxStacks caps the number of stacks in a rack, so one rack spec can
// neither hold a worker for seconds nor size an allocation by an
// untrusted count. The allocators keep their per-call state in arrays
// of this size.
const MaxStacks = 64

// Rack is K stacks behind one bus, aggregated under an allocation
// policy into a single immutable fuelcell.System. Build one with New;
// the zero value is not usable.
type Rack struct {
	stacks []Stack
	alloc  Allocator
	sys    *fuelcell.System
}

// rackEfficiency is the aggregate's pre-solved efficiency map.
type rackEfficiency struct {
	t *numeric.Table
}

// Eta implements fuelcell.EfficiencyModel.
func (e rackEfficiency) Eta(iF float64) float64 {
	eta := e.t.At(iF)
	if eta < 1e-3 {
		return 1e-3
	}
	return eta
}

// New validates the stack set and pre-solves the aggregate. A rack has
// 1 to MaxStacks stacks; all must share VF and Zeta (they regulate one
// bus and burn one fuel), at least one must be online, and
// degradations must lie in [0, 1).
func New(stacks []Stack, alloc Allocator) (*Rack, error) {
	if len(stacks) == 0 {
		return nil, fmt.Errorf("multistack: empty rack")
	}
	if len(stacks) > MaxStacks {
		return nil, fmt.Errorf("multistack: %d stacks exceed the cap of %d", len(stacks), MaxStacks)
	}
	if alloc == nil {
		return nil, fmt.Errorf("multistack: nil allocator")
	}
	var vf, zeta float64
	online := 0
	for k, s := range stacks {
		if s.Sys == nil {
			return nil, fmt.Errorf("multistack: stack %d has nil system", k)
		}
		if s.Degrade < 0 || s.Degrade >= 1 || math.IsNaN(s.Degrade) {
			return nil, fmt.Errorf("multistack: stack %d degradation %v outside [0, 1)", k, s.Degrade)
		}
		if k == 0 {
			vf, zeta = s.Sys.VF, s.Sys.Zeta
		} else if s.Sys.VF != vf || s.Sys.Zeta != zeta {
			return nil, fmt.Errorf("multistack: stack %d bus parameters (VF=%v, zeta=%v) differ from stack 0 (VF=%v, zeta=%v)",
				k, s.Sys.VF, s.Sys.Zeta, vf, zeta)
		}
		if !s.Offline {
			online++
		}
	}
	if online == 0 {
		return nil, fmt.Errorf("multistack: no online stacks")
	}
	r := &Rack{
		stacks: append([]Stack(nil), stacks...),
		alloc:  alloc,
	}
	if err := r.solve(vf, zeta); err != nil {
		return nil, err
	}
	return r, nil
}

// solve pre-computes the aggregate efficiency curve: for each total
// demand on a dense grid, run the allocator, sum the per-stack fuel
// rates, and back out the effective efficiency eta = VF*iF/(zeta*fuel)
// — so the aggregate System's StackCurrent(iF) reproduces the rack fuel
// rate exactly at the grid points and interpolates between them.
func (r *Rack) solve(vf, zeta float64) error {
	minOut := math.Inf(1)
	var maxOut float64
	for _, s := range r.stacks {
		if s.Offline {
			continue
		}
		minOut = math.Min(minOut, s.Sys.MinOutput)
		maxOut += s.Sys.MaxOutput
	}
	xs := make([]float64, 0, effGrid)
	ys := make([]float64, 0, effGrid)
	out := make([]float64, len(r.stacks))
	// The grid is allocated in order, so water-filling can replay the
	// outer steps each demand shares with the one before.
	allocate := r.alloc.Allocate
	if _, ok := r.alloc.(WaterFill); ok {
		allocate = newGridFill(r.stacks).allocate
	}
	for k := 0; k < effGrid; k++ {
		iF := minOut + (maxOut-minOut)*float64(k)/float64(effGrid-1)
		allocate(r.stacks, iF, out)
		fuel := r.fuelRate(out)
		if fuel <= 0 {
			return fmt.Errorf("multistack: degenerate rack fuel rate at iF=%v", iF)
		}
		xs = append(xs, iF)
		ys = append(ys, vf*iF/(zeta*fuel))
	}
	tab, err := numeric.NewTable(xs, ys)
	if err != nil {
		return err
	}
	sys, err := fuelcell.NewSystem(vf, zeta, minOut, maxOut, rackEfficiency{t: tab})
	if err != nil {
		return err
	}
	r.sys = sys
	return nil
}

// fuelRate returns the summed fuel rate of the per-stack outputs out.
func (r *Rack) fuelRate(out []float64) float64 {
	var fuel float64
	for k, s := range r.stacks {
		fuel += s.FuelRate(out[k])
	}
	return fuel
}

// System returns the aggregate source: an immutable fuelcell.System
// whose load-following range is [min online stack minimum, sum of
// online stack maxima] and whose fuel map is the allocator's. It plugs
// directly into sim.Config.Sys, policies, and the fuel-map memo.
func (r *Rack) System() *fuelcell.System { return r.sys }

// K returns the number of stacks, online or not.
func (r *Rack) K() int { return len(r.stacks) }

// Allocate returns the per-stack outputs the rack's policy chooses for
// total demand iF — the exact split the pre-solved aggregate curve was
// built from, exposed for reports and tests.
func (r *Rack) Allocate(iF float64) []float64 {
	out := make([]float64, len(r.stacks))
	r.alloc.Allocate(r.stacks, iF, out)
	return out
}

// Uniform builds a rack of k identical stacks cloned from sys, with
// per-stack efficiency degradations cycled from degrade (nil or empty
// means all healthy) — the constructor studies and the scenario layer
// share. degrade values follow the fault.EfficiencyDegrade convention:
// fractional efficiency loss in [0, 1).
func Uniform(sys *fuelcell.System, k int, alloc Allocator, degrade []float64) (*Rack, error) {
	if k < 1 || k > MaxStacks {
		return nil, fmt.Errorf("multistack: rack size %d outside [1, %d]", k, MaxStacks)
	}
	stacks := make([]Stack, k)
	for i := range stacks {
		var d float64
		if len(degrade) > 0 {
			d = degrade[i%len(degrade)]
		}
		stacks[i] = Stack{Sys: sys, Degrade: d}
	}
	return New(stacks, alloc)
}
