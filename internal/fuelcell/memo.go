package fuelcell

import "math"

// memoSize is the number of direct-mapped memo slots. Power of two so the
// index reduction is a shift; 256 slots comfortably hold the handful of
// distinct set points a policy emits over a run (FC-DPM re-plans per slot
// but the optimizer lands on a small recurring set, Conv/ASAP on fewer).
const memoSize = 256

// Memo caches a System's efficiency and stack-current (Eq 3/4) maps
// behind a direct-mapped, exact-key lookup. A hit requires the queried
// output current to match a cached key bit-for-bit; anything else falls
// back to the analytic model and caches the freshly computed value. Both
// paths evaluate the identical expression, so a memoized simulation is
// bit-identical to an unmemoized one — the memo only skips re-evaluating
// the efficiency model (interpolation search for table/chain models).
//
// A Memo is NOT safe for concurrent use: each simulation run owns its own
// (the System itself stays shared and read-only). It assumes the System
// is not mutated while the memo is live.
type Memo struct {
	sys *System

	keys [memoSize]uint64
	full [memoSize]bool
	eta  [memoSize]float64
	sc   [memoSize]float64

	hits, misses uint64
}

// NewMemo returns an empty memo over sys.
func NewMemo(sys *System) *Memo { return &Memo{sys: sys} }

// memoIndex maps float bits to a slot (Fibonacci hashing keeps nearby
// currents from clustering into the same slot).
func memoIndex(bits uint64) int {
	return int((bits * 0x9E3779B97F4A7C15) >> 56)
}

// lookup returns the cached (eta, stackCurrent) pair for iF, computing
// and caching it on a miss. iF must be positive.
func (m *Memo) lookup(iF float64) (eta, sc float64) {
	bits := math.Float64bits(iF)
	i := memoIndex(bits)
	if m.full[i] && m.keys[i] == bits {
		m.hits++
		return m.eta[i], m.sc[i]
	}
	m.misses++
	eta = m.sys.Eff.Eta(iF)
	// The same expression as System.StackCurrent, so hit and miss agree
	// bit-for-bit.
	sc = m.sys.VF * iF / (m.sys.Zeta * eta)
	m.keys[i], m.full[i], m.eta[i], m.sc[i] = bits, true, eta, sc
	return eta, sc
}

// Eta returns ηs(iF), memoized.
func (m *Memo) Eta(iF float64) float64 {
	if iF <= 0 {
		return m.sys.Eff.Eta(iF)
	}
	eta, _ := m.lookup(iF)
	return eta
}

// StackCurrent returns the stack current Ifc(iF) per Eq 3, memoized.
// Like System.StackCurrent, non-positive outputs consume no fuel.
func (m *Memo) StackCurrent(iF float64) float64 {
	if iF <= 0 {
		return 0
	}
	_, sc := m.lookup(iF)
	return sc
}

// Fuel returns the fuel (A·s of stack current) consumed by holding iF for
// dt seconds, memoized.
func (m *Memo) Fuel(iF, dt float64) float64 { return m.StackCurrent(iF) * dt }

// Stats reports lookup hits and misses (for tests and perf diagnostics).
func (m *Memo) Stats() (hits, misses uint64) { return m.hits, m.misses }
