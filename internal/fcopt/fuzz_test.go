package fcopt

import (
	"math"
	"testing"

	"fcdpm/internal/fuelcell"
)

// FuzzOptimize throws arbitrary slot parameters at the closed-form
// optimizer: it must either reject the slot or return an in-range,
// finite-fuel setting — never panic, never emit NaN.
func FuzzOptimize(f *testing.F) {
	f.Add(20.0, 0.2, 10.0, 1.2, 0.0, 0.0, 6.0, false)
	f.Add(0.0, 0.0, 5.0, 1.0, 3.0, 3.0, 6.0, true)
	f.Add(14.0, 0.2, 3.03, 1.22, 1.0, 1.0, 6.0, true)
	f.Add(-1.0, 0.5, 2.0, 0.5, 0.0, 0.0, 1.0, false)
	f.Add(1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, true)
	sys := fuelcell.PaperSystem()
	f.Fuzz(func(t *testing.T, ti, ildI, ta, ildA, cini, cend, cmax float64, sleep bool) {
		s := Slot{Ti: ti, IldI: ildI, Ta: ta, IldA: ildA, Cini: cini, Cend: cend, Sleep: sleep}
		if sleep {
			s.Overhead = &Overhead{TauWU: 0.5, IWU: 0.4, TauPD: 0.5, IPD: 0.4}
		}
		set, err := Optimize(sys, cmax, s)
		if err != nil {
			return
		}
		if math.IsNaN(set.IFi) || math.IsNaN(set.IFa) || math.IsNaN(set.Fuel) {
			t.Fatalf("NaN in setting %+v for slot %+v", set, s)
		}
		if !sys.InRange(set.IFi) || !sys.InRange(set.IFa) {
			t.Fatalf("out-of-range setting %+v for slot %+v", set, s)
		}
		if set.Fuel < 0 || math.IsInf(set.Fuel, 0) {
			t.Fatalf("bad fuel %v for slot %+v", set.Fuel, s)
		}
	})
}

// FuzzOptimizeQuantized throws arbitrary slots and grid sizes at the
// discrete-level solver: it must return the reference's setting, or
// its error, bit for bit, and a returned setting lies on the grid with
// a non-negative fuel.
func FuzzOptimizeQuantized(f *testing.F) {
	f.Add(20.0, 0.2, 10.0, 1.2, 0.0, 0.0, 6.0, uint8(5), false)
	f.Add(5.0, 1.0, 20.0, 1.4, 3.0, 6.0, 6.0, uint8(10), true)
	f.Add(10.0, 0.3, 10.0, 0.9, 1.0, 1.0, 6.0, uint8(254), false)
	f.Add(10.0, 2.0, 5.0, 0.5, 0.0, 0.0, 6.0, uint8(0), false)
	sys := fuelcell.PaperSystem()
	f.Fuzz(func(t *testing.T, ti, ildI, ta, ildA, cini, cend, cmax float64, n uint8, sleep bool) {
		s := Slot{Ti: ti, IldI: ildI, Ta: ta, IldA: ildA, Cini: cini, Cend: cend, Sleep: sleep}
		if sleep {
			s.Overhead = &Overhead{TauWU: 0.5, IWU: 0.4, TauPD: 0.5, IPD: 0.4}
		}
		lv := mustLevels(t, sys, UniformLevels(sys, 2+int(n)%255))
		set, err := matchReference(t, sys, lv, cmax, s)
		if err != nil {
			return
		}
		onGrid := func(x float64) bool {
			for _, l := range lv.Values() {
				if x == l {
					return true
				}
			}
			return false
		}
		if !onGrid(set.IFi) || !onGrid(set.IFa) {
			t.Fatalf("off-grid setting %+v", set)
		}
		if math.IsNaN(set.Fuel) || set.Fuel < 0 {
			t.Fatalf("bad fuel %v", set.Fuel)
		}
	})
}
