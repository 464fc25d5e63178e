package exp

import (
	"fmt"
	"sort"

	"fcdpm/internal/device"
	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/workload"
)

// Advice is the design advisor's output: for a workload and device, is a
// given FC system adequately sized, and how much charge storage does
// FC-DPM need to earn its keep? It packages the §2.2 hybrid-sizing
// argument (FC sized for the average, storage for the peaks) as a tested
// library function.
type Advice struct {
	// PeakLoad and AvgLoad are the trace's extreme and DPM-average rail
	// currents (amps), the latter assuming every sleep-worthy idle sleeps.
	PeakLoad, AvgLoad float64
	// RangeOK reports whether the FC range top covers the average load
	// with headroom; a standalone FC would instead need to cover PeakLoad.
	RangeOK bool
	// StorageNeeded is the worst-case single-slot discharge when the FC
	// holds the per-slot optimal flat level — the minimum buffer for
	// FC-DPM to avoid brownouts (A-s).
	StorageNeeded float64
	// RecommendedCmax adds 50 % margin over the 95th-percentile slot
	// swing, the knee of the capacity sweep.
	RecommendedCmax float64
	// RecommendedReserve is the suggested initial/target charge.
	RecommendedReserve float64
}

// Advise analyses a workload against a device and FC system.
func Advise(sys *fuelcell.System, dev *device.Model, tr *workload.Trace) (*Advice, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("exp: empty trace")
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	tbe := dev.BreakEven()
	a := &Advice{}
	var totalCharge, totalTime float64
	swings := make([]float64, 0, tr.Len())
	for _, s := range tr.Slots {
		if s.ActiveCurrent > a.PeakLoad {
			a.PeakLoad = s.ActiveCurrent
		}
		ps := priceSlot(dev, tbe, s)
		activeCharge := ps.IldA * ps.Ta
		slotTime := ps.Ti + ps.Ta
		slotCharge := ps.IldI*ps.Ti + activeCharge
		totalCharge += slotCharge
		totalTime += slotTime
		// Per-slot flat level and the discharge it implies during the
		// active phase.
		flat := sys.Clamp(slotCharge / slotTime)
		swing := activeCharge - flat*ps.Ta
		if swing < 0 {
			swing = 0
		}
		swings = append(swings, swing)
	}
	a.AvgLoad = totalCharge / totalTime
	a.RangeOK = sys.MaxOutput >= a.AvgLoad*1.1
	sort.Float64s(swings)
	a.StorageNeeded = swings[len(swings)-1]
	p95 := swings[int(0.95*float64(len(swings)-1))]
	a.RecommendedCmax = 1.5 * p95
	if a.RecommendedCmax < a.StorageNeeded {
		a.RecommendedCmax = a.StorageNeeded
	}
	a.RecommendedReserve = 0.2 * a.RecommendedCmax
	return a, nil
}

// priceSlot prices one trace slot the way the simulator runs it under
// oracle DPM, as charge-equivalent average currents: an idle period of
// at least tbe powers down and then sleeps, a shorter one stands by,
// and a sleeping slot's wake-up belongs to its active phase. Advise and
// OfflineOracleDP share it.
func priceSlot(dev *device.Model, tbe float64, s workload.Slot) fcopt.Slot {
	sleeping := s.Idle >= tbe
	ildI := dev.Isdb
	if sleeping && s.Idle > 0 {
		pd := min(dev.TauPD, s.Idle)
		ildI = (dev.IPD*pd + dev.Islp*(s.Idle-pd)) / s.Idle
	}
	ta := dev.TauSR + s.Active + dev.TauRS
	activeCharge := s.ActiveCurrent * ta
	if sleeping {
		ta += dev.TauWU
		activeCharge += dev.IWU * dev.TauWU
	}
	var ildA float64
	if ta > 0 {
		ildA = activeCharge / ta
	}
	return fcopt.Slot{Ti: s.Idle, IldI: ildI, Ta: ta, IldA: ildA}
}
