package storage

import "fmt"

// LiIon is a kinetic battery model (KiBaM) of a Li-ion cell pack. KiBaM
// splits the stored charge into an available well (directly usable) and a
// bound well that replenishes the available well through a rate-limited
// diffusion term:
//
//	y1' = -I + k·(h2 - h1)      (available charge)
//	y2' =     -k·(h2 - h1)      (bound charge)
//
// with h1 = y1/c, h2 = y2/(1-c). This captures the two battery
// non-linearities the paper contrasts fuel cells against (§1): the
// rate-capacity effect (high discharge currents strand bound charge) and
// the recovery effect (resting lets the available well refill). Fuel cells
// have neither, which is why battery-aware DPM policies do not transfer.
//
// LiIon is used only by ablation experiments; the paper's own evaluation
// uses the ideal SuperCap.
type LiIon struct {
	cmax float64 // total capacity, A-s
	c    float64 // available-well fraction
	k    float64 // diffusion rate constant, 1/s
	y1   float64 // available charge, A-s
	y2   float64 // bound charge, A-s
}

// NewLiIon returns a KiBaM battery with total capacity cmax amp-seconds,
// available-well fraction c in (0, 1), diffusion constant k (1/s), starting
// at charge q0 distributed proportionally between the wells.
func NewLiIon(cmax, c, k, q0 float64) (*LiIon, error) {
	if cmax <= 0 {
		return nil, fmt.Errorf("storage: non-positive capacity %v", cmax)
	}
	if c <= 0 || c >= 1 {
		return nil, fmt.Errorf("storage: well fraction %v outside (0,1)", c)
	}
	if k <= 0 {
		return nil, fmt.Errorf("storage: non-positive rate constant %v", k)
	}
	b := &LiIon{cmax: cmax, c: c, k: k}
	b.SetCharge(q0)
	return b, nil
}

// Capacity implements Storage.
func (b *LiIon) Capacity() float64 { return b.cmax }

// Charge implements Storage; it reports total stored charge, available
// plus bound.
func (b *LiIon) Charge() float64 { return b.y1 + b.y2 }

// SetCharge implements Storage, distributing the charge between the wells
// in equilibrium proportion (h1 == h2).
func (b *LiIon) SetCharge(q float64) {
	if q < 0 {
		q = 0
	}
	if q > b.cmax {
		q = b.cmax
	}
	b.y1 = q * b.c
	b.y2 = q * (1 - b.c)
}

// Apply implements Storage by integrating the KiBaM ODEs with fixed
// substeps. Charging splits between wells through the same diffusion path.
func (b *LiIon) Apply(current, dt float64) Flow {
	if dt < 0 {
		panic(fmt.Sprintf("storage: negative duration %v", dt))
	}
	var f Flow
	if dt == 0 {
		return f
	}
	const maxStep = 0.05 // seconds; small enough for the ms-scale k values
	steps := int(dt/maxStep) + 1
	h := dt / float64(steps)
	before := b.Charge()
	for s := 0; s < steps; s++ {
		h1 := b.y1 / b.c
		h2 := b.y2 / (1 - b.c)
		diff := b.k * (h2 - h1) * h
		b.y1 += diff
		b.y2 -= diff

		delta := current * h
		switch {
		case delta >= 0:
			// Charge into the available well; overflow past total
			// capacity bleeds.
			room := b.cmax - b.Charge()
			if delta > room {
				f.Bled += delta - room
				delta = room
			}
			b.y1 += delta
			// Keep the available well within its own bound; excess
			// migrates to the bound well immediately (fast surface
			// charge relaxation).
			if cap1 := b.c * b.cmax; b.y1 > cap1 {
				b.y2 += b.y1 - cap1
				b.y1 = cap1
			}
		default:
			need := -delta
			if need <= b.y1 {
				b.y1 -= need
			} else {
				// Rate-capacity effect: demand beyond the available
				// well is unmet even though bound charge remains.
				f.Deficit += need - b.y1
				b.y1 = 0
			}
		}
	}
	f.Stored = b.Charge() - before
	return f
}

// Clone implements Storage.
func (b *LiIon) Clone() Storage {
	cp := *b
	return &cp
}

// RestoreFrom implements Restorer.
func (b *LiIon) RestoreFrom(src Storage) bool {
	o, ok := src.(*LiIon)
	if ok {
		*b = *o
	}
	return ok
}
