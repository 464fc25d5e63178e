package fault

import "fcdpm/internal/storage"

// FadeStore wraps a storage element with a runtime capacity-fade factor.
// The visible capacity is the inner capacity times the current scale;
// charge above the faded capacity at the moment of a fade step is lost
// (it physically leaks through the degraded dielectric / dead cells) and
// accounted in Lost.
type FadeStore struct {
	inner storage.Storage
	scale float64
	// Lost is the cumulative charge destroyed by fade steps, A-s.
	Lost float64
}

// NewFadeStore wraps inner at nominal (scale 1) capacity.
func NewFadeStore(inner storage.Storage) *FadeStore {
	return &FadeStore{inner: inner, scale: 1}
}

// SetScale applies a capacity-fade factor in (0, 1]. Stored charge above
// the new capacity is lost immediately.
func (f *FadeStore) SetScale(scale float64) {
	if scale <= 0 || scale > 1 {
		scale = clamp01(scale)
	}
	f.scale = scale
	if q, c := f.inner.Charge(), f.Capacity(); q > c {
		f.Lost += q - c
		f.inner.SetCharge(c)
	}
}

func clamp01(s float64) float64 {
	if s <= 0 {
		return 1e-9 // a dead-but-not-negative buffer
	}
	if s > 1 {
		return 1
	}
	return s
}

// Capacity implements storage.Storage: the faded capacity.
func (f *FadeStore) Capacity() float64 { return f.inner.Capacity() * f.scale }

// Charge implements storage.Storage.
func (f *FadeStore) Charge() float64 { return f.inner.Charge() }

// SetCharge implements storage.Storage, clamped to the faded capacity.
func (f *FadeStore) SetCharge(q float64) {
	if c := f.Capacity(); q > c {
		q = c
	}
	f.inner.SetCharge(q)
}

// Apply implements storage.Storage. Charging is truncated at the faded
// capacity: what the inner element would have absorbed beyond it is bled.
func (f *FadeStore) Apply(current, dt float64) storage.Flow {
	if current > 0 && dt > 0 {
		room := f.Capacity() - f.Charge()
		if room < 0 {
			room = 0
		}
		delta := current * dt
		if delta > room {
			// Store only what the faded capacity admits; the rest goes
			// through the bleeder exactly as a full nominal buffer would.
			fl := f.inner.Apply(room/dt, dt)
			fl.Bled += delta - room
			return fl
		}
	}
	return f.inner.Apply(current, dt)
}

// Clone implements storage.Storage.
func (f *FadeStore) Clone() storage.Storage {
	return &FadeStore{inner: f.inner.Clone(), scale: f.scale, Lost: f.Lost}
}

// RestoreFrom implements storage.Restorer: it copies the fade factor and
// loss accounting along with the inner element's state, so a faulted
// run's working store rewinds in place instead of falling back to a
// per-run Clone. It reports false — leaving the receiver untouched —
// when src is not a FadeStore or the inner element cannot restore.
func (f *FadeStore) RestoreFrom(src storage.Storage) bool {
	o, ok := src.(*FadeStore)
	if !ok {
		return false
	}
	r, ok := f.inner.(storage.Restorer)
	if !ok || !r.RestoreFrom(o.inner) {
		return false
	}
	f.scale = o.scale
	f.Lost = o.Lost
	return true
}

// Reset rewinds the wrapper to nominal capacity over the given inner
// element, clearing the loss accounting. It is the allocation-free
// equivalent of NewFadeStore(inner) for run-reuse machinery.
func (f *FadeStore) Reset(inner storage.Storage) {
	f.inner = inner
	f.scale = 1
	f.Lost = 0
}

var (
	_ storage.Storage  = (*FadeStore)(nil)
	_ storage.Restorer = (*FadeStore)(nil)
)
