package predict

import (
	"fmt"
	"math"
)

// Tree is an adaptive-learning-tree predictor in the spirit of Chung,
// Benini & De Micheli [3]: recent observations are quantized into a small
// number of levels; the sequence of the last Depth levels indexes a node in
// a complete tree whose leaves hold per-context level predictions updated
// by a saturating confidence counter. The prediction is the centre of the
// predicted level's quantization bin.
//
// It shines on workloads with repeating idle patterns (e.g. periodic
// multimedia) where the exponential average smears structure away.
type Tree struct {
	// Levels is the number of quantization bins over [Lo, Hi].
	Levels int
	// Depth is the context length (how many past levels index the tree).
	Depth int
	// Lo and Hi bound the quantizer's input range.
	Lo, Hi float64

	initial float64
	ctx     []int          // last Depth observed levels, most recent last
	table   map[int]*entry // context hash -> prediction entry
}

type entry struct {
	level      int
	confidence int // saturating 0..3
}

// NewTree returns an adaptive learning tree predictor. levels must be at
// least 2, depth positive and small enough that every context key fits
// an int, and hi > lo; violations are *ConfigError.
func NewTree(levels, depth int, lo, hi, initial float64) (*Tree, error) {
	if levels < 2 {
		return nil, &ConfigError{Predictor: "tree", Param: "levels",
			Detail: fmt.Sprintf("%d < 2", levels)}
	}
	if depth < 1 {
		return nil, &ConfigError{Predictor: "tree", Param: "depth",
			Detail: fmt.Sprintf("%d < 1", depth)}
	}
	// The largest key has depth digits of value levels (see key). Past
	// the depth where it overflows, distinct contexts would share a table
	// entry, and each slot would hash an ever longer context.
	for k, d := 0, 0; d < depth; d++ {
		if k > (math.MaxInt-levels)/levels {
			return nil, &ConfigError{Predictor: "tree", Param: "depth",
				Detail: fmt.Sprintf("%d > %d, the deepest context whose key fits an int at %d levels", depth, d, levels)}
		}
		k = k*levels + levels
	}
	if !(hi > lo) {
		return nil, &ConfigError{Predictor: "tree", Param: "hi",
			Detail: fmt.Sprintf("bounds [%v, %v] invalid", lo, hi)}
	}
	return &Tree{
		Levels:  levels,
		Depth:   depth,
		Lo:      lo,
		Hi:      hi,
		initial: initial,
		table:   make(map[int]*entry),
	}, nil
}

// MustTree is NewTree for fixed valid literals; it panics on a
// construction error.
func MustTree(levels, depth int, lo, hi, initial float64) *Tree {
	t, err := NewTree(levels, depth, lo, hi, initial)
	if err != nil {
		panic(err)
	}
	return t
}

// quantize maps a value to a level in [0, Levels).
func (t *Tree) quantize(v float64) int {
	if v <= t.Lo {
		return 0
	}
	if v >= t.Hi {
		return t.Levels - 1
	}
	l := int(float64(t.Levels) * (v - t.Lo) / (t.Hi - t.Lo))
	if l >= t.Levels {
		l = t.Levels - 1
	}
	return l
}

// dequantize maps a level back to the centre of its bin.
func (t *Tree) dequantize(level int) float64 {
	bin := (t.Hi - t.Lo) / float64(t.Levels)
	return t.Lo + (float64(level)+0.5)*bin
}

// key hashes the current context into a table index.
func (t *Tree) key() int {
	k := 0
	for _, l := range t.ctx {
		k = k*t.Levels + l + 1
	}
	return k
}

// Predict implements Predictor.
func (t *Tree) Predict() float64 {
	if len(t.ctx) < t.Depth {
		return t.initial
	}
	e, ok := t.table[t.key()]
	if !ok {
		// Unseen context: fall back to the most recent level.
		return t.dequantize(t.ctx[len(t.ctx)-1])
	}
	return t.dequantize(e.level)
}

// Observe implements Predictor: it trains the current context's leaf toward
// the observed level with a saturating confidence counter, then shifts the
// context.
func (t *Tree) Observe(actual float64) {
	level := t.quantize(actual)
	if len(t.ctx) >= t.Depth {
		k := t.key()
		e, ok := t.table[k]
		switch {
		case !ok:
			t.table[k] = &entry{level: level, confidence: 1}
		case e.level == level:
			if e.confidence < 3 {
				e.confidence++
			}
		default:
			e.confidence--
			if e.confidence <= 0 {
				e.level = level
				e.confidence = 1
			}
		}
	}
	t.ctx = append(t.ctx, level)
	if len(t.ctx) > t.Depth {
		t.ctx = t.ctx[1:]
	}
}

// Reset implements Predictor.
func (t *Tree) Reset() {
	t.ctx = t.ctx[:0]
	t.table = make(map[int]*entry)
}

// Name implements Predictor.
func (t *Tree) Name() string {
	return fmt.Sprintf("learning-tree(L=%d,d=%d)", t.Levels, t.Depth)
}

var _ Predictor = (*Tree)(nil)
