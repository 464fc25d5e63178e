package sim

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"fcdpm/internal/fuelcell"
	"fcdpm/internal/obs"
	"fcdpm/internal/workload"
)

// Lane is one scenario variant of a batch.
type Lane struct {
	// Cfg is the lane's simulation configuration. All lanes of a batch
	// must share one trace (pointer-equal or slot-for-slot equal).
	Cfg Config
	// Key, when non-empty, asserts that two lanes with equal keys
	// describe the *same simulation* — typically the content address a
	// scenario spec already carries (config.Scenario.CacheKey). Lanes
	// with equal keys form one run group; a lane without a key runs
	// alone. An incorrect assertion yields silently wrong results, so
	// only derive keys from canonical spec content.
	Key string
}

// LaneResult is one lane's outcome. Res aliases the BatchRunner's
// internal buffers and is valid until the next Run call; it is nil when
// Err is set.
type LaneResult struct {
	Res *Result
	Err error
}

// batchLane is the per-lane bookkeeping: which run group executes it and
// how much of the group's recording it keeps. res is the lane's own
// projection buffer, nil when the lane is its group's only member and
// reads the leader's result directly.
type batchLane struct {
	res     *Result
	group   int
	recFull bool
	metrics *obs.SimMetrics
}

// batchGroup is one executing simulation: the leader state plus every
// lane it stands in for. Groups are formed at construction from the
// lanes' keys and never split mid-run.
type batchGroup struct {
	st      *state
	members []int // lane indices, in submission order
	err     error
}

// BatchRunner executes K scenario variants in lockstep over one trace
// walk. Lanes with equal non-empty keys form a run group: the group
// leader simulates once — at the union of the members' record levels —
// and every member receives a projected copy of the result, so N lanes
// of one spec (coalesced server requests, duplicate sweep cells,
// devicesim fleets) cost one simulation instead of N. Every other lane
// is a group of its own. As long as equal keys name equal simulations,
// batching never changes a single bit of any lane's Result relative to
// a one-lane run (sim.Run) of the same configuration.
//
// BatchRunner is the only simulation engine: sim.Run is a one-lane
// batch. A BatchRunner is reusable and not safe for concurrent use;
// steady-state Run calls allocate nothing.
type BatchRunner struct {
	// Metrics, when non-nil, receives one RecordBatch per completed run:
	// the lane width and how many slot executions follower lanes
	// inherited from their group leaders. Per-lane Config.Metrics sinks
	// still receive their RecordRun as if the lanes had run sequentially
	// (memo deltas are batch-wide and folded into the first instrumented
	// lane; wall time is the batch total split evenly across lanes).
	Metrics *obs.BatchMetrics

	lanes   []batchLane
	groups  []batchGroup
	trace   *workload.Trace
	results []LaneResult
	memos   []*fuelcell.Memo
}

// NewBatchRunner validates the lanes, groups them, and builds the
// reusable run states. The configurations (including the shared trace)
// must not be mutated while the BatchRunner is in use.
func NewBatchRunner(lanes []Lane) (*BatchRunner, error) {
	if len(lanes) == 0 {
		return nil, fmt.Errorf("sim: batch with no lanes")
	}
	for i := range lanes {
		if err := lanes[i].Cfg.validate(); err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
	}
	if len(lanes) == 1 {
		return newSingleLane(lanes[0].Cfg), nil
	}
	trace := lanes[0].Cfg.Trace
	for i := 1; i < len(lanes); i++ {
		if !sameTrace(trace, lanes[i].Cfg.Trace) {
			return nil, fmt.Errorf("sim: batch lane %d trace differs from lane 0; a batch walks one trace", i)
		}
	}

	b := &BatchRunner{
		lanes:   make([]batchLane, len(lanes)),
		trace:   trace,
		results: make([]LaneResult, len(lanes)),
	}

	// Group lanes by key. A lane without a key gets a group of its own.
	groupOf := make(map[string]int, len(lanes))
	for i := range lanes {
		cfg := &lanes[i].Cfg
		key := lanes[i].Key
		gi, ok := groupOf[key] // the empty key is never stored
		if !ok {
			gi = len(b.groups)
			b.groups = append(b.groups, batchGroup{st: &state{}})
			b.groups[gi].st.init(*cfg)
			if key != "" {
				groupOf[key] = gi
			}
		}
		g := &b.groups[gi]
		g.members = append(g.members, i)

		recFull := cfg.Record == RecordFull
		b.lanes[i] = batchLane{group: gi, recFull: recFull, metrics: cfg.Metrics}
		// The leader records the union of its members' levels; each
		// member's projection keeps only what its own level asked for.
		g.st.recFull = g.st.recFull || recFull
	}
	for i := range b.lanes {
		if len(b.groups[b.lanes[i].group].members) > 1 {
			b.lanes[i].res = &Result{FuelByKind: make(map[SegmentKind]float64, numSegmentKinds)}
		}
	}

	// Lanes of different groups run interleaved in lockstep, so a
	// mutable collaborator shared across two executing configurations
	// would corrupt both. Within one group only the leader's objects
	// ever execute, so sharing with (or among) followers is harmless.
	seen := make(map[any]int)
	for gi := range b.groups {
		cfg := &b.groups[gi].st.cfg
		if err := checkShared(seen, gi, cfg.Policy, "policy"); err != nil {
			return nil, err
		}
		for _, p := range cfg.Fallbacks {
			if err := checkShared(seen, gi, p, "fallback policy"); err != nil {
				return nil, err
			}
		}
		for _, pr := range []any{cfg.IdlePredictor, cfg.ActivePredictor, cfg.CurrentPredictor} {
			if err := checkShared(seen, gi, pr, "predictor"); err != nil {
				return nil, err
			}
		}
		if err := checkShared(seen, gi, cfg.TimeoutAdapter, "timeout adapter"); err != nil {
			return nil, err
		}
	}

	// Share one fuel-map memo per fuel-cell system across groups: the
	// memo is exact-bit-keyed, so a hit returns precisely what a miss
	// would compute and sharing cannot perturb any lane.
	memoBySys := make(map[*fuelcell.System]*fuelcell.Memo)
	for gi := range b.groups {
		st := b.groups[gi].st
		if m, ok := memoBySys[st.cfg.Sys]; ok {
			st.memo = m
		} else {
			memoBySys[st.cfg.Sys] = st.memo
			b.memos = append(b.memos, st.memo)
		}
	}
	return b, nil
}

// newSingleLane builds the one-lane batch sim.Run executes, without the
// grouping machinery a lone lane cannot use: no key map, shared-object
// check, or memo map, and the lane reads its group leader's result
// directly. Every piece of bookkeeping lives in one allocation. cfg must
// already be valid.
func newSingleLane(cfg Config) *BatchRunner {
	one := &struct {
		b       BatchRunner
		st      state
		lanes   [1]batchLane
		groups  [1]batchGroup
		results [1]LaneResult
		memos   [1]*fuelcell.Memo
		zero    [1]int // the group's member list
	}{}
	one.st.init(cfg)
	one.lanes[0] = batchLane{recFull: one.st.recFull, metrics: cfg.Metrics}
	one.groups[0] = batchGroup{st: &one.st, members: one.zero[:]}
	one.memos[0] = one.st.memo
	one.b = BatchRunner{
		lanes:   one.lanes[:],
		groups:  one.groups[:],
		trace:   cfg.Trace,
		results: one.results[:],
		memos:   one.memos[:],
	}
	return &one.b
}

// Lanes returns the batch width.
func (b *BatchRunner) Lanes() int { return len(b.lanes) }

// Groups returns how many distinct simulations the batch executes — the
// lane count minus the duplicates the grouping collapsed.
func (b *BatchRunner) Groups() int { return len(b.groups) }

// GroupOf returns the run-group index executing lane i, for tests and
// consumers that want to inspect the grouping.
func (b *BatchRunner) GroupOf(i int) int { return b.lanes[i].group }

// Run executes every lane over the shared trace.
func (b *BatchRunner) Run() ([]LaneResult, error) {
	return b.RunContext(context.Background())
}

// RunContext is Run under a context. Cancellation stops the walk between
// slots: every unfinished lane gets a *CanceledError and the context
// error is returned as the batch error. Per-lane simulation failures do
// not abort the batch — the failing group drops out of lockstep and its
// lanes carry the error while the rest complete.
//
// The returned slice and the *Results inside it alias the BatchRunner's
// internal buffers: they are valid until the next Run call.
func (b *BatchRunner) RunContext(ctx context.Context) ([]LaneResult, error) {
	start := time.Now()
	memoHits0, memoMisses0 := b.memoStats()
	for gi := range b.groups {
		g := &b.groups[gi]
		g.err = nil
		g.st.reset()
	}

	var planGroupHits uint64
	live := len(b.groups)
	var batchErr error
	for k, slot := range b.trace.Slots {
		if live == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			for gi := range b.groups {
				g := &b.groups[gi]
				if g.err == nil {
					g.err = &CanceledError{T: g.st.t, Slot: k, Err: err}
				}
			}
			batchErr = err
			break
		}
		for gi := range b.groups {
			g := &b.groups[gi]
			if g.err != nil {
				continue
			}
			if err := g.st.step(k, slot); err != nil {
				g.err = err
				live--
				continue
			}
			planGroupHits += uint64(len(g.members) - 1)
		}
	}

	for gi := range b.groups {
		g := &b.groups[gi]
		if g.err == nil {
			g.st.finalize()
		}
	}
	for i := range b.lanes {
		ln := &b.lanes[i]
		g := &b.groups[ln.group]
		if g.err != nil {
			b.results[i] = LaneResult{Err: g.err}
			continue
		}
		if ln.res == nil {
			b.results[i] = LaneResult{Res: g.st.res}
			continue
		}
		projectResult(ln.res, g.st.res, ln.recFull)
		b.results[i] = LaneResult{Res: ln.res}
	}

	// Per-lane metrics, as if the lanes had run sequentially: slots and
	// fuel are exact per lane; the shared memos make hit/miss deltas a
	// batch-wide quantity, folded into the first instrumented lane; wall
	// time is the batch total split evenly.
	memoHits1, memoMisses1 := b.memoStats()
	dh, dm := memoHits1-memoHits0, memoMisses1-memoMisses0
	wall := time.Since(start) / time.Duration(len(b.lanes))
	for i := range b.lanes {
		ln := &b.lanes[i]
		if ln.metrics == nil || b.results[i].Err != nil {
			continue
		}
		res := b.results[i].Res
		ln.metrics.RecordRun(res.Slots, res.Fuel, dh, dm, wall)
		dh, dm = 0, 0
	}
	b.Metrics.RecordBatch(len(b.lanes), planGroupHits)
	return b.results, batchErr
}

// memoStats sums hit/miss counters across the batch's distinct memos.
func (b *BatchRunner) memoStats() (hits, misses uint64) {
	for _, m := range b.memos {
		h, ms := m.Stats()
		hits += h
		misses += ms
	}
	return hits, misses
}

// projectResult copies a group leader's result into a lane's buffer,
// keeping only the history the lane's own record level asked for. The
// copy reuses dst's backing storage, so steady-state batch runs allocate
// nothing once the buffers have grown to size.
func projectResult(dst, src *Result, wantFull bool) {
	m := dst.FuelByKind
	clear(m)
	events := dst.Events[:0]
	profile := dst.Profile[:0]
	charges := dst.Charges[:0]
	slotLog := dst.SlotLog[:0]

	*dst = *src
	dst.FuelByKind = m
	for k, v := range src.FuelByKind {
		m[k] = v
	}
	dst.Events = append(events, src.Events...)
	if wantFull {
		dst.Profile = append(profile, src.Profile...)
		dst.Charges = append(charges, src.Charges...)
		dst.SlotLog = append(slotLog, src.SlotLog...)
	} else {
		dst.Profile, dst.Charges, dst.SlotLog = profile, charges, slotLog
	}
}

// sameTrace reports whether two traces drive identical walks. Pointer
// equality is the fast path; otherwise the slots are compared value for
// value (the name is cosmetic).
func sameTrace(a, b *workload.Trace) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || len(a.Slots) != len(b.Slots) {
		return false
	}
	for i := range a.Slots {
		if a.Slots[i] != b.Slots[i] {
			return false
		}
	}
	return true
}

// checkShared rejects a mutable collaborator appearing in two executing
// configurations. Only pointer-typed components can alias shared state;
// value-typed ones are copied into each config and cannot interfere.
func checkShared(seen map[any]int, gi int, v any, what string) error {
	if v == nil {
		return nil
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return nil
	}
	if prev, dup := seen[v]; dup && prev != gi {
		return fmt.Errorf("sim: batch lanes share one %s object (%T) across two executing groups; give each lane its own instance", what, v)
	}
	seen[v] = gi
	return nil
}
