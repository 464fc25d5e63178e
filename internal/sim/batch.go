package sim

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"fcdpm/internal/fuelcell"
	"fcdpm/internal/obs"
)

// Lane is one scenario variant of a batch.
type Lane struct {
	// Cfg is the lane's simulation configuration, trace included: the
	// lanes of a batch need not share a trace.
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
// lanes' keys and never split mid-run. wall and the memo counts are
// measured around the group's last walk.
type batchGroup struct {
	st      *state
	members []int // lane indices, in submission order
	err     error

	wall                 time.Duration
	memoHits, memoMisses uint64
}

// BatchRunner executes K scenario variants as independent run groups,
// each walked to the end of its own trace, one after another. Lanes
// with equal non-empty keys form a run group: the group leader
// simulates once — at the union of the members' record levels — and
// every member receives a projected copy of the result, so N lanes of
// one spec (coalesced server requests, duplicate sweep cells) cost one
// simulation instead of N. Every other lane is a group of its own. As
// long as equal keys name equal simulations, batching never changes a
// single bit of any lane's Result relative to a one-lane run (sim.Run)
// of the same configuration.
//
// BatchRunner is the only simulation engine: sim.Run is a one-lane
// batch. A BatchRunner is reusable and not safe for concurrent use;
// steady-state Run calls allocate nothing.
type BatchRunner struct {
	// Metrics, when non-nil, receives one RecordBatch per completed run:
	// the lane width and how many slot executions follower lanes
	// inherited from their group leaders. Per-lane Config.Metrics sinks
	// receive one RecordRun per completed lane: slots and fuel are the
	// lane's own, while the wall time and memo lookups measured around a
	// group's walk go to its first instrumented lane, so the members that
	// executed nothing record zero.
	Metrics *obs.BatchMetrics

	lanes   []batchLane
	groups  []batchGroup
	results []LaneResult
}

// NewBatchRunner validates the lanes, groups them, and builds the
// reusable run states. The configurations (traces included) must not be
// mutated while the BatchRunner is in use.
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

	b := &BatchRunner{
		lanes:   make([]batchLane, len(lanes)),
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

	// Every group is reset before the first walk, so a mutable
	// collaborator shared by two executing groups would start the later
	// one from the earlier one's end state. Within one group only the
	// leader's objects ever execute, so sharing with followers is harmless.
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
		zero    [1]int // the group's member list
	}{}
	one.st.init(cfg)
	one.lanes[0] = batchLane{recFull: one.st.recFull, metrics: cfg.Metrics}
	one.groups[0] = batchGroup{st: &one.st, members: one.zero[:]}
	one.b = BatchRunner{
		lanes:   one.lanes[:],
		groups:  one.groups[:],
		results: one.results[:],
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

// Run executes every lane, each group over its own trace.
func (b *BatchRunner) Run() ([]LaneResult, error) {
	return b.RunContext(context.Background())
}

// RunContext is Run under a context. Cancellation stops the walk
// between slots: the running group and every group not yet walked get a
// *CanceledError, finished groups keep their results, and the context
// error is returned as the batch error. A simulation failure stops only
// its own group, whose lanes carry the error while the rest complete.
//
// The returned slice and the *Results inside it alias the BatchRunner's
// internal buffers: they are valid until the next Run call.
func (b *BatchRunner) RunContext(ctx context.Context) ([]LaneResult, error) {
	for gi := range b.groups {
		g := &b.groups[gi]
		g.err = nil
		g.st.reset()
	}

	var planGroupHits uint64
	var batchErr error
	for gi := range b.groups {
		g := &b.groups[gi]
		if batchErr != nil {
			g.err = &CanceledError{Err: batchErr}
			continue
		}
		hits, misses := g.st.memo.Stats()
		start := time.Now()
		slots, err := g.walk(ctx)
		g.wall = time.Since(start)
		h, m := g.st.memo.Stats()
		g.memoHits, g.memoMisses = h-hits, m-misses
		planGroupHits += uint64(slots) * uint64(len(g.members)-1)
		batchErr = err
	}

	for i := range b.lanes {
		ln := &b.lanes[i]
		g := &b.groups[ln.group]
		if g.err != nil {
			b.results[i] = LaneResult{Err: g.err}
			continue
		}
		res := g.st.res
		if ln.res != nil {
			projectResult(ln.res, res, ln.recFull)
			res = ln.res
		}
		b.results[i] = LaneResult{Res: res}
		// The group's first instrumented lane records what the walk
		// measured; every later member executed nothing.
		ln.metrics.RecordRun(res.Slots, res.Fuel, g.memoHits, g.memoMisses, g.wall)
		if ln.metrics != nil {
			g.memoHits, g.memoMisses, g.wall = 0, 0, 0
		}
	}
	b.Metrics.RecordBatch(len(b.lanes), planGroupHits)
	return b.results, batchErr
}

// walk runs the group slot by slot to the end of its own trace and
// returns how many slots it executed. A simulation error stops the group
// in g.err; cancellation does too, and is returned as the context error.
func (g *batchGroup) walk(ctx context.Context) (int, error) {
	slots := g.st.cfg.Trace.Slots
	for k, slot := range slots {
		if err := ctx.Err(); err != nil {
			g.err = &CanceledError{T: g.st.t, Slot: k, Err: err}
			return k, err
		}
		if g.err = g.st.step(k, slot); g.err != nil {
			return k, nil
		}
	}
	g.st.finalize()
	return len(slots), nil
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
