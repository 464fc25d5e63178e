package sim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"fcdpm/internal/fuelcell"
	"fcdpm/internal/obs"
	"fcdpm/internal/workload"
)

// BatchKeyer is the optional grouping face of a policy, predictor, or
// storage element. BatchKey returns a stable identity string: two
// components may return equal keys only if they start every run in
// identical states and evolve identically under identical inputs, so two
// batch lanes whose components all agree are guaranteed to produce
// bit-identical simulations. Components without a BatchKey still run in a
// batch — each such lane simply executes on its own, ungrouped.
type BatchKeyer interface {
	BatchKey() string
}

// Lane is one scenario variant of a batch.
type Lane struct {
	// Cfg is the lane's simulation configuration. All lanes of a batch
	// must share one trace (pointer-equal or slot-for-slot equal).
	Cfg Config
	// Key, when non-empty, asserts that two lanes with equal keys
	// describe the *same simulation* — typically the content address a
	// scenario spec already carries (config.Scenario.CacheKey). Equal
	// keys group lanes even when their components expose no BatchKey;
	// an incorrect assertion yields silently wrong results, so only
	// derive keys from canonical spec content.
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
// lanes' dynamics fingerprints and never split mid-run — a lane that can
// diverge from its siblings (a timeout adapter, an unkeyed component)
// gets a group of its own up front.
type batchGroup struct {
	st      *state
	members []int // lane indices, in submission order
	err     error
}

// batchDecode is one shared trace decode: the groups whose predictors,
// device model, and DPM mode agree, so each slot is expanded once and
// handed to all of them before advancing.
type batchDecode struct {
	groups []int // group indices, in construction order
	dec    slotDecode
}

// BatchRunner executes K scenario variants in lockstep over one trace
// walk. Lanes whose dynamics fingerprints agree form a run group: the
// group leader simulates once — at the union of the members' record
// levels — and every member receives a projected copy of the result, so
// N identical-dynamics variants (ablation siblings differing only in
// recording, coalesced server requests, devicesim fleets) cost one
// simulation instead of N. Groups whose trace-side inputs also agree
// share the per-slot decode (predictions, sleep decision, segment
// expansion). Lanes that can diverge — per-lane timeout adapters, fault
// schedules with distinct identities, components without a BatchKey —
// are their own group from the start, so batching never changes a single
// bit of any lane's Result relative to a one-lane run (sim.Run) of the
// same configuration.
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
	decodes []batchDecode
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

	// Group lanes by dynamics fingerprint. An empty fingerprint means
	// "ungroupable": the lane gets a singleton group and runs scalar.
	groupOf := make(map[string]int, len(lanes))
	for i := range lanes {
		cfg := &lanes[i].Cfg
		key := lanes[i].Key
		if key != "" {
			key = "lane-key:" + key
		} else {
			key, _ = dynamicsKey(cfg)
		}
		gi := -1
		if key != "" {
			if prev, ok := groupOf[key]; ok {
				gi = prev
			}
		}
		if gi < 0 {
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

	// Form decode groups among the run-group leaders.
	decodeOf := make(map[string]int)
	for gi := range b.groups {
		key, ok := decodeKey(&b.groups[gi].st.cfg)
		di := -1
		if ok {
			if prev, found := decodeOf[key]; found {
				di = prev
			}
		}
		if di < 0 {
			di = len(b.decodes)
			b.decodes = append(b.decodes, batchDecode{})
			if ok {
				decodeOf[key] = di
			}
		}
		b.decodes[di].groups = append(b.decodes[di].groups, gi)
	}
	return b, nil
}

// newSingleLane builds the one-lane batch sim.Run executes, without the
// grouping machinery a lone lane cannot use: no fingerprint, shared-object
// check, decode key, or memo map, and the lane reads its group leader's
// result directly. Every piece of bookkeeping lives in one allocation.
// cfg must already be valid.
func newSingleLane(cfg Config) *BatchRunner {
	one := &struct {
		b       BatchRunner
		st      state
		lanes   [1]batchLane
		groups  [1]batchGroup
		decodes [1]batchDecode
		results [1]LaneResult
		memos   [1]*fuelcell.Memo
		zero    [1]int // the group's member list and the decode's group list
	}{}
	one.st.init(cfg)
	one.lanes[0] = batchLane{recFull: one.st.recFull, metrics: cfg.Metrics}
	one.groups[0] = batchGroup{st: &one.st, members: one.zero[:]}
	one.decodes[0].groups = one.zero[:]
	one.memos[0] = one.st.memo
	one.b = BatchRunner{
		lanes:   one.lanes[:],
		groups:  one.groups[:],
		decodes: one.decodes[:],
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
		for di := range b.decodes {
			d := &b.decodes[di]
			decoded := false
			for _, gi := range d.groups {
				g := &b.groups[gi]
				if g.err != nil {
					continue
				}
				if !decoded {
					// The first live group expands the slot; all lanes
					// of a decode group hold identical predictor state,
					// so the producer is interchangeable.
					g.st.decodeSlot(k, slot, &d.dec)
					decoded = true
				}
				if err := g.st.runDecoded(k, slot, &d.dec); err != nil {
					g.err = err
					live--
					continue
				}
				planGroupHits += uint64(len(g.members) - 1)
			}
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

// fpBits formats a float for a fingerprint: exact bits, so two lanes
// group only when the values are identical, not merely close.
func fpBits(v float64) uint64 { return math.Float64bits(v) }

// keyOf returns a component's grouping identity: "-" for absent, its
// BatchKey when it has one, and failure otherwise.
func keyOf(v any) (string, bool) {
	if v == nil {
		return "-", true
	}
	if k, ok := v.(BatchKeyer); ok {
		return k.BatchKey(), true
	}
	return "", false
}

// dynamicsKey fingerprints everything that shapes a lane's dynamics —
// and deliberately nothing that only shapes its recording (Record,
// Metrics), since recording appends history
// without feeding back into the simulation. Two lanes with equal keys
// run bit-identical simulations; a lane whose components cannot be
// keyed reports false and executes ungrouped. Fault schedules are
// compared by identity (plus seed): conservative, but sound.
func dynamicsKey(cfg *Config) (string, bool) {
	if cfg.TimeoutAdapter != nil {
		// A timeout adapter learns per lane; such lanes never group.
		return "", false
	}
	pol, ok := keyOf(cfg.Policy)
	if !ok {
		return "", false
	}
	sto, ok := keyOf(cfg.Store)
	if !ok {
		return "", false
	}
	pi, ok := keyOf(cfg.IdlePredictor)
	if !ok {
		return "", false
	}
	pa, ok := keyOf(cfg.ActivePredictor)
	if !ok {
		return "", false
	}
	pc, ok := keyOf(cfg.CurrentPredictor)
	if !ok {
		return "", false
	}
	var fb strings.Builder
	for _, p := range cfg.Fallbacks {
		k, ok := keyOf(p)
		if !ok {
			return "", false
		}
		fb.WriteString(k)
		fb.WriteByte(';')
	}
	faults := "-"
	if cfg.Faults != nil {
		faults = fmt.Sprintf("%p/%d", cfg.Faults, cfg.FaultSeed)
	}
	// The system is fingerprinted by content, not pointer. The policies
	// key the system they plan against by pointer, though, so lanes over
	// distinct equal-content systems (e.g. per-lane multistack racks
	// built from the same stack mix) group only through an explicit
	// Lane.Key, such as the spec cache key runreport passes.
	return fmt.Sprintf("sys=%s|dev=%p|pol=%s|sto=%s|dpm=%d|to=%x|slew=%x|pi=%s|pa=%s|pc=%s|faults=%s|deficit=%x|fb=%s",
		cfg.Sys.BatchKey(), cfg.Dev, pol, sto, cfg.DPM, fpBits(cfg.Timeout), fpBits(cfg.SlewRate),
		pi, pa, pc, faults, fpBits(cfg.DeficitLimit), fb.String()), true
}

// decodeKey fingerprints the trace-side decode inputs: the device model,
// the DPM mode and timeout, and the predictors. The storage and policy
// are deliberately absent — the decode never reads them — which is what
// lets a capacity or policy sweep expand each slot once for all its
// lanes. Fault schedules perturb the observed slot values, and a timeout
// adapter the per-slot dwell, so either one keeps a lane on its own
// decode.
func decodeKey(cfg *Config) (string, bool) {
	if cfg.TimeoutAdapter != nil || cfg.Faults != nil {
		return "", false
	}
	pi, ok := keyOf(cfg.IdlePredictor)
	if !ok {
		return "", false
	}
	pa, ok := keyOf(cfg.ActivePredictor)
	if !ok {
		return "", false
	}
	pc, ok := keyOf(cfg.CurrentPredictor)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("dev=%p|dpm=%d|to=%x|pi=%s|pa=%s|pc=%s",
		cfg.Dev, cfg.DPM, fpBits(cfg.Timeout), pi, pa, pc), true
}
