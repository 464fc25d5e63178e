package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a deterministic time source: Sleep returns immediately
// and records the requested delays; Now advances only via advance().
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
	c.mu.Unlock()
	return ctx.Err()
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) sleepCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sleeps)
}

// testOpts keeps batches single-worker and fast so outcome ordering and
// breaker behavior are deterministic in tests.
func testOpts() Options {
	return Options{Workers: 1, Clock: newFakeClock()}
}

func okTask(id string, v int) Task[int] {
	return Task[int]{ID: id, Run: func(context.Context) (int, error) { return v, nil }}
}

func TestRunAllSucceed(t *testing.T) {
	tasks := []Task[int]{okTask("a", 1), okTask("b", 2), okTask("c", 3)}
	rep, err := Run(context.Background(), Options{Workers: 2}, tasks)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Done != 3 || rep.Failed != 0 {
		t.Fatalf("report = %+v, want 3 done", rep)
	}
	// Outcomes preserve submission order regardless of worker scheduling.
	for i, want := range []string{"a", "b", "c"} {
		if rep.Outcomes[i].ID != want {
			t.Errorf("outcome[%d].ID = %s, want %s", i, rep.Outcomes[i].ID, want)
		}
		if rep.Outcomes[i].Result != i+1 {
			t.Errorf("outcome[%d].Result = %d, want %d", i, rep.Outcomes[i].Result, i+1)
		}
		if rep.Outcomes[i].Status != StatusDone {
			t.Errorf("outcome[%d].Status = %s", i, rep.Outcomes[i].Status)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	// One panicking task must not take down its siblings: the other tasks
	// complete and the panic surfaces as a typed RunError with a stack.
	tasks := []Task[int]{
		okTask("good-1", 1),
		{ID: "boom", Scenario: "sc", Run: func(context.Context) (int, error) { panic("kaboom") }},
		okTask("good-2", 2),
	}
	rep, err := Run(context.Background(), Options{Workers: 3}, tasks)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Done != 2 || rep.Failed != 1 {
		t.Fatalf("report = %+v, want 2 done 1 failed", rep)
	}
	var re *RunError
	if !errors.As(rep.Outcomes[1].Err, &re) {
		t.Fatalf("outcome err = %v, want *RunError", rep.Outcomes[1].Err)
	}
	if re.PanicValue != "kaboom" || re.Stack == "" {
		t.Errorf("RunError = %+v, want panic value and stack", re)
	}
	if !strings.Contains(fmt.Sprintf("%+v", re), "runner_test.go") {
		t.Errorf("%%+v should include the panic stack, got %v", re)
	}
	if strings.Contains(fmt.Sprintf("%v", re), "goroutine") {
		t.Errorf("%%v should omit the stack, got %v", re)
	}
}

func TestFailedTaskRunsOnce(t *testing.T) {
	// A failed run is never repeated: the engine runs each task once,
	// never sleeps, and resolves the failure as a typed *RunError.
	clk := newFakeClock()
	var calls atomic.Int32
	task := Task[int]{ID: "fatal", Run: func(context.Context) (int, error) {
		calls.Add(1)
		return 0, errors.New("deterministic model error")
	}}
	rep, err := Run(context.Background(), Options{Workers: 1, Clock: clk}, []Task[int]{task})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failed != 1 || calls.Load() != 1 {
		t.Fatalf("calls = %d failed = %d, want 1/1", calls.Load(), rep.Failed)
	}
	var re *RunError
	if !errors.As(rep.Outcomes[0].Err, &re) || re.ID != "fatal" {
		t.Fatalf("failure = %v, want a *RunError for task fatal", rep.Outcomes[0].Err)
	}
	if want := "runner: task fatal failed: deterministic model error"; re.Error() != want {
		t.Errorf("error text = %q, want %q", re.Error(), want)
	}
	if clk.sleepCount() != 0 {
		t.Errorf("slept %d times for a failed task", clk.sleepCount())
	}
}

func TestTimeoutFailsTask(t *testing.T) {
	// A run that overruns its deadline fails (it is not interrupted: the
	// batch context is still live), and the error names the deadline.
	var calls atomic.Int32
	task := Task[int]{ID: "hang", Run: func(ctx context.Context) (int, error) {
		calls.Add(1)
		<-ctx.Done()
		return 0, ctx.Err()
	}}
	rep, err := Run(context.Background(),
		Options{Workers: 1, Timeout: 20 * time.Millisecond, Clock: newFakeClock()},
		[]Task[int]{task})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	o := rep.Outcomes[0]
	if o.Status != StatusFailed || calls.Load() != 1 {
		t.Fatalf("outcome = %+v after %d calls, want failed after 1", o, calls.Load())
	}
	var re *RunError
	if !errors.As(o.Err, &re) || !errors.Is(o.Err, context.DeadlineExceeded) ||
		!strings.Contains(o.Err.Error(), "exceeded the 0.02s deadline") {
		t.Fatalf("failure = %v, want a *RunError naming the 0.02s deadline", o.Err)
	}
}

func TestBreakerTripsPerScenario(t *testing.T) {
	// Scenario "bad" fails repeatedly: after the threshold its remaining
	// tasks are skipped with ErrBreakerOpen. Scenario "good" is untouched.
	var badCalls, goodCalls atomic.Int32
	var tasks []Task[int]
	for i := 0; i < 6; i++ {
		i := i
		tasks = append(tasks,
			Task[int]{ID: fmt.Sprintf("bad-%d", i), Scenario: "bad",
				Run: func(context.Context) (int, error) { badCalls.Add(1); return 0, errors.New("broken") }},
			Task[int]{ID: fmt.Sprintf("good-%d", i), Scenario: "good",
				Run: func(context.Context) (int, error) { goodCalls.Add(1); return i, nil }})
	}
	opts := testOpts()
	opts.BreakerThreshold = 3
	rep, err := Run(context.Background(), opts, tasks)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := badCalls.Load(); got != 3 {
		t.Errorf("bad scenario ran %d times, want 3 (then breaker open)", got)
	}
	if got := goodCalls.Load(); got != 6 {
		t.Errorf("good scenario ran %d times, want all 6", got)
	}
	if rep.BreakerSkipped != 3 {
		t.Errorf("BreakerSkipped = %d, want 3", rep.BreakerSkipped)
	}
	for _, o := range rep.Outcomes {
		if o.Status == StatusBreakerOpen && !errors.Is(o.Err, ErrBreakerOpen) {
			t.Errorf("breaker outcome err = %v, want ErrBreakerOpen", o.Err)
		}
	}
}

// breakerStates snapshots the state of every breaker the pool keeps,
// keyed by scenario and named as the breaker's String.
func breakerStates[R any](p *Pool[R]) map[string]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	states := make(map[string]string, len(p.breakers))
	for scenario, b := range p.breakers {
		states[scenario] = b.snapshot().String()
	}
	return states
}

// TestPoolForgetsPristineBreakers: a long-lived pool keeps a scenario's
// breaker only while it carries state (failures counted or an open
// circuit), so a stream of distinct healthy scenarios does not grow it,
// while failures still accumulate across separate tasks and trip the
// breaker at its threshold.
func TestPoolForgetsPristineBreakers(t *testing.T) {
	p, err := NewPool[int](context.Background(), Options{
		Workers: 1, BreakerThreshold: 3, Clock: newFakeClock(), StreamOutcomes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fail := func(context.Context) (int, error) { return 0, errors.New("down") }
	ok := func(context.Context) (int, error) { return 1, nil }
	submit := func(id, scenario string, run func(context.Context) (int, error)) {
		t.Helper()
		if err := p.Submit(Task[int]{ID: id, Scenario: scenario, Run: run}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		submit(fmt.Sprintf("ok-%d", i), fmt.Sprintf("spec-%d", i), ok)
	}
	// "flaky" fails twice and recovers; "bad" fails until it trips.
	submit("flaky-0", "flaky", fail)
	submit("flaky-1", "flaky", fail)
	submit("flaky-2", "flaky", ok)
	for i := 0; i < 4; i++ {
		submit(fmt.Sprintf("bad-%d", i), "bad", fail)
	}
	submit("counting-0", "counting", fail)
	rep, err := p.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rep.Failed != 6 || rep.BreakerSkipped != 1 {
		t.Fatalf("report = %+v, want 6 failed and 1 skipped", rep)
	}
	want := map[string]string{"bad": "open", "counting": "closed"}
	if got := breakerStates(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("breaker states = %v, want %v", got, want)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	// After the cooldown one probe is admitted; its success closes the
	// breaker and the scenario flows again.
	clk := newFakeClock()
	healthy := atomic.Bool{}
	run := func(context.Context) (int, error) {
		if healthy.Load() {
			return 1, nil
		}
		return 0, errors.New("down")
	}
	ctx := context.Background()
	p, err := NewPool[int](ctx, Options{Workers: 1, BreakerThreshold: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.Submit(Task[int]{ID: fmt.Sprintf("t%d", i), Scenario: "sc", Run: run}); err != nil {
			t.Fatal(err)
		}
	}
	rep, _ := p.Drain()
	if rep.Failed != 2 || rep.BreakerSkipped != 1 {
		t.Fatalf("phase 1 report = %+v, want 2 failed 1 skipped", rep)
	}

	healthy.Store(true)
	clk.advance(2 * time.Minute)
	p2, err := NewPool[int](ctx, Options{Workers: 1, BreakerThreshold: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh pool: breakers are per-batch state, so the scenario runs again.
	if err := p2.Submit(Task[int]{ID: "probe", Scenario: "sc", Run: run}); err != nil {
		t.Fatal(err)
	}
	rep2, err := p2.Drain()
	if err != nil || rep2.Done != 1 {
		t.Fatalf("recovery report = %+v err = %v, want 1 done", rep2, err)
	}
}

func TestLoadShedding(t *testing.T) {
	// With ShedOverflow and a saturated queue, Submit rejects instead of
	// blocking, and the shed task appears in the report.
	release := make(chan struct{})
	blocker := func(context.Context) (int, error) { <-release; return 0, nil }
	p, err := NewPool[int](context.Background(),
		Options{Workers: 1, Queue: 1, ShedOverflow: true, Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	// First occupies the worker, second the queue slot; submit until one sheds
	// (the worker may not have picked up the first task yet).
	shed := 0
	for i := 0; i < 3; i++ {
		if err := p.Submit(Task[int]{ID: fmt.Sprintf("b%d", i), Run: blocker}); errors.Is(err, ErrShed) {
			shed++
		} else if err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if shed == 0 {
		t.Fatal("no Submit shed with a full queue")
	}
	close(release)
	rep, err := p.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rep.Shed != shed {
		t.Errorf("report.Shed = %d, want %d", rep.Shed, shed)
	}
	if rep.Done != 3-shed {
		t.Errorf("report.Done = %d, want %d", rep.Done, 3-shed)
	}
}

func TestInterruptMarksRemaining(t *testing.T) {
	// Cancel mid-batch: in-flight and queued tasks resolve as interrupted,
	// Drain returns ErrInterrupted, and completed work stays completed.
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	tasks := []Task[int]{
		okTask("done-before", 1),
		{ID: "canceled-mid-run", Run: func(c context.Context) (int, error) {
			once.Do(func() { close(started) })
			<-c.Done()
			return 0, c.Err()
		}},
		okTask("never-started", 3),
	}
	p, err := NewPool[int](ctx, Options{Workers: 1, Queue: 1, Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-started
		cancel()
	}()
	for _, task := range tasks {
		if err := p.Submit(task); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("Submit(%s): %v", task.ID, err)
		}
	}
	rep, err := p.Drain()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Drain err = %v, want ErrInterrupted", err)
	}
	if rep.Done != 1 || rep.Interrupted != 2 {
		t.Fatalf("report = %+v, want 1 done 2 interrupted", rep)
	}
}

func TestJournalResume(t *testing.T) {
	// Kill-and-resume: run a batch that is interrupted partway, then
	// re-invoke with the same journal — completed tasks are skipped
	// (resumed from the checkpoint, run functions not called) and the
	// batch finishes with results identical to an uninterrupted run.
	dir := t.TempDir()
	jpath := filepath.Join(dir, "sweep.jsonl")
	ids := []string{"s/a", "s/b", "s/c", "s/d"}

	var ran1 []string
	var mu sync.Mutex
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := NewPool[string](ctx, Options{Workers: 1, Journal: jpath, Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		id := id
		kill := i == 2
		err := p.Submit(Task[string]{ID: id, Run: func(context.Context) (string, error) {
			mu.Lock()
			ran1 = append(ran1, id)
			mu.Unlock()
			if kill {
				cancel() // simulate SIGTERM landing mid-batch
				return "", ctx.Err()
			}
			return "result-" + id, nil
		}})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit(%s): %v", id, err)
		}
	}
	rep1, err := p.Drain()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Drain err = %v, want ErrInterrupted", err)
	}
	if rep1.Done != 2 {
		t.Fatalf("first pass Done = %d, want 2", rep1.Done)
	}

	// Second invocation, same journal: a and b must not re-run.
	var ran2 []string
	var tasks []Task[string]
	for _, id := range ids {
		id := id
		tasks = append(tasks, Task[string]{ID: id, Run: func(context.Context) (string, error) {
			mu.Lock()
			ran2 = append(ran2, id)
			mu.Unlock()
			return "result-" + id, nil
		}})
	}
	rep2, err := Run(context.Background(), Options{Workers: 1, Journal: jpath, Clock: newFakeClock()}, tasks)
	if err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if rep2.Resumed != 2 || rep2.Done != 2 {
		t.Fatalf("resume report = %+v, want 2 resumed 2 done", rep2)
	}
	if len(ran2) != 2 {
		t.Fatalf("resume ran %v, want only the 2 uncompleted tasks", ran2)
	}
	for i, id := range ids {
		if got := rep2.Outcomes[i].Result; got != "result-"+id {
			t.Errorf("outcome[%d] = %q, want %q (journal round-trip)", i, got, "result-"+id)
		}
	}

	// Third invocation: everything resumes, nothing runs.
	rep3, err := Run(context.Background(), Options{Workers: 1, Journal: jpath, Clock: newFakeClock()}, tasks)
	if err != nil || rep3.Resumed != 4 || rep3.Done != 0 {
		t.Fatalf("third report = %+v err = %v, want 4 resumed", rep3, err)
	}
}

func TestJournalFailuresNotCheckpointed(t *testing.T) {
	// Failures must re-run on the next invocation: only successes are
	// journaled, so a transient fault never becomes a permanent skip.
	dir := t.TempDir()
	jpath := filepath.Join(dir, "j.jsonl")
	fail := true
	task := []Task[int]{{ID: "x", Run: func(context.Context) (int, error) {
		if fail {
			return 0, errors.New("transient outage")
		}
		return 5, nil
	}}}
	opts := Options{Workers: 1, Journal: jpath, Clock: newFakeClock()}
	rep, err := Run(context.Background(), opts, task)
	if err != nil || rep.Failed != 1 {
		t.Fatalf("report = %+v err = %v, want 1 failed", rep, err)
	}
	fail = false
	rep, err = Run(context.Background(), opts, task)
	if err != nil || rep.Done != 1 || rep.Resumed != 0 {
		t.Fatalf("report = %+v err = %v, want the task to re-run and succeed", rep, err)
	}
}

func TestSubmitAfterDrain(t *testing.T) {
	p, err := NewPool[int](context.Background(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(okTask("late", 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Drain = %v, want ErrClosed", err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// The same batch, run twice with concurrency, yields byte-identical
	// reports (order, results, statuses) — workers affect wall-clock, not
	// output.
	build := func() []Task[int] {
		var tasks []Task[int]
		for i := 0; i < 20; i++ {
			i := i
			tasks = append(tasks, Task[int]{
				ID:       fmt.Sprintf("det/%02d", i),
				Scenario: fmt.Sprintf("sc%d", i%3),
				Run:      func(context.Context) (int, error) { return i * i, nil },
			})
		}
		return tasks
	}
	encode := func(rep *Report[int]) string {
		b, err := json.Marshal(rep.Outcomes)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	rep1, err := Run(context.Background(), Options{Workers: 8}, build())
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(context.Background(), Options{Workers: 2}, build())
	if err != nil {
		t.Fatal(err)
	}
	if encode(rep1) != encode(rep2) {
		t.Error("reports differ across worker counts")
	}
}

func TestRunIDAndJournalKeys(t *testing.T) {
	if got := RunID("faults", "seed=42", "class=dcdc", "policy=fcdpm"); got != "faults/seed=42/class=dcdc/policy=fcdpm" {
		t.Errorf("RunID = %q", got)
	}
	if got := RunID("a", "", "b"); got != "a/b" {
		t.Errorf("RunID drops empties: got %q", got)
	}
}

func TestJournalTornLineTolerated(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "j.jsonl")
	good, _ := json.Marshal(journalRecord{ID: "keep", Result: json.RawMessage(`9`)})
	if err := os.WriteFile(jpath, append(append([]byte{}, good...), []byte("\n{\"id\":\"torn")...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := openJournal(jpath)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	defer j.close()
	if len(j.byID) != 1 {
		t.Fatalf("journal holds %d records, want 1 (torn line dropped)", len(j.byID))
	}
	if _, ok := j.lookup("keep"); !ok {
		t.Error("valid prefix record lost")
	}
}
