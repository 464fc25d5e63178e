package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// eventSink collects OnEvent notifications concurrency-safely.
type eventSink struct {
	mu     sync.Mutex
	events []TaskEvent
}

func (s *eventSink) record(e TaskEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
}

func (s *eventSink) byID(id string) []TaskEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []TaskEvent
	for _, e := range s.events {
		if e.ID == id {
			out = append(out, e)
		}
	}
	return out
}

func TestOnEventLifecycle(t *testing.T) {
	sink := &eventSink{}
	tasks := []Task[int]{
		{ID: "ok", Run: func(context.Context) (int, error) { return 7, nil }},
		{ID: "broken", Run: func(context.Context) (int, error) {
			return 0, errors.New("deterministic")
		}},
	}
	rep, err := Run(context.Background(), Options{
		Workers: 2, Clock: newFakeClock(),
		OnEvent: sink.record,
	}, tasks)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Done != 1 || rep.Failed != 1 {
		t.Fatalf("report: %+v", rep)
	}

	okEvents := sink.byID("ok")
	if len(okEvents) != 2 ||
		okEvents[0].Phase != PhaseStart ||
		okEvents[1].Phase != PhaseResolve || okEvents[1].Status != StatusDone {
		t.Fatalf("ok lifecycle: %+v", okEvents)
	}
	broken := sink.byID("broken")
	if len(broken) != 2 || broken[0].Phase != PhaseStart ||
		broken[1].Phase != PhaseResolve || broken[1].Status != StatusFailed || broken[1].Err == nil {
		t.Fatalf("broken lifecycle: %+v", broken)
	}
}

func TestStreamOutcomes(t *testing.T) {
	sink := &eventSink{}
	var tasks []Task[int]
	for i := 0; i < 20; i++ {
		i := i
		tasks = append(tasks, Task[int]{
			ID:  fmt.Sprintf("t%d", i),
			Run: func(context.Context) (int, error) { return i, nil },
		})
	}
	rep, err := Run(context.Background(), Options{
		Workers: 4, StreamOutcomes: true, OnEvent: sink.record,
	}, tasks)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Outcomes) != 0 {
		t.Fatalf("streaming pool retained %d outcomes", len(rep.Outcomes))
	}
	if rep.Done != 20 {
		t.Fatalf("Done = %d, want 20", rep.Done)
	}
	sink.mu.Lock()
	resolves := 0
	for _, e := range sink.events {
		if e.Phase == PhaseResolve {
			resolves++
		}
	}
	sink.mu.Unlock()
	if resolves != 20 {
		t.Fatalf("resolve events = %d, want 20", resolves)
	}
}

// TestConcurrentSubmitDrain hammers Submit from many goroutines while
// Drain closes the pool: every submission must either run or get
// ErrClosed — never a send-on-closed-channel panic — and every admitted
// task must be accounted for.
func TestConcurrentSubmitDrain(t *testing.T) {
	for round := 0; round < 20; round++ {
		p, err := NewPool[int](context.Background(), Options{
			Workers: 2, Queue: 2, ShedOverflow: true, StreamOutcomes: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		admitted, refused := 0, 0
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					err := p.Submit(Task[int]{
						ID:  fmt.Sprintf("r%d-g%d-%d", round, g, i),
						Run: func(context.Context) (int, error) { return 0, nil },
					})
					mu.Lock()
					switch {
					case err == nil:
						admitted++
					case errors.Is(err, ErrClosed), errors.Is(err, ErrShed):
						refused++
					default:
						t.Errorf("unexpected submit error: %v", err)
					}
					mu.Unlock()
				}
			}(g)
		}
		rep, _ := p.Drain()
		wg.Wait()
		mu.Lock()
		gotAdmitted, gotRefused := admitted, refused
		mu.Unlock()
		// Shed submissions resolve (and count) too; refused-by-close do not.
		if rep.Done > gotAdmitted {
			t.Fatalf("round %d: %d done > %d admitted", round, rep.Done, gotAdmitted)
		}
		if gotAdmitted+gotRefused != 8*25 {
			t.Fatalf("round %d: %d+%d submissions accounted, want %d",
				round, gotAdmitted, gotRefused, 8*25)
		}
	}
}
