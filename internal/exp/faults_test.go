package exp

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"fcdpm/internal/runner"
)

// classRows returns the rows of one fault class in policy order.
func classRows(r *FaultSweepResult, class string) []FaultRow {
	var out []FaultRow
	for _, row := range r.Rows {
		if row.Class == class {
			out = append(out, row)
		}
	}
	return out
}

func TestFaultSweep(t *testing.T) {
	res, err := FaultSweep(context.Background(), "test", 1, runner.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// nominal + 7 fault classes, 3 policies each.
	if want := 8 * 3; len(res.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(res.Rows), want)
	}
	for _, r := range classRows(res, "nominal") {
		if r.Fallbacks != 0 || r.Deficit != 0 || r.Shed != 0 || !r.Survived {
			t.Fatalf("nominal row not clean: %+v", r)
		}
	}
	drop := classRows(res, "stack-dropout")
	if len(drop) != 3 {
		t.Fatalf("dropout rows: %d", len(drop))
	}
	for _, r := range drop {
		if r.FinalPolicy != "load-shed" {
			t.Fatalf("a total dropout must end in load-shed: %+v", r)
		}
		if r.Shed <= 0 {
			t.Fatalf("dropout without shed charge: %+v", r)
		}
	}
	// The sweep is seed-reproducible.
	res2, err := FaultSweep(context.Background(), "test", 1, runner.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, res2.Rows) {
		t.Fatal("same seed produced different sweep rows")
	}
}

func TestFaultSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FaultSweep(ctx, "test", 1, runner.Options{}, nil); err == nil {
		t.Fatal("canceled sweep returned no error")
	}
}

// TestFaultSweepJournalResume interrupts a journaled sweep before any
// cell runs, completes it against the same journal, and runs it again:
// the interrupted call reports runner.ErrInterrupted with its pending
// cells, the completion loses no rows, and the re-run restores every
// cell from the journal with the same physics.
func TestFaultSweepJournalResume(t *testing.T) {
	opts := runner.Options{Workers: 2, Journal: filepath.Join(t.TempDir(), "sweep.jsonl")}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial, err := FaultSweep(ctx, "engine-a", 3, opts, nil)
	if !errors.Is(err, runner.ErrInterrupted) {
		t.Fatalf("canceled sweep: err = %v, want runner.ErrInterrupted", err)
	}
	if partial == nil || partial.Interrupted == 0 {
		t.Fatalf("partial result = %+v", partial)
	}

	first, err := FaultSweep(context.Background(), "engine-a", 3, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Interrupted != 0 || first.Resumed != 0 || len(first.Rows) == 0 {
		t.Fatalf("completion: %d rows, %d resumed, %d interrupted",
			len(first.Rows), first.Resumed, first.Interrupted)
	}
	if n := len(classRows(first, "nominal")); n != 3 {
		t.Fatalf("nominal class rows = %d, want 3", n)
	}

	second, err := FaultSweep(context.Background(), "engine-a", 3, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != len(second.Rows) {
		t.Fatalf("re-run resumed %d of %d cells", second.Resumed, len(second.Rows))
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatalf("rows drifted across resume:\n%+v\n%+v", first.Rows, second.Rows)
	}
}

// TestFaultSweepJournalEngineTag: a journal resumes only the cells its
// own engine wrote. A sweep journaled under one engine tag and re-run on
// the same journal under another resumes nothing and simulates every
// cell; the first tag still resumes every cell afterwards, with the same
// physics throughout.
func TestFaultSweepJournalEngineTag(t *testing.T) {
	opts := runner.Options{Workers: 2, Journal: filepath.Join(t.TempDir(), "sweep.jsonl")}
	first, err := FaultSweep(context.Background(), "engine-a", 1, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Resumed != 0 || len(first.Rows) == 0 {
		t.Fatalf("fresh journal: %d rows, %d resumed", len(first.Rows), first.Resumed)
	}
	for _, step := range []struct {
		engine  string
		resumed bool
	}{{"engine-b", false}, {"engine-a", true}} {
		again, err := FaultSweep(context.Background(), step.engine, 1, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if step.resumed {
			want = len(again.Rows)
		}
		if again.Resumed != want {
			t.Fatalf("re-run under %s resumed %d of %d cells, want %d",
				step.engine, again.Resumed, len(again.Rows), want)
		}
		if !reflect.DeepEqual(first.Rows, again.Rows) {
			t.Fatalf("rows drifted across re-runs under %s:\n%+v\n%+v", step.engine, first.Rows, again.Rows)
		}
	}
}
