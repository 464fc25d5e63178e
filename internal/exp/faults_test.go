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
	res, err := FaultSweep(context.Background(), 1, runner.Options{}, nil)
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
	res2, err := FaultSweep(context.Background(), 1, runner.Options{}, nil)
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
	if _, err := FaultSweep(ctx, 1, runner.Options{}, nil); err == nil {
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
	partial, err := FaultSweep(ctx, 3, opts, nil)
	if !errors.Is(err, runner.ErrInterrupted) {
		t.Fatalf("canceled sweep: err = %v, want runner.ErrInterrupted", err)
	}
	if partial == nil || partial.Interrupted == 0 {
		t.Fatalf("partial result = %+v", partial)
	}

	first, err := FaultSweep(context.Background(), 3, opts, nil)
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

	second, err := FaultSweep(context.Background(), 3, opts, nil)
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
