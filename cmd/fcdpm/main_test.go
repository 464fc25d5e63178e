package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDispatch(t *testing.T) {
	ok := [][]string{
		{"motiv"},
		{"exp1", "-seed", "1"},
		{"exp2", "-seed", "2"},
		{"levels"},
		{"hydrogen", "-cartridge", "5"},
		{"sweep", "-what", "rho"},
		{"curves", "-points", "8"},
		{"stats", "-kind", "heavytail", "-duration", "120"},
		{"verify"},
		{"ablate", "-what", "battery"},
		{"ablate", "-what", "timeout"},
		{"advise", "-kind", "synthetic"},
		{"charge", "-window", "40"},
		{"run", "-policy", "asap", "-duration", "120"},
		{"run", "-policy", "flat", "-flat", "0.5", "-duration", "120"},
		{"help"},
	}
	// Silence stdout during the dispatch tests.
	old := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() {
		os.Stdout = old
		devNull.Close()
	}()
	for _, args := range ok {
		if err := run(context.Background(), args); err != nil {
			t.Errorf("run(%v) = %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	bad := [][]string{
		{},
		{"nope"},
		{"trace", "-kind", "bogus"},
		{"run", "-policy", "bogus"},
		{"trace", "-format", "bogus"},
		{"sweep", "-what", "bogus"},
		{"ablate", "-what", "bogus"},
		{"figures", "extra"},
	}
	for _, args := range bad {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestTraceToFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	if err := run(context.Background(), []string{"trace", "-kind", "synthetic", "-duration", "100", "-out", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "idle_s,active_s,active_current_a") {
		t.Fatalf("missing CSV header: %q", string(data[:40]))
	}
	if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 3 {
		t.Fatal("too few rows")
	}
}

func TestJSONTraceRoundTripViaCLI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	if err := run(context.Background(), []string{"trace", "-kind", "camcorder", "-duration", "60", "-format", "json", "-out", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"slots\"") {
		t.Fatal("JSON trace missing slots field")
	}
}

func TestRunFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	js := `{"name": "test", "trace": {"kind": "synthetic", "duration": 120}, "policy": {"kind": "asap"}}`
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() {
		os.Stdout = old
		devNull.Close()
	}()
	if err := run(context.Background(), []string{"runfile", path}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"runfile"}); err == nil {
		t.Error("missing argument accepted")
	}
	if err := run(context.Background(), []string{"runfile", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestPlotCommands(t *testing.T) {
	old := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() {
		os.Stdout = old
		devNull.Close()
	}()
	for _, what := range []string{"fig2", "fig3", "fig7"} {
		if err := run(context.Background(), []string{"plot", "-what", what, "-window", "60"}); err != nil {
			t.Errorf("plot %s: %v", what, err)
		}
	}
	if err := run(context.Background(), []string{"plot", "-what", "bogus"}); err == nil {
		t.Error("unknown chart accepted")
	}
}

func TestBatchAndRobust(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	if err := os.WriteFile(a, []byte(`{"trace":{"kind":"synthetic","duration":120},"policy":{"kind":"asap"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte(`{"trace":{"kind":"synthetic","duration":120},"policy":{"kind":"fcdpm"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() {
		os.Stdout = old
		devNull.Close()
	}()
	if err := run(context.Background(), []string{"batch", a, b}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if err := run(context.Background(), []string{"batch"}); err == nil {
		t.Error("batch with no files accepted")
	}
	if err := run(context.Background(), []string{"batch", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("batch with missing file should surface the error")
	}
	if err := run(context.Background(), []string{"robust", "-trials", "4"}); err != nil {
		t.Fatalf("robust: %v", err)
	}
}

// TestBatchJournalResumeFollowsOperands: resuming a journaled batch
// after reordering unnamed operands, or after editing one in place,
// writes the rows a fresh run writes — a journal entry resumes only the
// row it recorded.
func TestBatchJournalResumeFollowsOperands(t *testing.T) {
	dir := t.TempDir()
	write := func(name, policy string) string {
		path := filepath.Join(dir, name)
		spec := fmt.Sprintf(`{"trace":{"kind":"synthetic","duration":120},"policy":{"kind":%q}}`, policy)
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", "asap"), write("b.json", "fcdpm")
	old := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() {
		os.Stdout = old
		devNull.Close()
	}()
	n := 0
	batchRows := func(args ...string) []byte {
		t.Helper()
		n++
		out := filepath.Join(dir, fmt.Sprintf("rows-%d.ndjson", n))
		if err := run(context.Background(), append([]string{"batch", "-rows", out}, args...)); err != nil {
			t.Fatalf("batch %v: %v", args, err)
		}
		rows, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	journal := filepath.Join(dir, "journal.jsonl")
	batchRows("-journal", journal, a, b)
	if got, want := batchRows("-journal", journal, b, a), batchRows(b, a); !bytes.Equal(got, want) {
		t.Fatalf("resumed rows after reordering differ from a fresh run:\n%s\nwant\n%s", got, want)
	}
	write("a.json", "conv")
	if got, want := batchRows("-journal", journal, b, a), batchRows(b, a); !bytes.Equal(got, want) {
		t.Fatalf("resumed rows after an in-place edit differ from a fresh run:\n%s\nwant\n%s", got, want)
	}
}

// TestRunFileBadRhoExitsOne is the regression test for the predictor
// typed-error sweep: a scenario with an out-of-range rho used to reach
// predict's constructor panic; it must now map to a run failure (exit
// code 1), not a crash.
func TestRunFileBadRhoExitsOne(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad-rho.json")
	js := `{"trace": {"kind": "synthetic", "duration": 60}, "predict": {"rho": 1.5}}`
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout, os.Stderr = devNull, devNull
	defer func() {
		os.Stdout, os.Stderr = oldOut, oldErr
		devNull.Close()
	}()
	err = run(context.Background(), []string{"runfile", path})
	if err == nil {
		t.Fatal("bad-rho scenario accepted")
	}
	if got := exitCode(err); got != 1 {
		t.Fatalf("exitCode = %d, want 1 (err: %v)", got, err)
	}
	if !strings.Contains(err.Error(), "predict.rho") {
		t.Fatalf("error does not name the offending field: %v", err)
	}
}

// TestRunFileBadTraceRecordExitsOne is the regression test for crafted
// trace records reaching the simulator: a scenario pointing at a trace
// file with a NaN duration must fail cleanly with exit code 1 (it used
// to pass validation and poison the run), as must a zero-duration slot.
func TestRunFileBadTraceRecordExitsOne(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "crafted.csv")
	if err := os.WriteFile(trace, []byte("idle_s,active_s,active_current_a\n10,NaN,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	scen := filepath.Join(dir, "scenario.json")
	js := fmt.Sprintf(`{"trace": {"kind": "file", "file": %q}}`, trace)
	if err := os.WriteFile(scen, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout, os.Stderr = devNull, devNull
	defer func() {
		os.Stdout, os.Stderr = oldOut, oldErr
		devNull.Close()
	}()
	err = run(context.Background(), []string{"runfile", scen})
	if err == nil {
		t.Fatal("crafted trace accepted")
	}
	if got := exitCode(err); got != 1 {
		t.Fatalf("exitCode = %d, want 1 (err: %v)", got, err)
	}
}

// TestRunMultiStack: the allocation study runs end to end and its
// -assert gate holds (water-filling strictly below equal-split on the
// degraded mix); bad list flags are usage errors.
func TestRunMultiStack(t *testing.T) {
	old := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() {
		os.Stdout = old
		devNull.Close()
	}()
	args := []string{"multistack", "-k", "2", "-intensity", "2", "-duration", "200", "-assert"}
	if err := run(context.Background(), args); err != nil {
		t.Errorf("run(%v) = %v", args, err)
	}
	for _, bad := range [][]string{
		{"multistack", "-k", "two"},
		{"multistack", "-intensity", ""},
		{"multistack", "extra"},
	} {
		if err := run(context.Background(), bad); exitCode(err) != 2 {
			t.Errorf("run(%v) = %v, want usage error", bad, err)
		}
	}
}

// TestRunFileMultiStackScenario: the shipped multi-stack scenario file
// builds and runs through the runfile path.
func TestRunFileMultiStackScenario(t *testing.T) {
	old := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() {
		os.Stdout = old
		devNull.Close()
	}()
	path := filepath.Join("..", "..", "scenarios", "multistack-surge.json")
	if err := run(context.Background(), []string{"runfile", path}); err != nil {
		t.Errorf("runfile %s: %v", path, err)
	}
}
