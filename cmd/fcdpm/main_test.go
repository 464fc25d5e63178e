package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fcdpm/internal/server"
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

// TestRunErrors pins that every command-line mistake exits 2: a missing
// or unknown subcommand, an unknown selector value, a missing operand,
// and a stray operand to a subcommand that takes none.
func TestRunErrors(t *testing.T) {
	bad := [][]string{
		{},
		{"nope"},
		// The fleet load harness is gone; its name is no subcommand.
		{"devicesim"},
		{"trace", "-kind", "bogus"},
		{"run", "-policy", "bogus"},
		{"charge", "-policy", "bogus"},
		{"trace", "-format", "bogus"},
		{"sweep", "-what", "bogus"},
		{"ablate", "-what", "bogus"},
		{"stats", "-kind", "bogus"},
		{"advise", "-kind", "bogus"},
		{"plot", "-what", "bogus"},
		{"runfile"},
		{"runfile", "a.json", "b.json"},
		{"batch"},
		{"faults", "-list", "extra"},
		// A value the spec reads as "use the default" is no flag value.
		{"run", "-seed", "0"},
		{"trace", "-seed", "0"},
		{"stats", "-seed", "0"},
		{"advise", "-seed", "0"},
		{"charge", "-seed", "0"},
		{"run", "-cmax", "0"},
		{"run", "-reserve", "0"},
		{"run", "-flat", "0"},
		// -retries is no flag: a run is deterministic, so no command
		// retries one. The other arguments are valid, but for serve's
		// unusable -addr, which stops a serve that took the flag from
		// serving.
		{"batch", "-retries", "1", "../../scenarios/serve-quick.json"},
		{"faults", "-list", "-retries", "1"},
		{"serve", "-retries", "1", "-addr", "127.0.0.1:-1"},
	}
	// Every subcommand but runfile and batch takes no operand.
	for _, sub := range subcommands {
		if sub != "runfile" && sub != "batch" {
			bad = append(bad, []string{sub, "extra"})
		}
	}
	// run prints the usage text and exitCode the error on stderr.
	old := os.Stderr
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = devNull
	defer func() {
		os.Stderr = old
		devNull.Close()
	}()
	for _, args := range bad {
		name := strings.Join(args, " ")
		if name == "" {
			name = "no-subcommand"
		}
		t.Run(name, func(t *testing.T) {
			if code := exitCode(run(context.Background(), args)); code != 2 {
				t.Errorf("run(%q) exits %d, want 2", args, code)
			}
		})
	}
}

// TestRunFlagsMeanTheSpec: `run` builds its flags into a spec, so for
// every policy and trace kind it reports the rows `runfile` reports for
// the spec with the same fields.
func TestRunFlagsMeanTheSpec(t *testing.T) {
	dir := t.TempDir()
	rows := []string{"fuel (stack A-s)", "avg stack current (A)", "bled charge (A-s)",
		"deficit charge (A-s)", "final storage (A-s)"}
	for _, pol := range []string{"conv", "asap", "fcdpm", "flat"} {
		// Selectors are case-insensitive, so "Synthetic" also picks the
		// synthetic device.
		for _, kind := range []string{"camcorder", "synthetic", "Synthetic"} {
			spec := fmt.Sprintf(`{"trace":{"kind":%q,"seed":3,"duration":300},"device":{"kind":%q},"policy":{"kind":%q}}`,
				kind, kind, pol)
			path := filepath.Join(dir, pol+"-"+kind+".json")
			if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
				t.Fatal(err)
			}
			flags := runTable(t, "run", "-policy", pol, "-kind", kind, "-seed", "3", "-duration", "300")
			file := runTable(t, "runfile", path)
			for _, row := range rows {
				if flags[row] == "" || flags[row] != file[row] {
					t.Errorf("%s on %s: run reports %s %q, runfile %q", pol, kind, row, flags[row], file[row])
				}
			}
		}
	}
}

// runTable runs a subcommand and returns its table rows by label.
func runTable(t *testing.T, args ...string) map[string]string {
	t.Helper()
	out := captureStdout(t, func() {
		if err := run(context.Background(), args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	})
	rows := make(map[string]string)
	for _, line := range strings.Split(out, "\n") {
		if i := strings.LastIndex(line, "  "); i > 0 {
			rows[strings.TrimSpace(line[:i])] = strings.TrimSpace(line[i:])
		}
	}
	return rows
}

// subcommands lists every subcommand run dispatches.
var subcommands = []string{
	"figures", "curves", "trace", "run", "exp1", "exp2", "motiv", "sweep",
	"oracle", "hydrogen", "levels", "plot", "runfile", "faults", "stats",
	"verify", "ablate", "advise", "batch", "serve", "dispatchd", "workd",
	"bench", "chaos", "version", "robust", "charge", "multistack",
}

// TestSubcommandHelp pins that -h on every subcommand prints its flags
// and exits 0 without running anything.
func TestSubcommandHelp(t *testing.T) {
	old := os.Stderr
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = devNull
	defer func() {
		os.Stderr = old
		devNull.Close()
	}()
	for _, sub := range subcommands {
		t.Run(sub, func(t *testing.T) {
			if code := exitCode(run(context.Background(), []string{sub, "-h"})); code != 0 {
				t.Errorf("%s -h exits %d, want 0", sub, code)
			}
		})
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

// TestBatchRowOfUnnamedSpecMatchesServedBody: `batch -rows` of an
// unnamed spec writes the body `serve` answers for it, so a row follows
// from the spec alone and not from its operand position.
func TestBatchRowOfUnnamedSpecMatchesServedBody(t *testing.T) {
	const spec = `{"trace":{"kind":"synthetic","seed":6,"duration":120}}`
	dir := t.TempDir()
	path, rows := filepath.Join(dir, "unnamed.json"), filepath.Join(dir, "rows.ndjson")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	captureStdout(t, func() {
		if err := run(context.Background(), []string{"batch", "-rows", rows, path}); err != nil {
			t.Fatalf("batch: %v", err)
		}
	})
	got, err := os.ReadFile(rows)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := server.New(server.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("POST: %d %v %s", resp.StatusCode, err, want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch row differs from the served body:\n%s\n%s", got, want)
	}
}

// TestBatchLoadErrorNamesFile: batch loads every operand before it runs
// any, and an operand that does not parse fails the batch with an error
// that names it.
func TestBatchLoadErrorNamesFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(good, []byte(`{"trace":{"kind":"synthetic","duration":120}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(`{"trace":`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"batch", good, bad})
	if got := exitCodeSilently(err); got != 1 || !strings.HasPrefix(err.Error(), bad+": config: ") {
		t.Fatalf("batch exits %d with %v, want 1 and an error naming %s", got, err, bad)
	}
}

// TestEveryScenarioIsASpec: every file under scenarios/ is a scenario
// spec, so one batch over all of them loads, runs and exits 0. Each spec
// is seeded, so runfile prints it byte-identically twice.
func TestEveryScenarioIsASpec(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("glob scenarios/*.json: %v, %v", paths, err)
	}
	captureStdout(t, func() { err = run(context.Background(), append([]string{"batch"}, paths...)) })
	if code := exitCodeSilently(err); code != 0 {
		t.Fatalf("batch %v exits %d: %v", paths, code, err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			var outs [2]string
			for i := range outs {
				var err error
				outs[i] = captureStdout(t, func() { err = run(context.Background(), []string{"runfile", path}) })
				if err != nil {
					t.Fatalf("runfile %s: %v", path, err)
				}
			}
			if outs[0] == "" || outs[0] != outs[1] {
				t.Fatalf("runfile %s is not reproducible:\n%s\n---\n%s", path, outs[0], outs[1])
			}
		})
	}
}

// TestRunnerBlockSpecExitsOne: a spec carries no orchestration
// settings, so batch and runfile refuse a spec that still carries the
// removed runner block, naming the field, with exit code 1.
func TestRunnerBlockSpecExitsOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runner.json")
	spec := `{"trace":{"kind":"synthetic","duration":600},"runner":{"retries":2}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"batch", path}, {"runfile", path}} {
		var err error
		captureStdout(t, func() { err = run(context.Background(), args) })
		if got := exitCodeSilently(err); got != 1 || !strings.Contains(err.Error(), `unknown field "runner"`) {
			t.Errorf("%v exits %d with %v, want 1 and an unknown-field error", args, got, err)
		}
	}
}

// TestFlagLine: a daemon's startup line lists every flag at its
// effective value, set or default, in name order.
func TestFlagLine(t *testing.T) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.Int("workers", 0, "")
	fs.String("cache-dir", "", "")
	fs.Float64("drain", 30, "")
	fs.String("addr", "127.0.0.1:8080", "")
	if err := fs.Parse([]string{"-workers", "2", "-addr", "127.0.0.1:9090"}); err != nil {
		t.Fatal(err)
	}
	want := `fcdpm serve flags: -addr=127.0.0.1:9090 -cache-dir="" -drain=30 -workers=2`
	if got := flagLine(fs); got != want {
		t.Fatalf("flagLine = %q, want %q", got, want)
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

// TestRunFileOversizedSpecExitsOne: a spec asking for more work than
// the caps admit fails with exit code 1 before anything is built; each
// of these once ran the process out of memory.
func TestRunFileOversizedSpecExitsOne(t *testing.T) {
	dir := t.TempDir()
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
	for i, spec := range []string{
		`{"trace":{"kind":"synthetic","duration":1e11}}`,
		`{"trace":{"kind":"synthetic","duration":600},"faults":{"random":1000000000}}`,
		`{"trace":{"kind":"synthetic","duration":600},"policy":{"kind":"quantized","levels":1000000000}}`,
	} {
		path := filepath.Join(dir, fmt.Sprintf("oversized-%d.json", i))
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		if got := exitCode(run(context.Background(), []string{"runfile", path})); got != 1 {
			t.Errorf("runfile %s exits %d, want 1", spec, got)
		}
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
