package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"fcdpm/internal/runner"
)

// TestExitCodeMapping pins the CLI's exit-status contract: 0 ok/help,
// 1 run failure, 2 usage, 3 interrupted-but-resumable — including
// interruptions wrapped by intermediate layers (sweep facade, server
// drain), which must still map to 3 through errors.Is.
func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{flag.ErrHelp, 0},
		{usagef("bad flags"), 2},
		{fmt.Errorf("outer: %w", usagef("inner")), 2},
		{errors.New("run blew up"), 1},
		{runner.ErrInterrupted, 3},
		{fmt.Errorf("server: drain: %w", runner.ErrInterrupted), 3},
		{&runner.RunError{ID: "x", Err: errors.New("boom")}, 1},
		{&runner.RunError{ID: "x", Err: runner.ErrInterrupted}, 3},
	}
	// exitCode reports on stderr; silence it for the table.
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
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestCmdVersion checks both output modes of `fcdpm version`.
func TestCmdVersion(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run(context.Background(), []string{"version"}); err != nil {
			t.Errorf("version: %v", err)
		}
	})
	if !strings.HasPrefix(out, "fcdpm ") {
		t.Fatalf("version output %q", out)
	}
	out = captureStdout(t, func() {
		if err := run(context.Background(), []string{"version", "-json"}); err != nil {
			t.Errorf("version -json: %v", err)
		}
	})
	var info struct {
		Module string `json:"module"`
		Go     string `json:"go"`
	}
	if err := json.Unmarshal([]byte(out), &info); err != nil {
		t.Fatalf("version -json output %q: %v", out, err)
	}
	if info.Module == "" || info.Go == "" {
		t.Fatalf("incomplete build info: %q", out)
	}
}

// TestCmdServeLifecycle drives `fcdpm serve` the way the CI smoke does:
// boot, POST a scenario twice (second must be a cache hit), then cancel
// the context (the SIGTERM path) and require a clean exit.
func TestCmdServeLifecycle(t *testing.T) {
	const addr = "127.0.0.1:38472"
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"serve", "-addr", addr, "-workers", "1"})
	}()
	base := "http://" + addr
	spec := `{"trace":{"kind":"synthetic","seed":5,"duration":120}}`
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("serve never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	post := func() (string, string) {
		resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("POST: %d %s", resp.StatusCode, b)
		}
		return string(b), resp.Header.Get("X-Fcdpm-Cache")
	}
	b1, c1 := post()
	b2, c2 := post()
	if c1 != "miss" || c2 != "hit" {
		t.Fatalf("cache headers: %q then %q, want miss then hit", c1, c2)
	}
	if b1 != b2 {
		t.Fatal("cached response not byte-identical")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve drain: %v (exit code %d, want 0)", err, exitCodeSilently(err))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not drain")
	}
	if args := []string{"serve", "extra-operand"}; exitCodeSilently(run(context.Background(), args)) != 2 {
		t.Error("serve with operands should be a usage error")
	}
}

// exitCodeSilently maps err like main does, without writing stderr.
func exitCodeSilently(err error) int {
	old := os.Stderr
	devNull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stderr = devNull
	defer func() {
		os.Stderr = old
		devNull.Close()
	}()
	return exitCode(err)
}

// captureStdout runs fn with stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	fn()
	w.Close()
	os.Stdout = old
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
