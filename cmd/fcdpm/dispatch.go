package main

import (
	"context"
	"flag"
	"log"
	"os"

	"fcdpm/internal/dispatch"
)

// cmdDispatchd runs the sweep dispatcher until the signal context
// cancels, then drains: admission and leasing answer 503 + Retry-After
// while workers' in-flight completions are still accepted. With -state
// the queue is journaled (fsync + rename) so a restart — graceful or a
// kill -9 — resumes every accepted sweep without losing or duplicating
// a shard.
func cmdDispatchd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("dispatchd", flag.ContinueOnError)
	addr := fs.String("addr", dispatch.DefaultAddr, "listen address")
	state := fs.String("state", "", "durable state directory (journal + result cache); empty runs ephemeral")
	lease := fs.Float64("lease", dispatch.DefaultLeaseTTL.Seconds(), "shard lease TTL in seconds; a worker silent this long forfeits its shards")
	cacheMB := fs.Int64("cache-mb", dispatch.DefaultCacheBytes>>20, "result-cache memory bound in MiB")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	logger.Print(flagLine(fs))
	return dispatch.Serve(ctx, dispatch.Options{
		Addr:       *addr,
		StateDir:   *state,
		LeaseTTL:   secondsFlag(*lease),
		CacheBytes: *cacheMB << 20,
		Logf:       logger.Printf,
	})
}

// cmdWorkd runs a worker daemon: lease shards from the dispatcher,
// execute them on a local pool, push results at-least-once. On SIGTERM
// it stops leasing, finishes in-flight shards, and delivers (or spools)
// their results before exiting.
func cmdWorkd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("workd", flag.ContinueOnError)
	url := fs.String("dispatcher", "http://"+dispatch.DefaultAddr, "dispatcher base URL")
	name := fs.String("name", "", "worker name reported to the dispatcher (default host-pid)")
	workers := fs.Int("workers", 0, "concurrent shard executions (0: GOMAXPROCS)")
	timeout := fs.Float64("timeout", 0, "per-shard execution timeout in seconds (0: none)")
	spool := fs.String("spool", "", "disk spool directory for results the dispatcher could not accept; empty disables spooling")
	addr := fs.String("addr", "", "metrics listen address (empty: no metrics endpoint)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	logger.Print(flagLine(fs))
	return dispatch.RunWorker(ctx, dispatch.WorkerOptions{
		Dispatcher: *url,
		Name:       *name,
		Workers:    *workers,
		RunTimeout: secondsFlag(*timeout),
		SpoolDir:   *spool,
		Addr:       *addr,
		Logf:       logger.Printf,
	})
}

// remoteSweep submits the scenario files to a dispatcher and follows
// the sweep to completion. Progress events stream to stderr as NDJSON;
// -rows writes the final result rows (byte-identical to a local
// `fcdpm batch -rows` of the same specs) to a file or "-" for stdout.
func remoteSweep(ctx context.Context, remote, name, rows string, paths []string) error {
	req := dispatch.SweepRequest{Name: name}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		req.Scenarios = append(req.Scenarios, b)
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	return dispatch.SubmitSweep(ctx, dispatch.ClientOptions{
		Base:   remote,
		Name:   name,
		Rows:   rows,
		Events: os.Stderr,
		Logf:   logger.Printf,
	}, req)
}
