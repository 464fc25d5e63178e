package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"fcdpm/internal/report"
	"fcdpm/internal/server"
	"fcdpm/internal/version"
)

// cmdServe runs the simulation service until the signal context cancels
// (Ctrl-C / SIGTERM), then drains: in-flight runs finish, new admissions
// get 503. A clean drain exits 0; a forced one maps to exit 3 through
// the same runner.ErrInterrupted discipline as batch and faults.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", server.DefaultAddr, "listen address")
	queue := fs.Int("queue", 0, "admission queue bound (0: 2x workers); overflow is shed with 503")
	cacheMB := fs.Int64("cache-mb", 64, "memory result-cache bound in MiB (negative disables)")
	cacheDir := fs.String("cache-dir", "", "disk result-cache directory; cached reports survive restarts (empty: memory only)")
	drain := fs.Float64("drain", 30, "graceful-shutdown drain budget in seconds")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes runtime internals; keep off in untrusted networks)")
	pf := addPoolFlags(fs, "run")
	// The pool's deadline covers one task, and a sweep chunk is one task.
	fs.Lookup("timeout").Usage = "wall-clock deadline in seconds of one run, or of one sweep chunk (up to 64 distinct cells, run one after another) (0: none)"
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	ro := pf.options()
	logger := log.New(os.Stderr, "", log.LstdFlags)
	logger.Print(flagLine(fs))
	return server.Serve(ctx, server.Options{
		Addr:         *addr,
		Workers:      ro.Workers,
		Queue:        *queue,
		RunTimeout:   ro.Timeout,
		DrainTimeout: secondsFlag(*drain),
		CacheBytes:   *cacheMB << 20,
		CacheDir:     *cacheDir,
		EnablePprof:  *pprofOn,
		Logf:         logger.Printf,
	})
}

// cmdVersion prints the build identity: module version, VCS revision,
// and toolchain — the same facts /healthz serves and the cache key pins.
func cmdVersion(args []string) error {
	fs := flag.NewFlagSet("version", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit build info as JSON")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	info := version.Get()
	if *asJSON {
		b, err := report.StableJSON(info)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	fmt.Println(info.String())
	return nil
}
