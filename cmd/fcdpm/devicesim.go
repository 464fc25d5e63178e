package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"fcdpm/internal/devicesim"
)

// cmdDeviceSim runs the fleet-scale load harness: -count virtual
// devices submitting deterministic scenario runs to a `fcdpm serve`
// target for -stop-after seconds, then draining and printing the
// client-side latency/shed/coalesce/cache report. -plan prints the
// deterministic population + submission schedule as NDJSON without
// contacting the server (the byte-reproducibility surface). Sheds are
// counted, not fatal; any non-shed submit error fails the run (exit 1).
func cmdDeviceSim(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("devicesim", flag.ContinueOnError)
	count := fs.Int("count", 100, "number of concurrent virtual devices")
	stopAfter := fs.Float64("stop-after", 30, "scheduling window in seconds; the fleet drains afterwards")
	target := fs.String("target", "http://127.0.0.1:8080", "fcdpm serve base URL")
	cadence := fs.Float64("cadence", 2, "mean per-device submit interval in seconds (jittered 0.5x-1.5x)")
	seed := fs.Uint64("seed", 1, "fleet seed; fixes the population and submission schedule")
	metrics := fs.String("metrics", "", "serve the harness's own /metrics at this address (empty: off)")
	configPath := fs.String("config", "", "device template JSON (default: built-in mix; see scenarios/devicesim.json)")
	plan := fs.Bool("plan", false, "print the deterministic population + schedule as NDJSON and exit")
	jsonOut := fs.String("json", "", "also write the final report as JSON to this file ('-' for stdout)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *count <= 0 {
		return usagef("devicesim: -count must be positive, got %d", *count)
	}
	tmpl := devicesim.DefaultTemplate()
	if *configPath != "" {
		var err error
		if tmpl, err = devicesim.LoadTemplateFile(*configPath); err != nil {
			return err
		}
	}
	opts := devicesim.Options{
		Target:    *target,
		Count:     *count,
		Cadence:   secondsFlag(*cadence),
		StopAfter: secondsFlag(*stopAfter),
		Seed:      *seed,
		Template:  tmpl,
		Addr:      *metrics,
		Out:       os.Stdout,
		Logf:      log.New(os.Stderr, "", log.LstdFlags).Printf,
	}
	if *plan {
		return opts.WritePlan(os.Stdout)
	}
	rep, err := devicesim.Run(ctx, opts)
	if err != nil {
		return err
	}
	if *jsonOut != "" {
		w, closeFn, err := outWriter(*jsonOut)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(w); err != nil {
			closeFn()
			return err
		}
		if err := closeFn(); err != nil {
			return err
		}
	}
	if rep.Failed > 0 {
		return fmt.Errorf("devicesim: %d submissions failed for non-shed reasons", rep.Failed)
	}
	return nil
}
