package main

import (
	"flag"
	"fmt"

	"fcdpm/internal/perf"
)

// cmdBench runs the benchmark-regression suite (internal/perf): it
// measures the micro- and macro-benchmarks, writes a BENCH_<timestamp>.json
// artifact into -out, and with -compare diffs the fresh run against the
// latest artifact already in -out, failing beyond -threshold.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	out := fs.String("out", "bench", "directory for BENCH_*.json artifacts")
	repeat := fs.Int("repeat", 3, "repetitions per benchmark (best one is kept)")
	short := fs.Bool("short", false, "micro-benchmarks only (skip full-trace runs)")
	compare := fs.Bool("compare", false, "compare against the latest artifact in -out; non-zero exit on regression")
	threshold := fs.Float64("threshold", 0.15, "relative time-regression gate for -compare (0.15 = +15%)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *threshold <= 0 {
		return usagef("bench: -threshold must be positive, got %v", *threshold)
	}

	// Load the baseline before writing the new artifact, so the fresh run
	// never compares against itself.
	baseline, basePath, err := perf.Latest(*out)
	if err != nil {
		return err
	}

	art, err := perf.Run(*repeat, *short)
	if err != nil {
		return err
	}
	path, err := perf.Write(*out, art)
	if err != nil {
		return err
	}

	fmt.Printf("benchmarks (%s, %s/%s, best of %d):\n", art.GoVersion, art.GOOS, art.GOARCH, art.Repeat)
	for _, m := range art.Metrics {
		line := fmt.Sprintf("  %-16s %12.0f ns/op  %6d B/op  %4d allocs/op",
			m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
		if m.SlotsPerSec > 0 {
			line += fmt.Sprintf("  %10.0f slots/sec  %7.0f ns/slot", m.SlotsPerSec, 1e9/m.SlotsPerSec)
		}
		fmt.Println(line)
	}
	fmt.Println("wrote", path)

	if !*compare {
		return nil
	}
	if baseline == nil {
		fmt.Println("no previous artifact to compare against; this run is the baseline")
		return nil
	}
	deltas, regressed, err := perf.Compare(baseline, art, *threshold)
	if err != nil {
		// A baseline from another host, or zero benchmark-name overlap:
		// the gate has nothing valid to check and must fail loudly rather
		// than pass vacuously.
		return fmt.Errorf("bench: %w (baseline %s)", err, basePath)
	}
	fmt.Println("vs", basePath+":")
	for _, d := range deltas {
		fmt.Println(" ", d)
	}
	if regressed {
		return fmt.Errorf("bench: regression beyond %.0f%% against %s", 100**threshold, basePath)
	}
	return nil
}
