// Command perfbench is the end-to-end and per-layer benchmark of the
// serving path. It starts the real internal/server in-process on a
// loopback port with a fixed 2-worker pool, drives it with one of four
// workloads from 2 closed-loop clients over 2 connections, checks every
// response against a local oracle and the client's books against
// /v1/stats, and prints its metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 8 --trace 0
//
// Workloads: serve-miss, serve-hit, sweep-batch, rack-surge (see
// workloads.go and perfbench/README.md). With --trace 0 the metrics are
// the end-to-end ones, measured with tracing off. With --trace 1 the
// window runs twice, untraced then traced, and the inputs of the seed are
// replayed through each layer's public functions with one span per call;
// the metrics are the per-layer ones, and the stage table, the tracing
// overhead and the span file (.bench_build/) come with them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fcdpm/internal/version"
)

const (
	// setups is how many times the server is started (and serve-hit's
	// cache warmed); setup_s is their median.
	setups = 11
	// warmupTime is the untimed load before the window, so lazy
	// initialization and heap growth finish before timing.
	warmupTime = time.Second
	// runBudget bounds a whole invocation; at the deadline every phase
	// stops, the server shuts down and the run fails.
	runBudget = 170 * time.Second
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "serve-miss, serve-hit, sweep-batch or rack-surge")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed sends the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed window, seconds")
	trace := flag.Int("trace", 0, "1: trace the window and report per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload serve-miss|serve-hit|sweep-batch|rack-surge --seed N --seconds S --trace 0|1\n")
		return 2
	}
	// SIGINT, SIGTERM and the run budget all cancel ctx; every phase
	// returns on it and the deferred shutdown in bench.run stops the
	// server before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), engine: version.Engine()}
	res, err := b.run(ctx, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
