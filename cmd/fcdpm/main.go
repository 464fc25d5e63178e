// Command fcdpm is the command-line front end of the library: it generates
// workload traces, dumps the fuel-cell characteristic curves, runs single
// policy simulations and scenario files, reproduces the paper's
// experiments, and serves and distributes scenario runs. `fcdpm figures`
// writes the whole reproduction record (every table and figure
// EXPERIMENTS.md cites) under out/; exp1, exp2, motiv and hydrogen print
// single artifacts of it through the same renderers.
//
// Usage:
//
//	fcdpm <subcommand> [flags]
//
// `fcdpm help` lists every subcommand, and `fcdpm <subcommand> -h` its
// flags. The flags of run, trace, stats, advise and charge fill a
// scenario spec (see internal/config), so they accept what the spec
// accepts. A number a command cannot use is a usage error, not a
// silent substitute: a zero the spec reads as "use the default", an
// empty chart window, a chart narrower than 16 columns, a DP grid,
// curve or trial count too small to run.
//
// Exit status: 0 on success, 1 on a run failure, 2 on command-line
// usage errors, 3 when a batch or sweep was interrupted but left a
// checkpoint journal it can resume from.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"fcdpm/internal/runner"
)

// usageError marks command-line misuse — unknown subcommand, malformed
// flags, missing operands. main maps it to exit code 2 so scripts can
// tell "you called me wrong" from "the run failed".
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

func main() {
	// Ctrl-C / SIGTERM cancels the context; long runs (sweeps, batch
	// scenarios) stop between slots instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	os.Exit(exitCode(err))
}

// exitCode reports err on stderr and maps it to the process exit
// status: 0 success (including explicit -h/--help), 1 run failure,
// 2 usage error, 3 interrupted-but-resumable batch. Run failures print
// with %+v so a panic captured by the run engine shows its stack.
func exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	var ue *usageError
	if errors.As(err, &ue) {
		fmt.Fprintln(os.Stderr, "fcdpm:", err)
		return 2
	}
	if errors.Is(err, runner.ErrInterrupted) {
		fmt.Fprintln(os.Stderr, "fcdpm:", err)
		return 3
	}
	fmt.Fprintf(os.Stderr, "fcdpm: %+v\n", err)
	return 1
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage()
		return usagef("missing subcommand")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "figures":
		return cmdFigures(ctx, rest)
	case "curves":
		return cmdCurves(rest)
	case "trace":
		return cmdTrace(rest)
	case "run":
		return cmdRun(rest)
	case "exp1":
		return cmdExp(ctx, rest, 1)
	case "exp2":
		return cmdExp(ctx, rest, 2)
	case "motiv":
		return cmdMotiv(rest)
	case "sweep":
		return cmdSweep(ctx, rest)
	case "oracle":
		return cmdOracle(ctx, rest)
	case "hydrogen":
		return cmdHydrogen(ctx, rest)
	case "levels":
		return cmdLevels(ctx, rest)
	case "plot":
		return cmdPlot(ctx, rest)
	case "runfile":
		return cmdRunFile(ctx, rest)
	case "faults":
		return cmdFaults(ctx, rest)
	case "stats":
		return cmdStats(rest)
	case "verify":
		return cmdVerify(ctx, rest)
	case "ablate":
		return cmdAblate(ctx, rest)
	case "advise":
		return cmdAdvise(rest)
	case "batch":
		return cmdBatch(ctx, rest)
	case "serve":
		return cmdServe(ctx, rest)
	case "dispatchd":
		return cmdDispatchd(ctx, rest)
	case "workd":
		return cmdWorkd(ctx, rest)
	case "chaos":
		return cmdChaos(ctx, rest)
	case "version":
		return cmdVersion(rest)
	case "robust":
		return cmdRobust(ctx, rest)
	case "charge":
		return cmdCharge(rest)
	case "multistack":
		return cmdMultiStack(ctx, rest)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return usagef("unknown subcommand %q", cmd)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fcdpm <subcommand> [flags]

subcommands:
  figures  regenerate every paper table and figure, the ablations and the
           beyond-paper studies as CSV, text and SVG files under -out
           (default out/), with a summary.txt
  curves   dump the FC stack I-V-P curve (Fig 2) and efficiency curves (Fig 3)
  trace    generate a workload trace (camcorder MPEG, Exp 2 synthetic, or
           any other generated -kind)
  run      simulate one policy over a trace and report fuel/lifetime
  exp1     reproduce Table 2 (Experiment 1, camcorder trace)
  exp2     reproduce Table 3 (Experiment 2, synthetic trace)
  motiv    reproduce the §3.2 / Fig 4 motivational example
  sweep    run an ablation sweep (capacity, beta, or rho); with -remote,
           submit scenario files to a dispatcher as a distributed sweep,
           tail its progress, and fetch the result rows
  oracle   offline dynamic-programming schedule (feasible on a storage
           grid, so an upper bound on the optimum) vs online FC-DPM
  hydrogen Table 2 in physical hydrogen terms (grams, litres, cartridge life)
  levels   discrete FC output-level sweep (multi-level config of [11])
  plot     ASCII chart of fig2, fig3, or fig7 in the terminal
  runfile  run a JSON scenario file (see scenarios/ for examples)
  stats    summary statistics of a generated trace
  verify   run the reproduction conformance suite (paper vs measured)
  ablate   run one ablation (thermal, actuation, battery, aggregation,
           calibration, slew, mpc, timeout, storage, dpm)
  advise   hybrid sizing advice for a workload/device pair
  batch    run several JSON scenarios concurrently, each once, and
           tabulate them; with -journal the batch checkpoints each
           finished scenario and a re-run resumes where it was
           interrupted
  robust   Monte-Carlo robustness of the FC-DPM saving under model
           uncertainty
  serve    run the simulation service: an HTTP/JSON API that executes
           scenario specs on a shared bounded pool, streams progress as
           NDJSON, and answers repeated scenarios byte-identically from
           a content-addressed result cache (see README "Serving")
  dispatchd run the sweep dispatcher: a durable shard queue that leases
           work to workd daemons, reclaims expired leases, journals
           every transition, and survives restarts mid-sweep
           (see README "Distributed sweeps")
  workd    run a worker daemon: lease shards from a dispatcher, execute
           them locally, push results at-least-once, spool to disk when
           the dispatcher is unreachable
  chaos    run seeded fault-injection trials against an in-process
           dispatcher + two-worker fabric (network cuts, 503 storms,
           torn journal appends, disk-full, bit-rot, clock skew, one
           hard restart per trial) and check the fabric's invariants;
           a failing seed reproduces with -trials 1 -seed S
  version  print the build identity (module version, VCS revision, Go)
  charge   ASCII plot of the storage charge trajectory under a policy
  multistack
           K-stack rack allocation study on the datacenter racksurge
           workload: equal-split vs water-filling vs health-rotation
           across rack sizes and surge intensities; -assert fails the
           process unless water-filling strictly beats equal-split
  faults   list fault classes and run the per-policy fault sweep
           (fuel / survival under each fault class, with graceful
           degradation through the FC-DPM -> ASAP -> Conv -> load-shed
           fallback chain); supports -journal resume like batch

exit status: 0 ok, 1 run failure, 2 usage error, 3 interrupted but
resumable (re-run with the same -journal to continue).

serve, dispatchd and workd log every flag's effective value at startup.

run 'fcdpm <subcommand> -h' for flags.`)
}
