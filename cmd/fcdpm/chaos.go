package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"fcdpm/internal/chaos"
)

// cmdChaos runs the deterministic fault-injection harness: N in-process
// dispatcher + two-worker sweep trials, each under the fault schedule
// its seed fully determines, each ending with the fabric's invariant
// checks. Exit status 1 if any seed fails; a failing seed's scratch
// dir is kept and named so `fcdpm chaos -trials 1 -seed S` reproduces
// the exact schedule.
func cmdChaos(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	trials := fs.Int("trials", 5, "number of seeded trials")
	seed := fs.Uint64("seed", 1, "first seed (trials run seed..seed+trials-1)")
	journal := fs.String("journal", "", "append one JSON line per trial to this file")
	verbose := fs.Bool("v", false, "forward fabric log lines to stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	res, err := chaos.Run(ctx, chaos.Options{
		Trials:  *trials,
		Seed:    *seed,
		Journal: *journal,
		Verbose: *verbose,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
		Out: os.Stdout,
	})
	if err != nil {
		return err
	}
	if !res.OK() {
		return fmt.Errorf("chaos: %d of %d seed(s) failed invariants", len(res.Failing), res.Trials)
	}
	return nil
}
