package main

import (
	"flag"

	"fcdpm/internal/runner"
)

// poolFlags are the orchestration flags shared by every subcommand that
// runs simulations on the resilient pool (batch, faults, serve), so the
// knobs spell and behave identically everywhere.
type poolFlags struct {
	workers *int
	timeout *float64
	journal *string
}

// addPoolFlags registers -workers/-timeout on fs. The noun ("scenario",
// "cell", "run") keeps each command's help text concrete.
func addPoolFlags(fs *flag.FlagSet, noun string) *poolFlags {
	return &poolFlags{
		workers: fs.Int("workers", 0, "concurrent "+noun+"s (0: GOMAXPROCS)"),
		timeout: fs.Float64("timeout", 0, "per-"+noun+" wall-clock deadline in seconds (0: none)"),
	}
}

// addJournal registers the -journal checkpoint flag (batch and faults;
// the server keeps no journal — its cache is the durable artifact).
func (pf *poolFlags) addJournal(fs *flag.FlagSet, noun string) *poolFlags {
	pf.journal = fs.String("journal", "",
		"JSONL checkpoint file; a re-run with the same journal skips finished "+noun+"s")
	return pf
}

// options maps the flags onto runner.Options.
func (pf *poolFlags) options() runner.Options {
	o := runner.Options{
		Workers: *pf.workers,
		Timeout: secondsFlag(*pf.timeout),
	}
	if pf.journal != nil {
		o.Journal = *pf.journal
	}
	return o
}
