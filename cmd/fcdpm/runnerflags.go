package main

import (
	"flag"

	"fcdpm/internal/config"
	"fcdpm/internal/runner"
)

// poolFlags are the orchestration flags shared by every subcommand that
// runs simulations on the resilient pool (batch, faults, serve), so the
// knobs spell and behave identically everywhere.
type poolFlags struct {
	workers *int
	timeout *float64
	retries *int
	journal *string
}

// addPoolFlags registers -workers/-timeout/-retries on fs. The noun
// ("scenario", "cell", "run") keeps each command's help text concrete.
func addPoolFlags(fs *flag.FlagSet, noun string) *poolFlags {
	return &poolFlags{
		workers: fs.Int("workers", 0, "concurrent "+noun+"s (0: GOMAXPROCS)"),
		timeout: fs.Float64("timeout", 0, "per-"+noun+" wall-clock deadline in seconds (0: none)"),
		retries: fs.Int("retries", 0, "retries per transiently failed "+noun),
	}
}

// addJournal registers the -journal checkpoint flag (batch and faults;
// the server keeps no journal — its cache is the durable artifact).
func (pf *poolFlags) addJournal(fs *flag.FlagSet, noun string) *poolFlags {
	pf.journal = fs.String("journal", "",
		"JSONL checkpoint file; a re-run with the same journal skips finished "+noun+"s")
	return pf
}

// overlay applies a scenario-provided runner block beneath any flags the
// user set explicitly: flags win, the spec fills the rest.
func (pf *poolFlags) overlay(fs *flag.FlagSet, spec config.RunnerSpec) {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["workers"] && spec.Workers != 0 {
		*pf.workers = spec.Workers
	}
	if !set["timeout"] && spec.TimeoutSec != 0 {
		*pf.timeout = spec.TimeoutSec
	}
	if !set["retries"] && spec.Retries != 0 {
		*pf.retries = spec.Retries
	}
	if pf.journal != nil && !set["journal"] && spec.Journal != "" {
		*pf.journal = spec.Journal
	}
}

// options maps the flags onto runner.Options.
func (pf *poolFlags) options() runner.Options {
	o := runner.Options{
		Workers: *pf.workers,
		Timeout: secondsFlag(*pf.timeout),
		Retries: *pf.retries,
	}
	if pf.journal != nil {
		o.Journal = *pf.journal
	}
	return o
}
