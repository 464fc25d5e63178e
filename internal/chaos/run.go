package chaos

import (
	"context"
	"fmt"
	"io"
	"time"

	"fcdpm/internal/vfs"
)

// Options configures a chaos run: Trials consecutive seeds starting at
// Seed, each one full RunTrial.
type Options struct {
	// Trials is the number of seeded trials (seeds Seed..Seed+Trials-1),
	// at least one.
	Trials int
	// Seed is the first seed.
	Seed uint64
	// Journal, when set, appends one fsynced JSON line per trial (the
	// TrialResult) through vfs.Journal — the artifact a nightly CI job
	// uploads.
	Journal string
	// Verbose forwards fabric log lines to Logf; otherwise only the
	// per-trial verdicts are reported.
	Verbose bool
	// Logf receives progress and verdicts; nil silences them.
	Logf func(format string, args ...any)
	// Out receives the human-readable per-trial verdict lines; nil
	// discards them.
	Out io.Writer
}

// Result summarizes a chaos run.
type Result struct {
	Trials   int
	Survived int
	Failing  []TrialResult
}

// OK reports whether every seed survived.
func (r *Result) OK() bool { return len(r.Failing) == 0 }

// Run executes opts.Trials seeded trials and reports which seeds
// survived. A failing seed's scratch dir (state dir, WAL, spools, rows)
// is kept on disk for inspection and named in the verdict line, so
// `fcdpm chaos -trials 1 -seed S` plus that dir is a complete bug
// report.
func Run(ctx context.Context, opts Options) (Result, error) {
	if opts.Trials < 1 {
		return Result{}, fmt.Errorf("chaos: need at least one trial, got %d", opts.Trials)
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	var journal *vfs.Journal
	if opts.Journal != "" {
		j, _, err := vfs.OpenJournal(vfs.Default, opts.Journal)
		if err != nil {
			return Result{}, fmt.Errorf("chaos: journal: %w", err)
		}
		journal = j
		defer journal.Close()
	}

	res := Result{Trials: opts.Trials}
	topts := TrialOptions{}
	if opts.Verbose {
		topts.Logf = opts.Logf
	}
	start := time.Now()
	for i := 0; i < opts.Trials; i++ {
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		topts.Seed = opts.Seed + uint64(i)
		tr := RunTrial(ctx, topts)
		if journal != nil {
			if err := journal.Append(tr); err != nil {
				return res, fmt.Errorf("chaos: journal: %w", err)
			}
		}
		if tr.OK() {
			res.Survived++
			fmt.Fprintf(out, "seed %-6d ok    %5.1fs  sweeps=%d executed=%d reexecuted=%d\n",
				tr.Seed, tr.Duration.Seconds(), tr.Sweeps, tr.Executed, tr.Reexecuted)
			continue
		}
		res.Failing = append(res.Failing, tr)
		fmt.Fprintf(out, "seed %-6d FAIL  %5.1fs  dir=%s\n", tr.Seed, tr.Duration.Seconds(), tr.Dir)
		for _, violation := range tr.Violations {
			fmt.Fprintf(out, "  - %s\n", violation)
		}
	}
	fmt.Fprintf(out, "chaos: %d/%d seed(s) survived in %s\n",
		res.Survived, res.Trials, time.Since(start).Round(time.Millisecond))
	return res, nil
}
