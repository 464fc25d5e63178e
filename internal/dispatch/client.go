package dispatch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"fcdpm/internal/client"
	"fcdpm/internal/vfs"
)

// ClientOptions tunes a remote sweep submission.
type ClientOptions struct {
	// Base is the dispatcher's base URL.
	Base string
	// Name labels the sweep.
	Name string
	// Rows, when set, writes the completed sweep's result rows (NDJSON,
	// submission order, byte-identical to a local batch) to this path.
	Rows string
	// Events receives the NDJSON progress stream; nil discards it.
	Events io.Writer
	// Logf receives operational log lines; nil silences them.
	Logf func(format string, args ...any)
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

func (o ClientOptions) withDefaults() ClientOptions {
	o.Base = strings.TrimRight(o.Base, "/")
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Client == nil {
		o.Client = &http.Client{} // no global timeout: event tails are long-lived
	}
	return o
}

// SubmitSweep submits scenarios, tails progress until the sweep
// resolves, and fetches the rows. It survives dispatcher restarts: a
// dropped event stream falls back to status polling with backoff and
// re-tails once the dispatcher answers again. A canceled ctx returns
// an error wrapping runner.ErrInterrupted (exit code 3) — the sweep
// keeps running server-side and can be re-attached by resubmitting the
// identical spec (idempotent by content address). A resolved sweep
// with failed shards returns a plain error (exit code 1).
func SubmitSweep(ctx context.Context, opts ClientOptions, req SweepRequest) error {
	opts = opts.withDefaults()
	if opts.Base == "" {
		return errors.New("dispatch: submit needs a dispatcher URL")
	}

	// Submit, retrying transient refusals (draining, unreachable).
	var acc SweepAccepted
	err := client.PostJSONRetry(ctx, opts.Client, opts.Base+"/v1/sweeps", req, &acc,
		client.Retry{Attempts: 5, Base: 250 * time.Millisecond, Max: 5 * time.Second, ID: "submit"})
	if err != nil {
		return fmt.Errorf("dispatch: submit: %w", err)
	}
	opts.Logf("fcdpm sweep: accepted as %s (%d shards)", acc.ID, acc.Shards)

	st, err := waitForSweep(ctx, opts, acc.ID)
	if err != nil {
		return err
	}
	if opts.Rows != "" {
		if err := fetchRows(ctx, opts, acc.ID); err != nil {
			return err
		}
	}
	if st.Failed > 0 {
		return fmt.Errorf("dispatch: sweep %s: %d of %d shards failed", acc.ID, st.Failed, st.Shards)
	}
	return nil
}

// waitForSweep tails events until the sweep resolves, re-tailing across
// disconnects (dispatcher restarts included). A typed refusal from the
// status poll — the dispatcher answered but doesn't know the sweep,
// i.e. a restart without the sweep's state dir — is unrecoverable.
func waitForSweep(ctx context.Context, opts ClientOptions, id string) (*SweepStatus, error) {
	var st *SweepStatus
	err := client.Follow{
		Tail: func(ctx context.Context) error {
			return client.TailNDJSON(ctx, opts.Client, opts.Base+"/v1/sweeps/"+id+"/events",
				func(line string) {
					if opts.Events != nil {
						fmt.Fprintln(opts.Events, line)
					}
				})
		},
		Poll: func(ctx context.Context) (bool, error) {
			cur, err := sweepStatus(ctx, opts, id)
			if err != nil {
				return false, err
			}
			st = cur
			return cur.Done(), nil
		},
		ID: id,
		OnRetry: func(err error) {
			opts.Logf("fcdpm sweep: dispatcher unreachable, retrying: %v", err)
		},
	}.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("dispatch: sweep %s: %w", id, err)
	}
	return st, nil
}

func sweepStatus(ctx context.Context, opts ClientOptions, id string) (*SweepStatus, error) {
	var st SweepStatus
	if err := client.GetJSON(ctx, opts.Client, opts.Base+"/v1/sweeps/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// fetchRows downloads the result rows and writes them atomically.
func fetchRows(ctx context.Context, opts ClientOptions, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, opts.Base+"/v1/sweeps/"+id+"/results", nil)
	if err != nil {
		return err
	}
	resp, err := opts.Client.Do(req)
	if err != nil {
		return fmt.Errorf("dispatch: results: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("dispatch: results: http %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("dispatch: results: %w", err)
	}
	if opts.Rows == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := vfs.Default.WriteFileAtomic(opts.Rows, b); err != nil {
		return err
	}
	opts.Logf("fcdpm sweep: wrote %d bytes of result rows to %s", len(b), opts.Rows)
	return nil
}
