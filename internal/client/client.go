// Package client is the shared submit/stream side of the repo's HTTP
// dialect (internal/httpx is the serve side): typed non-2xx errors that
// carry the Retry-After hint, JSON POST/GET helpers, a retrying submit
// that honors protocol-driven backoff, NDJSON tailing, and a
// tail-until-resolved loop that survives server restarts. The sweep
// dispatcher's worker and `fcdpm sweep -remote` both spoke a private
// copy of this dialect; it now lives here once.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"fcdpm/internal/httpx"
	"fcdpm/internal/runner"
)

// Error is a non-2xx response: status code, typed error message, and
// the Retry-After hint when the server sent one. A plain (non-*Error)
// error means the request never got a response (network failure) —
// callers distinguish the two with errors.As.
type Error struct {
	// Code is the HTTP status.
	Code int
	// Msg is the typed error body, or the status text when the body was
	// not a httpx.Error document.
	Msg string
	// RetryAfter is the server's backoff hint (zero when absent).
	RetryAfter time.Duration
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("http %d: %s", e.Code, e.Msg)
}

// Retryable reports whether the response invites another attempt:
// overload and drain speak 503, rate limiting 429 — both transient by
// contract. Everything else is the caller's verdict to make.
func (e *Error) Retryable() bool {
	return e.Code == http.StatusServiceUnavailable || e.Code == http.StatusTooManyRequests
}

// asError classifies a non-2xx response into *Error.
func asError(resp *http.Response, body []byte) *Error {
	e := &Error{Code: resp.StatusCode}
	var typed httpx.Error
	if json.Unmarshal(body, &typed) == nil && typed.Error != "" {
		e.Msg = typed.Error
	} else {
		e.Msg = http.StatusText(resp.StatusCode)
	}
	if d, ok := httpx.RetryAfter(resp); ok {
		e.RetryAfter = d
	}
	return e
}

// postBodyLimit bounds how much of a response body a JSON POST reads.
const postBodyLimit = 1 << 20

// getBodyLimit bounds a JSON GET (sweep results can be large).
const getBodyLimit = 64 << 20

// PostJSON posts v to url and decodes a 2xx response into out (out may
// be nil to discard). Non-2xx responses return *Error; transport
// failures return the underlying error.
func PostJSON(ctx context.Context, hc *http.Client, url string, v, out any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(hc, req, postBodyLimit, out)
}

// GetJSON fetches url and decodes a 2xx response into out.
func GetJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return do(hc, req, getBodyLimit, out)
}

// do executes the request and decodes or classifies the response.
func do(hc *http.Client, req *http.Request, limit int64, out any) error {
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return asError(resp, body)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// Retry tunes PostJSONRetry. The zero value means 5 attempts with the
// worker-poll backoff window (250 ms – 5 s).
type Retry struct {
	// Attempts bounds total tries (default 5).
	Attempts int
	// Base and Max bound the jittered exponential backoff between tries.
	Base, Max time.Duration
	// ID keys the deterministic backoff jitter (runner.BackoffDelay).
	ID string
}

func (r Retry) withDefaults() Retry {
	if r.Attempts <= 0 {
		r.Attempts = 5
	}
	if r.Base <= 0 {
		r.Base = 250 * time.Millisecond
	}
	if r.Max <= 0 {
		r.Max = 5 * time.Second
	}
	return r
}

// PostJSONRetry posts v, retrying transient refusals: network failures
// and retryable statuses (503, 429) back off with deterministic jitter,
// stretched to the server's Retry-After hint when it is longer. Any
// other HTTP error returns immediately. A canceled ctx returns an error
// wrapping runner.ErrInterrupted.
func PostJSONRetry(ctx context.Context, hc *http.Client, url string, v, out any, retry Retry) error {
	retry = retry.withDefaults()
	for attempt := 1; ; attempt++ {
		err := PostJSON(ctx, hc, url, v, out)
		if err == nil {
			return nil
		}
		var he *Error
		if errors.As(err, &he) && !he.Retryable() {
			return err
		}
		if attempt >= retry.Attempts {
			return err
		}
		delay := runner.BackoffDelay(retry.Base, retry.Max, retry.ID, attempt)
		if he != nil && he.RetryAfter > delay {
			delay = he.RetryAfter
		}
		if !sleep(ctx, delay) {
			return fmt.Errorf("%w (submitting %s)", runner.ErrInterrupted, url)
		}
	}
}

// sleep blocks for d or until ctx is done; reports false on cancel.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// TailNDJSON streams url's NDJSON body, invoking line for each record,
// until the stream closes (the job resolved or the connection was
// lost). A non-200 status returns *Error.
func TailNDJSON(ctx context.Context, hc *http.Client, url string, line func(text string)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return asError(resp, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		if line != nil {
			line(sc.Text())
		}
	}
	return sc.Err()
}

// Follow drives a tail-until-resolved loop that survives server
// restarts: tail the event stream; when it drops, poll the job's
// status; if unresolved, back off and re-tail from the fresh stream.
type Follow struct {
	// Tail streams events until the stream closes (TailNDJSON).
	Tail func(ctx context.Context) error
	// Poll checks resolution after a tail ends. done ends the loop
	// (nil error: resolved). A returned *Error ends the loop too — the
	// server answered but refused (e.g. it forgot the job after a
	// restart without durable state); only transport failures are
	// retried.
	Poll func(ctx context.Context) (done bool, err error)
	// ID keys the backoff jitter; Base and Max bound it (defaults
	// 250 ms – 10 s).
	ID        string
	Base, Max time.Duration
	// OnRetry is invoked once when the loop first starts retrying after
	// a failure (log hook); nil silences it.
	OnRetry func(err error)
}

// Run loops until Poll reports done, the server answers with a typed
// refusal, or ctx cancels (wrapping runner.ErrInterrupted).
func (f Follow) Run(ctx context.Context) error {
	if f.Base <= 0 {
		f.Base = 250 * time.Millisecond
	}
	if f.Max <= 0 {
		f.Max = 10 * time.Second
	}
	fails := 0
	for {
		if ctx.Err() != nil {
			return fmt.Errorf("still running: %w", runner.ErrInterrupted)
		}
		tailErr := f.Tail(ctx)
		done, err := f.Poll(ctx)
		if err == nil {
			if done {
				return nil
			}
			// Stream dropped mid-flight (restart, proxy timeout): back
			// off briefly and re-tail from the fresh stream.
			fails++
		} else {
			var he *Error
			if errors.As(err, &he) {
				return err
			}
			fails++
			if fails == 1 && f.OnRetry != nil {
				f.OnRetry(firstErr(tailErr, err))
			}
		}
		if !sleep(ctx, runner.BackoffDelay(f.Base, f.Max, f.ID+"/tail", fails)) {
			return fmt.Errorf("still running: %w", runner.ErrInterrupted)
		}
	}
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
