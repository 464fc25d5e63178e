package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fcdpm/internal/server"
)

const (
	// clients is the closed loop's width: two client goroutines over two
	// connections, one per core of the reference host.
	clients = 2
	// poolWorkers fixes the server's pool instead of deriving it from the
	// host, so runs on different hosts queue alike.
	poolWorkers = 2
	// shutdownTimeout bounds the HTTP shutdown before connections are
	// force-closed; the pool drain has its own bound.
	shutdownTimeout = 10 * time.Second
	drainTimeout    = 10 * time.Second
)

// env is one in-process server on a loopback port plus the benchmark's
// HTTP client. close stops both, whatever state the run is in.
type env struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	tr     *http.Transport
	hc     *http.Client
}

// startServer builds the real server with a fixed 2-worker pool, serves it
// on 127.0.0.1:0, and returns once /healthz answers.
func startServer(ctx context.Context) (*env, error) {
	srv, err := server.New(server.Options{Workers: poolWorkers, DrainTimeout: drainTimeout})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	e := &env{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		tr:     tr,
		hc:     &http.Client{Transport: tr},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	if _, err := e.get(ctx, "/healthz"); err != nil {
		e.close()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return e, nil
}

// close shuts the HTTP server down (listener first, then in-flight
// handlers, force-closing them after shutdownTimeout), drains the pool,
// and waits for the serve goroutine to return.
func (e *env) close() error {
	e.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	herr := e.hs.Shutdown(ctx)
	if herr != nil {
		e.hs.Close()
	}
	cerr := e.srv.Close()
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		herr = errors.Join(herr, serr)
	}
	return errors.Join(herr, cerr)
}

// post sends body and returns the status, the X-Fcdpm-Cache tag, and the
// response body.
func (e *env) post(ctx context.Context, path string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return e.do(req)
}

// get fetches path and fails unless it answers 200.
func (e *env) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+path, nil)
	if err != nil {
		return nil, err
	}
	code, _, b, err := e.do(req)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", path, code, b)
	}
	return b, err
}

func (e *env) do(req *http.Request) (int, string, []byte, error) {
	resp, err := e.hc.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Fcdpm-Cache"), b, err
}

// tally counts what the client saw, in the server's own taxonomy, for
// the cross-check against the /v1/stats deltas.
type tally struct {
	miss      int // runs tagged miss
	hit       int
	coalesced int
	shed      int // 503 refusals
	cellMiss  int // sweep cells resolved by simulation
	cellHit   int // sweep cells resolved from the cache
}

func (t *tally) add(o tally) {
	t.miss += o.miss
	t.hit += o.hit
	t.coalesced += o.coalesced
	t.shed += o.shed
	t.cellMiss += o.cellMiss
	t.cellHit += o.cellHit
}

// tag counts one /v1/runs response by its cache tag.
func (t *tally) tag(code int, tag string) {
	switch {
	case code == http.StatusServiceUnavailable:
		t.shed++
	case tag == "miss":
		t.miss++
	case tag == "hit":
		t.hit++
	case tag == "coalesced":
		t.coalesced++
	}
}

// op is one completed workload request as the client saw it. It keeps a
// hash of the run body rather than the body, so a long window of small
// requests does not fill the process with copies of the answers.
type op struct {
	idx   int
	done  time.Duration     // completion, from the start of the window
	lat   time.Duration     // to the run body, or to the sweep's resolution
	admit time.Duration     // sweeps: until the 202
	sum   [sha256.Size]byte // SHA-256 of the run body
	err   error             // refused, failed or malformed; counted in failed
}

// runOp sends one scenario to POST /v1/runs and returns the body too.
func runOp(ctx context.Context, e *env, in *input) (op, tally, []byte) {
	o := op{idx: in.idx}
	var books tally
	t0 := time.Now()
	code, tag, b, err := e.post(ctx, "/v1/runs", in.body)
	o.lat = time.Since(t0)
	books.tag(code, tag)
	o.sum = sha256.Sum256(b)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, b)
	}
	o.err = err
	return o, books, b
}

// sweepEvent is the part of a job event line the client reads.
type sweepEvent struct {
	Kind   string `json:"kind"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
}

// sweepOp posts one sweep, then tails its NDJSON events until it
// resolves.
func sweepOp(ctx context.Context, e *env, in *input) (op, tally, []byte) {
	o := op{idx: in.idx}
	var books tally
	t0 := time.Now()
	code, _, b, err := e.post(ctx, "/v1/sweeps", in.body)
	o.admit = time.Since(t0)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("sweep: status %d: %s", code, b)
	}
	var acc struct {
		Events string `json:"events"`
	}
	if err == nil {
		err = json.Unmarshal(b, &acc)
	}
	if err != nil {
		o.err = err
		return o, books, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+acc.Events, nil)
	if err != nil {
		o.err = err
		return o, books, nil
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		o.err = err
		return o, books, nil
	}
	defer resp.Body.Close()
	resolved := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			o.err = fmt.Errorf("sweep event: %w", err)
			return o, books, nil
		}
		switch ev.Kind {
		case "cell":
			if ev.Status != "done" {
				o.err = fmt.Errorf("sweep cell %s", ev.Status)
			} else if ev.Cached {
				books.cellHit++
			} else {
				books.cellMiss++
			}
		case "resolved":
			resolved = ev.Status
		}
	}
	o.lat = time.Since(t0)
	switch {
	case sc.Err() != nil:
		o.err = sc.Err()
	case o.err == nil && resolved != "done":
		o.err = fmt.Errorf("sweep resolved %q", resolved)
	case o.err == nil && books.cellMiss+books.cellHit != len(in.cells):
		o.err = fmt.Errorf("sweep reported %d of %d cells", books.cellMiss+books.cellHit, len(in.cells))
	}
	return o, books, nil
}

// window is one closed-loop load phase.
type window struct {
	ops   []op // by input index
	books tally
}

// closedLoop runs the clients until d has elapsed: each sends its next
// request when the last one answers. Requests are numbered from one
// shared counter, so the input sequence is fixed by the seed whatever
// the interleaving. Requests in flight at the deadline complete and
// count.
//
// limit, when positive, also stops the loop after that many requests.
// expect sizes each client's records up front (a guess from an earlier
// window), so they grow the heap smoothly rather than by doubling
// copies whose timing would move the process's peak memory.
func closedLoop(ctx context.Context, d time.Duration, limit, expect int, next func(i int) *input, send func(context.Context, *input) (op, tally)) window {
	var seq atomic.Int64
	per := make([][]op, clients)
	books := make([]tally, clients)
	capacity := expect / clients
	if limit > 0 {
		capacity = limit
	}
	t0 := time.Now()
	end := t0.Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = make([]op, 0, capacity)
			for ctx.Err() == nil && time.Now().Before(end) {
				i := int(seq.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				o, t := send(ctx, next(i))
				o.done = time.Since(t0)
				per[c] = append(per[c], o)
				books[c].add(t)
			}
		}(c)
	}
	wg.Wait()
	var w window
	for c, ops := range per {
		w.ops = append(w.ops, ops...)
		w.books.add(books[c])
	}
	sort.Slice(w.ops, func(a, b int) bool { return w.ops[a].idx < w.ops[b].idx })
	return w
}

// stretch is a run of consecutive requests, ops[from:to], and the time
// over which it completed.
type stretch struct {
	from, to int
	span     time.Duration
}

// segments cuts the window into about k stretches of whole blocks of the
// mix, dropping the partial block at the end, so each stretch measures
// the mix in its exact proportions. A stretch's span runs from the last
// completion of the stretch before it to its own last completion.
func (w window) segments(block, k int) []stretch {
	per := max(1, len(w.ops)/block/k) * block
	var out []stretch
	var prev time.Duration
	for from := 0; from+per <= len(w.ops); from += per {
		end := prev
		for _, o := range w.ops[from : from+per] {
			end = max(end, o.done)
		}
		if end > prev {
			out = append(out, stretch{from: from, to: from + per, span: end - prev})
		}
		prev = end
	}
	return out
}
