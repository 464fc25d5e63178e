package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// bench is one invocation: a workload, its seed and window length, and
// the server it runs against.
type bench struct {
	w      *mix
	seed   uint64
	window time.Duration
	engine string
	e      *env
	// first holds serve-hit's set-up answers: pool spec → body of its
	// miss, and that body's hash.
	first    map[string][]byte
	firstSum map[string][sha256.Size]byte
	// expect guesses how many requests a window completes.
	expect int
}

// phase is one timed window with the server's books around it, and the
// checks made of it afterwards.
type phase struct {
	stream        uint64
	win           window
	before, after stats
	scrBefore     promText // traced windows only
	scrAfter      promText
	memBefore     runtime.MemStats
	memAfter      runtime.MemStats
	rssMB         float64
	answers       []answer
	lead          [][]byte // the bodies the digest covers, in order
	failed        int      // requests that failed, were refused or were wrong
	firstFailure  error
	booksErr      error // the client's and the server's books disagree
	digest        string
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstFailure == nil {
		p.firstFailure = err
	}
}

func (b *bench) next(stream uint64) func(i int) *input {
	return func(i int) *input { return b.w.input(b.seed, stream, i) }
}

// kept holds the run bodies of the requests the digest covers, written
// by both clients.
type kept struct {
	mu     sync.Mutex
	bodies map[int][]byte
}

func (k *kept) put(idx int, body []byte) {
	k.mu.Lock()
	k.bodies[idx] = body
	k.mu.Unlock()
}

// send issues one request of the workload, checks a hit against the
// spec's first answer, and keeps the body of a request the digest
// covers; with tr it records the client's span of the request.
func (b *bench) send(tr *tracer, keep *kept) func(context.Context, *input) (op, tally) {
	return func(ctx context.Context, in *input) (op, tally) {
		start := time.Now()
		var o op
		var books tally
		var body []byte
		if b.w.sweep {
			o, books, body = sweepOp(ctx, b.e, in)
		} else {
			o, books, body = runOp(ctx, b.e, in)
		}
		if tr != nil {
			id := tr.add(in.idx, 0, "client", start, time.Now())
			if b.w.sweep {
				tr.add(in.idx, id, "client.admit", start, start.Add(o.admit))
			}
		}
		if o.err == nil && b.w.hitPool && o.sum != b.firstSum[string(in.body)] {
			o.err = fmt.Errorf("hit body differs from the first answer for %s", in.body)
		}
		if keep != nil && body != nil && in.idx < b.w.digest {
			keep.put(in.idx, body)
		}
		return o, books
	}
}

// run is the whole invocation. Every return path shuts the server down.
func (b *bench) run(ctx context.Context, traced bool) (res *result, err error) {
	defer func() {
		if b.e == nil {
			return
		}
		if cerr := b.e.close(); cerr != nil && err == nil {
			err = fmt.Errorf("shutdown: %w", cerr)
		}
	}()
	setup, err := b.setUp(ctx)
	if err != nil {
		return nil, err
	}
	warm := closedLoop(ctx, warmupTime, 0, 0, b.next(streamWarm), b.send(nil, nil))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, o := range warm.ops {
		if o.err != nil {
			return nil, fmt.Errorf("warm-up request %d: %w", o.idx, o.err)
		}
	}
	// A third more than the warm-up's pace would complete in a window.
	b.expect = int(1.33 * float64(len(warm.ops)) * b.window.Seconds() / warmupTime.Seconds())

	// A traced run splits its window in two halves, untraced then traced,
	// so it takes about as long as an untraced run.
	win := b.window
	if traced {
		win /= 2
	}
	plain, err := b.measure(ctx, streamMeasure, nil, win)
	if err != nil {
		return nil, err
	}
	phases := []*phase{plain}
	var tr *tracer
	var traceWin *phase
	if traced {
		// A stream of its own, so the traced window's specs are as fresh
		// as the untraced window's were.
		tr = newTracer()
		if traceWin, err = b.measure(ctx, streamTrace, tr, win); err != nil {
			return nil, err
		}
		phases = append(phases, traceWin)
	}
	err = b.e.close()
	b.e = nil
	if err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	res = &result{Correct: true}
	for _, p := range phases {
		if err := b.verify(ctx, p); err != nil {
			return nil, err
		}
		res.Attempted += len(p.win.ops)
		res.Failed += p.failed
		if p.failed > 0 {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p.firstFailure)
		}
		if p.booksErr != nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: cross-check failed:", p.booksErr)
		}
	}
	if b.w.hitPool {
		if err := b.verifyPool(ctx, res); err != nil {
			return nil, err
		}
	}
	e2e := b.endToEnd(plain, setup)
	printMetrics("end to end, tracing off", e2e)
	fmt.Printf("digest %s seed %d: sha256:%s (simulated fields of the first %d requests)\n",
		b.w.name, b.seed, plain.digest, b.w.digest)
	fmt.Printf("error_rate %s: %g (%d failed of %d attempted)\n", b.w.name,
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}

	printOverhead(e2e, b.endToEnd(traceWin, setup))
	layers, err := b.perLayer(ctx, tr, traceWin, plain)
	if err != nil {
		return nil, err
	}
	printMetrics("per layer", layers)
	path := filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-%d.json", b.w.name, b.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	res.Metrics = layers
	return res, nil
}

// setUp starts the server `setups` times, warming serve-hit's cache each
// time, and keeps the last; it returns each set-up's duration.
func (b *bench) setUp(ctx context.Context) ([]float64, error) {
	var times []float64
	for k := 0; k < setups; k++ {
		if b.e != nil {
			err := b.e.close()
			b.e = nil
			if err != nil {
				return nil, fmt.Errorf("shutdown: %w", err)
			}
		}
		t0 := time.Now()
		e, err := startServer(ctx)
		if err != nil {
			return nil, err
		}
		b.e = e
		if b.w.hitPool {
			if err := b.warmPool(ctx); err != nil {
				return nil, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// warmPool puts serve-hit's spec pool in the cache and keeps each spec's
// first answer.
func (b *bench) warmPool(ctx context.Context) error {
	next := func(i int) *input { return &input{idx: i, body: missSpec(b.seed, streamPool, i, false)} }
	keep := &kept{bodies: make(map[int][]byte, hitPoolSize)}
	send := func(ctx context.Context, in *input) (op, tally) {
		o, books, body := runOp(ctx, b.e, in)
		keep.put(in.idx, body)
		return o, books
	}
	w := closedLoop(ctx, runBudget, hitPoolSize, 0, next, send)
	if len(w.ops) != hitPoolSize {
		return fmt.Errorf("cache warm-up: %d of %d specs sent: %w", len(w.ops), hitPoolSize, ctx.Err())
	}
	if w.books.miss != hitPoolSize {
		return fmt.Errorf("cache warm-up: %d of %d specs missed the cache", w.books.miss, hitPoolSize)
	}
	b.first = make(map[string][]byte, hitPoolSize)
	b.firstSum = make(map[string][sha256.Size]byte, hitPoolSize)
	for _, o := range w.ops {
		if o.err != nil {
			return fmt.Errorf("cache warm-up: %w", o.err)
		}
		doc := string(next(o.idx).body)
		b.first[doc], b.firstSum[doc] = keep.bodies[o.idx], o.sum
	}
	return nil
}

// measure runs one window and takes the server's books around it. The
// answers of a sweep's cells are fetched back from the cache right
// after, outside the window and its books.
func (b *bench) measure(ctx context.Context, stream uint64, tr *tracer, d time.Duration) (*phase, error) {
	p := &phase{stream: stream}
	var err error
	if p.before, err = b.e.stats(ctx); err != nil {
		return nil, err
	}
	if tr != nil {
		if p.scrBefore, err = b.e.scrape(ctx); err != nil {
			return nil, err
		}
	}
	keep := &kept{bodies: make(map[int][]byte)}
	runtime.ReadMemStats(&p.memBefore)
	p.win = closedLoop(ctx, d, 0, int(float64(b.expect)*d.Seconds()/b.window.Seconds()), b.next(stream), b.send(tr, keep))
	runtime.ReadMemStats(&p.memAfter)
	p.rssMB = peakRSSMB()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.after, err = b.e.stats(ctx); err != nil {
		return nil, err
	}
	if tr != nil {
		if p.scrAfter, err = b.e.scrape(ctx); err != nil {
			return nil, err
		}
	}
	p.booksErr = crossCheck(p.win.books, p.before, p.after)
	next := b.next(stream)
	for i, o := range p.win.ops {
		if o.err != nil {
			p.fail(fmt.Errorf("request %d: %w", o.idx, o.err))
			continue
		}
		in := next(o.idx)
		if !b.w.sweep {
			p.answers = append(p.answers, answer{op: i, doc: in.body, sum: o.sum})
			if body, ok := keep.bodies[o.idx]; ok {
				p.lead = append(p.lead, body)
			}
			continue
		}
		for _, cell := range in.cells {
			code, tag, body, err := b.e.post(ctx, "/v1/runs", cell)
			if err == nil && (code != http.StatusOK || tag != "hit") {
				err = fmt.Errorf("sweep %d cell not served from the cache: status %d, %q", o.idx, code, tag)
			}
			if err != nil {
				p.fail(err)
				break
			}
			p.answers = append(p.answers, answer{op: i, doc: cell, sum: sha256.Sum256(body)})
			if o.idx < b.w.digest {
				p.lead = append(p.lead, body)
			}
		}
	}
	return p, ctx.Err()
}

// verify checks a window's answers against the oracle, counts the
// answered slots, and digests the leading requests.
func (b *bench) verify(ctx context.Context, p *phase) error {
	if err := verify(ctx, b.engine, p.answers); err != nil {
		return err
	}
	wrongOps := map[int]bool{}
	for _, a := range p.answers {
		if a.wrong && !wrongOps[a.op] {
			wrongOps[a.op] = true
			p.fail(fmt.Errorf("request %d: body differs from the oracle for %s", p.win.ops[a.op].idx, a.doc))
		}
	}
	if p.failed > 0 {
		return nil // no digest of wrong answers
	}
	if want := b.w.digest; len(p.win.ops) < want {
		p.fail(fmt.Errorf("the window completed %d requests, fewer than the %d the digest covers", len(p.win.ops), want))
		return nil
	}
	var err error
	p.digest, err = digest(p.lead)
	return err
}

// verifyPool checks serve-hit's set-up answers against the oracle.
func (b *bench) verifyPool(ctx context.Context, res *result) error {
	answers := make([]answer, 0, len(b.first))
	for doc, body := range b.first {
		answers = append(answers, answer{doc: []byte(doc), sum: sha256.Sum256(body)})
	}
	if err := verify(ctx, b.engine, answers); err != nil {
		return err
	}
	for _, a := range answers {
		if a.wrong {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: set-up answer differs from the oracle for %s\n", a.doc)
		}
	}
	return nil
}

// latencies returns the successful requests' client latencies in ms,
// sorted.
func latencies(ops []op) []float64 {
	var ms []float64
	for _, o := range ops {
		if o.err == nil {
			ms = append(ms, float64(o.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(ms)
	return ms
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// segments is how many stretches of a window the end-to-end metrics are
// taken over: each is the median of its values in the stretches, so a
// few seconds in which the host runs slow move it less.
const segments = 8

// endToEnd computes the user-visible metrics of one window.
func (b *bench) endToEnd(p *phase, setup []float64) map[string]metric {
	slots := make([]int64, len(p.win.ops))
	for _, a := range p.answers {
		slots[a.op] += int64(a.slots)
	}
	var rate, slotRate, p50, p90, p99 []float64
	for _, s := range p.win.segments(b.w.block, segments) {
		lat := latencies(p.win.ops[s.from:s.to])
		var n int64
		for _, x := range slots[s.from:s.to] {
			n += x
		}
		rate = append(rate, float64(len(lat))/s.span.Seconds())
		slotRate = append(slotRate, float64(n)/s.span.Seconds())
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		p99 = append(p99, quantile(lat, 0.99))
	}
	return map[string]metric{
		"setup_s":          {median(setup), "s"},
		"ops_per_s":        {median(rate), "1/s"},
		"p50_ms":           {median(p50), "ms"},
		"p90_ms":           {median(p90), "ms"},
		"p99_ms":           {median(p99), "ms"},
		"lane_slots_per_s": {median(slotRate), "1/s"},
		"rss_peak_mb":      {p.rssMB, "MB"},
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; server
// and clients share the process.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func printMetrics(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s:\n", title)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printOverhead reports how far the traced window's end-to-end numbers
// moved from the untraced window's.
func printOverhead(plain, traced map[string]metric) {
	fmt.Println("tracing overhead (traced window against untraced window):")
	for _, n := range []string{"ops_per_s", "p50_ms", "p90_ms", "p99_ms"} {
		a, t := plain[n].Value, traced[n].Value
		fmt.Printf("  %-12s untraced %12.6g traced %12.6g change %+6.1f%%\n", n, a, t, 100*(t-a)/a)
	}
}
