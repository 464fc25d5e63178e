package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"fcdpm/internal/config"
)

// Bounds of the stage-sum cross-check: the replayed stages of a request
// must come to between stageSumMin and stageSumMax times the server's
// own mean request time. The replay runs each call alone, while in the
// window two requests share two vCPUs with the clients and the HTTP
// stack, and a coalesced twin waits out its leader's run: the replay
// covers 60-110% of the server's time. A stage counted twice, or a
// missing Build (most of a miss), moves the ratio past a bound.
const (
	stageSumMin = 0.25
	stageSumMax = 2.0
)

// perLayer replays the untraced window's inputs (the seed's inputs)
// through each layer with one span per call and computes the per-layer
// metrics from the replay, from the traced window's /v1/stats and
// /metrics deltas, and from the Go runtime's deltas over it. The
// returned map holds the metrics the benchmark reports on every
// workload; the stages that run only on some workloads are printed in
// the stage table and the listing below it.
func (b *bench) perLayer(ctx context.Context, tr *tracer, p, plain *phase) (map[string]metric, error) {
	r, err := newReplayer(ctx, tr, b.engine)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if b.w.hitPool {
		// The pool is cached before the first hit, as in the server.
		for k := 0; k < hitPoolSize; k++ {
			spec, err := config.LoadValidated(bytes.NewReader(missSpec(b.seed, streamPool, k, false)))
			if err != nil {
				return nil, err
			}
			key, err := spec.CacheKey(b.engine)
			if err != nil {
				return nil, err
			}
			r.store.Put(key, []byte("{}"))
		}
	}
	n, err := replayWindow(ctx, r, b.w, b.next(plain.stream), len(plain.win.ops), b.window/2)
	if err != nil {
		return nil, err
	}
	st := stageTable(tr, b.w.name, n)

	// The server's view of the traced window.
	endpoint := `{endpoint="POST /v1/runs"}`
	if b.w.sweep {
		endpoint = `{endpoint="POST /v1/sweeps"}`
	}
	reqs := delta(p.scrBefore, p.scrAfter, "fcdpm_http_request_seconds_count"+endpoint)
	requestUS := 1e6 * delta(p.scrBefore, p.scrAfter, "fcdpm_http_request_seconds_sum"+endpoint) / reqs

	// The replayed stages a request spends inside the server's handler:
	// the whole run for POST /v1/runs, the admission for POST /v1/sweeps.
	inHandler := requestStages
	if !b.w.sweep {
		inHandler = append(append([]string{}, requestStages...), taskStages...)
	}
	var handlerTotal, stageTotal time.Duration
	for _, s := range inHandler {
		handlerTotal += st[s].total
	}
	for _, s := range append(append([]string{}, requestStages...), taskStages...) {
		stageTotal += st[s].total
	}
	stageSumUS := float64(handlerTotal) / float64(time.Microsecond) / float64(n)
	ratio := stageSumUS / requestUS
	fmt.Printf("stage sum check: replayed stages %.2f us per request, server.request_ms %.4f ms (%.0f%%; required %.0f%%-%.0f%%)\n",
		stageSumUS, requestUS/1e3, 100*ratio, 100*stageSumMin, 100*stageSumMax)
	if !(ratio >= stageSumMin && ratio <= stageSumMax) {
		return nil, fmt.Errorf("books: replayed stage sum is %.0f%% of server.request_ms, outside %.0f%%-%.0f%%",
			100*ratio, 100*stageSumMin, 100*stageSumMax)
	}

	// The client's view of the same requests.
	var clientTotal time.Duration
	var clientN int
	for _, o := range p.win.ops {
		switch {
		case o.err != nil:
		case b.w.sweep:
			clientTotal += o.admit
			clientN++
		default:
			clientTotal += o.lat
			clientN++
		}
	}
	clientUS := float64(clientTotal) / float64(time.Microsecond) / float64(clientN)

	share := func(d time.Duration) float64 { return float64(d) / float64(stageTotal) }
	rest := st["config.build"].total - st["workload.gen"].total - st["multistack.presolve"].total
	hits := float64(p.after.Cache.Hits - p.before.Cache.Hits)
	misses := float64(p.after.Cache.Misses - p.before.Cache.Misses)
	memoHits := delta(p.scrBefore, p.scrAfter, "fcdpm_sim_memo_hits_total")
	memoMisses := delta(p.scrBefore, p.scrAfter, "fcdpm_sim_memo_misses_total")
	ops := float64(len(p.win.ops))
	m := map[string]metric{
		"config.load_us":            {st["config.load"].meanUS(), "us"},
		"config.key_us":             {st["config.key"].meanUS(), "us"},
		"cache.get_us":              {st["cache.get"].meanUS(), "us"},
		"server.request_ms":         {requestUS / 1e3, "ms"},
		"server.self_us":            {requestUS - stageSumUS, "us"},
		"client.transport_us":       {clientUS - requestUS, "us"},
		"go.alloc_kb_per_op":        {float64(p.memAfter.TotalAlloc-p.memBefore.TotalAlloc) / 1024 / ops, "KiB"},
		"go.gc_per_kop":             {float64(p.memAfter.NumGC-p.memBefore.NumGC) * 1000 / ops, "count"},
		"cache.hit_ratio":           {ratioOf(hits, hits+misses), "ratio"},
		"server.coalesced_share":    {ratioOf(float64(p.after.Runs.Coalesced-p.before.Runs.Coalesced), reqs), "ratio"},
		"sim.memo_hit_ratio":        {ratioOf(memoHits, memoHits+memoMisses), "ratio"},
		"sim.plan_group_hits":       {float64(p.after.Batch.PlanGroupHits - p.before.Batch.PlanGroupHits), "count"},
		"sim.lanes":                 {mean(r.lanes), "count"},
		"sim.groups":                {mean(r.groups), "count"},
		"sim.exec_slots_per_s":      {ratioOf(float64(r.execSlots), r.simTime.Seconds()), "1/s"},
		"workload.gen_share":        {share(st["workload.gen"].total), "ratio"},
		"multistack.presolve_share": {share(st["multistack.presolve"].total), "ratio"},
		"config.build_rest_share":   {share(rest), "ratio"},
	}

	// Stage times of layers that run on some workloads only. They are
	// printed, not reported: on a workload that never calls the layer
	// they would read 0 on every run.
	only := map[string]metric{}
	for name, s := range map[string]struct {
		stage string
		scale float64
		unit  string
	}{
		"config.build_us":        {"config.build", 1, "us"},
		"workload.gen_us":        {"workload.gen", 1, "us"},
		"multistack.presolve_ms": {"multistack.presolve", 1e-3, "ms"},
		"runner.queue_wait_us":   {"runner.queue_wait", 1, "us"},
		"sim.run_us":             {"sim.run", 1, "us"},
		"sim.batch_new_us":       {"sim.batch_new", 1, "us"},
		"sim.batch_run_ms":       {"sim.batch_run", 1e-3, "ms"},
		"runreport.render_us":    {"runreport.render", 1, "us"},
		"cache.put_us":           {"cache.put", 1, "us"},
	} {
		if st[s.stage].calls > 0 {
			only[name] = metric{st[s.stage].meanUS() * s.scale, s.unit}
		}
	}
	if builds := st["config.build"].calls; builds > 0 {
		only["config.build_rest_us"] = metric{float64(rest) / float64(time.Microsecond) / float64(builds), "us"}
	}
	if b.w.sweep {
		var admit time.Duration
		for _, o := range p.win.ops {
			admit += o.admit
		}
		only["server.sweep_admit_ms"] = metric{float64(admit) / float64(time.Millisecond) / ops, "ms"}
	}
	if len(only) > 0 {
		printMetrics("stage times of the layers this workload calls", only)
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: interrupted during the replay")
		return nil, err
	}
	return m, nil
}

func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(v []int) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0
	for _, x := range v {
		sum += x
	}
	return float64(sum) / float64(len(v))
}
