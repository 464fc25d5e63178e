package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fcdpm/internal/config"
	"fcdpm/internal/dispatch"
	"fcdpm/internal/runreport"
	"fcdpm/internal/version"
)

// Trial tuning. The fabric runs hot — short leases, fast polls — so a
// whole trial (fault phase, hard restart, convergence, invariant
// checks) finishes in a few seconds.
const (
	trialShards   = 7 // 6 distinct cells + 1 duplicate spec (dedup coverage)
	trialLeaseTTL = 900 * time.Millisecond
	trialTimeout  = 45 * time.Second
	// skewRate is worker 2's clock rate: 30% slow, inside the bound
	// the dispatcher's skew grace must absorb at the TTL/3 heartbeat
	// cadence.
	skewRate = 0.7
)

// TrialOptions configures one chaos trial.
type TrialOptions struct {
	// Seed drives the entire fault schedule.
	Seed uint64
	// Dir is the trial's scratch root (state dir, spools, row files);
	// empty means a temp dir that is removed when the trial survives and
	// kept for inspection when it fails.
	Dir string
	// Logf receives fabric and harness log lines; nil silences them.
	Logf func(format string, args ...any)
}

// TrialResult is one trial's verdict: the seed, the invariant
// violations (empty means the seed survived), and enough accounting to
// judge how much chaos the schedule actually caused.
type TrialResult struct {
	Seed       uint64        `json:"seed"`
	Violations []string      `json:"violations,omitempty"`
	Sweeps     int           `json:"sweeps"`
	Executed   int64         `json:"executed"`
	Reexecuted int64         `json:"reexecuted"`
	Duration   time.Duration `json:"durationNs"`
	Dir        string        `json:"dir,omitempty"`
}

// OK reports whether every invariant held.
func (r *TrialResult) OK() bool { return len(r.Violations) == 0 }

// trialSpec builds shard i's scenario for a seed: small synthetic
// traces whose seeds derive from the trial seed, with the last shard a
// byte-identical duplicate of the first (its result must come from the
// cache, never a second simulation... at least once the first lands).
func trialSpec(seed uint64, i int) json.RawMessage {
	if i == trialShards-1 {
		i = 0
	}
	return json.RawMessage(fmt.Sprintf(
		`{"name":"cell-%04d","trace":{"kind":"synthetic","seed":%d,"duration":60},"policy":{"kind":"fcdpm"}}`,
		i, seed*31+uint64(i)+1))
}

// oracleRow computes the exact bytes the fabric must produce for spec —
// the same runreport.Execute pipeline `fcdpm batch` uses locally.
func oracleRow(spec json.RawMessage) ([]byte, error) {
	scen, err := config.LoadValidated(bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	key, err := scen.CacheKey(version.Engine())
	if err != nil {
		return nil, err
	}
	row := runreport.Execute(context.Background(), version.Engine(),
		[]runreport.Cell{{Spec: scen, Key: key}}, nil, nil)[0]
	return row.Body, row.Err
}

// dispatcherProc is one in-process dispatcher instance: the Dispatcher,
// its HTTP server, and its lease-reclamation ticker.
type dispatcherProc struct {
	d           *dispatch.Dispatcher
	hs          *http.Server
	stopReclaim context.CancelFunc
	addr        string
}

// startDispatcher builds a dispatcher on opts and serves it at addr
// ("127.0.0.1:0" picks a port; a concrete addr retries the bind briefly
// so a restart can reclaim the port the previous instance just freed).
func startDispatcher(addr string, opts dispatch.Options) (*dispatcherProc, error) {
	d, err := dispatch.New(opts)
	if err != nil {
		return nil, err
	}
	var ln net.Listener
	deadline := time.Now().Add(3 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			d.Close()
			return nil, fmt.Errorf("chaos: listen %s: %w", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	p := &dispatcherProc{d: d, addr: ln.Addr().String()}
	p.hs = &http.Server{Handler: d.Handler()}
	go p.hs.Serve(ln)
	rctx, cancel := context.WithCancel(context.Background())
	p.stopReclaim = cancel
	go func() {
		t := time.NewTicker(trialLeaseTTL / 3)
		defer t.Stop()
		for {
			select {
			case <-rctx.Done():
				return
			case <-t.C:
				d.ReclaimExpired()
			}
		}
	}()
	return p, nil
}

// hardStop kills the dispatcher the way a crash would: the HTTP server
// closes without draining and the WAL handle is simply abandoned.
func (p *dispatcherProc) hardStop() {
	p.stopReclaim()
	p.hs.Close()
}

// RunTrial runs one full chaos trial: an in-process dispatcher and two
// workers (one with a slow clock), a client sweep, the seed's fault
// schedule on every network and filesystem surface, one hard
// dispatcher restart mid-flight, then heal, convergence, and the
// invariant checks.
func RunTrial(ctx context.Context, opts TrialOptions) TrialResult {
	start := time.Now()
	res := TrialResult{Seed: opts.Seed}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", fmt.Sprintf("fcdpm-chaos-%d-", opts.Seed))
		if err != nil {
			res.Violations = append(res.Violations, "setup: "+err.Error())
			return res
		}
	}
	res.Dir = dir
	ctx, cancel := context.WithTimeout(ctx, trialTimeout)
	defer cancel()

	// The oracle: what every result row must be, byte for byte.
	specs := make([]json.RawMessage, trialShards)
	var oracle bytes.Buffer
	for i := range specs {
		specs[i] = trialSpec(opts.Seed, i)
		row, err := oracleRow(specs[i])
		if err != nil {
			res.Violations = append(res.Violations, "oracle: "+err.Error())
			return res
		}
		oracle.Write(row)
		oracle.WriteByte('\n')
	}

	plan := NewPlan(opts.Seed)
	fabricFS := plan.FS(nil, func(path string) bool {
		// Rot only self-healing blob stores: cache blobs and spool
		// entries validate on read and re-simulate or re-dispatch. The
		// WAL (dispatch.wal) is excluded — interior rot is outside its
		// torn-tail durability contract.
		return strings.HasSuffix(path, ".json")
	})

	dopts := dispatch.Options{
		Addr:     "127.0.0.1:0",
		StateDir: filepath.Join(dir, "state"),
		LeaseTTL: trialLeaseTTL,
		FS:       fabricFS,
		Logf:     logf,
	}
	disp, err := startDispatcher(dopts.Addr, dopts)
	if err != nil {
		res.Violations = append(res.Violations, "start dispatcher: "+err.Error())
		return res
	}
	dopts.Addr = disp.addr
	base := "http://" + disp.addr

	// Two workers: chaos transports on both, a 30%-slow clock on the
	// second (the skew the dispatcher's skew grace exists for), the
	// chaos FS under both spools.
	workers := make([]*dispatch.Worker, 2)
	wstop := make([]context.CancelFunc, 2)
	wdone := make([]chan error, 2)
	for i := range workers {
		wopts := dispatch.WorkerOptions{
			Dispatcher:      base,
			Name:            fmt.Sprintf("chaos-w%d", i+1),
			Workers:         2,
			PollMin:         5 * time.Millisecond,
			PollMax:         150 * time.Millisecond,
			SpoolDir:        filepath.Join(dir, fmt.Sprintf("spool-%d", i+1)),
			SpoolShedPeriod: 200 * time.Millisecond,
			Logf:            logf,
			Client: &http.Client{
				Transport: plan.Transport(fmt.Sprintf("worker-%d", i+1), nil),
				Timeout:   10 * time.Second,
			},
			FS: fabricFS,
		}
		if i == 1 {
			wopts.Clock = NewClock(skewRate)
		}
		w, err := dispatch.NewWorker(wopts)
		if err != nil {
			res.Violations = append(res.Violations, "start worker: "+err.Error())
			return res
		}
		workers[i] = w
		wctx, cancel := context.WithCancel(context.Background())
		wstop[i] = cancel
		done := make(chan error, 1)
		wdone[i] = done
		go func() { done <- w.Run(wctx) }()
	}
	stopWorkers := func() {
		for i := range workers {
			wstop[i]()
		}
		for i := range workers {
			if err := <-wdone[i]; err != nil {
				res.Violations = append(res.Violations,
					fmt.Sprintf("worker %d exited with error: %v", i+1, err))
			}
		}
	}

	// The hard restart, at a seeded instant mid-sweep: the server dies
	// without draining, a new dispatcher replays the same state dir and
	// takes over the same port.
	restartAt := 350*time.Millisecond + time.Duration(plan.fraction("trial", "restart", 0)*float64(400*time.Millisecond))
	restartDone := make(chan error, 1)
	go func() {
		select {
		case <-ctx.Done():
			restartDone <- nil
			return
		case <-time.After(restartAt):
		}
		disp.hardStop()
		time.Sleep(20 * time.Millisecond) // let severed handlers unwind
		nd, err := startDispatcher(dopts.Addr, dopts)
		if err != nil {
			restartDone <- fmt.Errorf("restart: %w", err)
			return
		}
		disp = nd
		logf("chaos: dispatcher hard-restarted on %s", dopts.Addr)
		restartDone <- nil
	}()

	// End the fault phase a seeded while after the restart, then let the
	// fabric heal. The trial ends the phase early, and waits for it, if
	// the sweep resolves first.
	faultsFor := 1300*time.Millisecond + time.Duration(plan.fraction("trial", "faults", 0)*float64(700*time.Millisecond))
	faultCtx, endFaults := context.WithCancel(ctx)
	faultsDone := make(chan struct{})
	go func() {
		defer close(faultsDone)
		select {
		case <-faultCtx.Done():
		case <-time.After(faultsFor):
		}
		plan.Stop()
		logf("chaos: fault phase over after %s", faultsFor.Round(time.Millisecond))
	}()

	// Submit through the chaos transport and wait for resolution. A
	// dropped submit response or a duplicated submit creates orphan
	// sweeps server-side; they run the same shards (idempotent by
	// content address) and the convergence check covers them via global
	// shard-state accounting.
	rows := filepath.Join(dir, "rows.ndjson")
	req := dispatch.SweepRequest{Name: "chaos", Scenarios: specs}
	copts := dispatch.ClientOptions{
		Base: base, Rows: rows, Logf: logf,
		Client: &http.Client{Transport: plan.Transport("client", nil)},
	}
	var submitErr error
	for attempt := 1; attempt <= 5; attempt++ {
		submitErr = dispatch.SubmitSweep(ctx, copts, req)
		if submitErr == nil || ctx.Err() != nil {
			break
		}
		if strings.Contains(submitErr.Error(), "shards failed") {
			break // a genuine invariant violation, not client weather
		}
		logf("chaos: sweep attempt %d: %v", attempt, submitErr)
	}
	if rerr := <-restartDone; rerr != nil {
		res.Violations = append(res.Violations, rerr.Error())
	}
	if submitErr != nil {
		res.Violations = append(res.Violations, "sweep: "+submitErr.Error())
	}
	endFaults()
	<-faultsDone

	// Convergence and invariant checks.
	res.Violations = append(res.Violations, Check(ctx, checkEnv{
		base:    base,
		dir:     dir,
		rows:    rows,
		oracle:  oracle.Bytes(),
		specs:   specs,
		workers: workers,
		logf:    logf,
	})...)

	// Post-trial accounting, then the WAL-replay check against a fresh
	// dispatcher on the same (now quiescent) state dir.
	stats, _ := fetchStats(ctx, base)
	if stats != nil {
		res.Sweeps = stats.Sweeps
	}
	for _, w := range workers {
		res.Executed += w.Stats().Executed
	}
	if n := int64(trialShards); res.Executed > n {
		res.Reexecuted = res.Executed - n
	}
	stopWorkers()
	disp.hardStop()
	disp.d.Close()
	res.Violations = append(res.Violations, CheckReplay(dopts.StateDir)...)

	res.Duration = time.Since(start)
	if res.OK() && opts.Dir == "" {
		os.RemoveAll(dir)
		res.Dir = ""
	}
	return res
}
