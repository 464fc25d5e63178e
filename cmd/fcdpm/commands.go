package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"fcdpm/internal/config"
	"fcdpm/internal/exp"
	"fcdpm/internal/numeric"
	"fcdpm/internal/report"
	"fcdpm/internal/runner"
	"fcdpm/internal/runreport"
	"fcdpm/internal/sim"
	"fcdpm/internal/version"
	"fcdpm/internal/vfs"
)

// parseFlags parses the flags of a subcommand that takes no operands;
// a stray operand is a usage error, and so is a flag named in positive
// whose value is not above zero: a number the command cannot use, or a
// zero a spec would read as "use the default".
func parseFlags(fs *flag.FlagSet, args []string, positive ...string) error {
	if err := parseOperands(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("%s: unexpected arguments %q", fs.Name(), fs.Args())
	}
	for _, name := range positive {
		if v, err := strconv.ParseFloat(fs.Lookup(name).Value.String(), 64); err != nil || !(v > 0) {
			return usagef("%s: -%s must be positive", fs.Name(), name)
		}
	}
	return nil
}

// parseOperands parses args and leaves the operands in fs.Args(). It
// classifies failures: -h/--help propagates flag.ErrHelp (exit 0),
// anything else — an unknown flag, a malformed value — is a usage error
// (exit 2).
func parseOperands(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usagef("%s: %v", fs.Name(), err)
	}
	return nil
}

// flagLine renders every flag of a daemon's flag set at its effective
// value, defaults included, in one line: the daemons log it at startup,
// so a log says what the process ran with. An empty value or one with
// spaces is quoted.
func flagLine(fs *flag.FlagSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fcdpm %s flags:", fs.Name())
	fs.VisitAll(func(f *flag.Flag) {
		v := f.Value.String()
		if v == "" || strings.ContainsAny(v, " \t") {
			v = strconv.Quote(v)
		}
		fmt.Fprintf(&b, " -%s=%s", f.Name, v)
	})
	return b.String()
}

// secondsFlag converts a -timeout style seconds value to a Duration;
// zero or negative means "no deadline".
func secondsFlag(s float64) time.Duration {
	if s <= 0 {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}

// outWriter opens the -out target, defaulting to stdout.
func outWriter(path string) (io.Writer, func() error, error) {
	if path == "" || path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func cmdCurves(args []string) error {
	fs := flag.NewFlagSet("curves", flag.ContinueOnError)
	points := fs.Int("points", 60, "samples per curve")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// A curve runs from its first sample to its last.
	if *points < 2 {
		return usagef("curves: -points must be at least 2, got %d", *points)
	}
	fig3, err := exp.Fig3Series(*points)
	if err != nil {
		return err
	}
	tab := report.NewTable("Fig 2 — stack I-V-P", "Ifc (A)", "Vfc (V)", "P (W)")
	for _, p := range exp.Fig2Series(*points) {
		tab.AddRow(fmt.Sprintf("%.3f", p.Ifc), fmt.Sprintf("%.2f", p.Vfc), fmt.Sprintf("%.2f", p.Power))
	}
	fmt.Print(tab)
	tab3 := report.NewTable("\nFig 3 — efficiencies", "IF (A)", "stack", "sys prop", "Eq2", "sys on/off")
	for _, p := range fig3 {
		tab3.AddRow(fmt.Sprintf("%.3f", p.IF), report.Percent(p.StackEff),
			report.Percent(p.SystemProportional), report.Percent(p.LinearModel),
			report.Percent(p.SystemOnOff))
	}
	fmt.Print(tab3)
	return nil
}

// kindUsage documents the -kind flag: every generated trace kind a spec
// names.
const kindUsage = "trace kind: camcorder, synthetic, bursty, heavytail, racksurge, or dvs"

// flagScenario is the spec the shared trace flags describe: a -kind
// trace with -seed and -duration, on the synthetic device for the
// synthetic trace and on the camcorder for every other kind.
func flagScenario(kind string, seed uint64, duration float64) *config.Scenario {
	s := &config.Scenario{Trace: config.TraceSpec{Kind: kind, Seed: seed, Duration: duration}}
	if strings.EqualFold(strings.TrimSpace(kind), "synthetic") {
		s.Device.Kind = "synthetic"
	}
	return s
}

// buildFlags builds a spec filled from fs's flags. Since every value
// came from the command line, a spec the config package refuses is a
// usage error.
func buildFlags(fs *flag.FlagSet, s *config.Scenario) (sim.Config, error) {
	cfg, err := s.Build()
	var ve *config.ValidationError
	if errors.As(err, &ve) {
		return cfg, usagef("%s: %v", fs.Name(), err)
	}
	return cfg, err
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	kind := fs.String("kind", "camcorder", kindUsage)
	seed := fs.Uint64("seed", 1, "generator seed")
	duration := fs.Float64("duration", 0, "trace duration in seconds (0 = paper default)")
	format := fs.String("format", "csv", "output format: csv or json")
	out := fs.String("out", "", "output file (default stdout)")
	if err := parseFlags(fs, args, "seed"); err != nil {
		return err
	}
	cfg, err := buildFlags(fs, flagScenario(*kind, *seed, *duration))
	if err != nil {
		return err
	}
	w, closeFn, err := outWriter(*out)
	if err != nil {
		return err
	}
	defer closeFn()
	switch *format {
	case "csv":
		return cfg.Trace.WriteCSV(w)
	case "json":
		return cfg.Trace.WriteJSON(w)
	default:
		return usagef("unknown format %q (want csv or json)", *format)
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	polName := fs.String("policy", "fcdpm", "policy: conv, asap, fcdpm, flat, or quantized")
	kind := fs.String("kind", "camcorder", kindUsage)
	seed := fs.Uint64("seed", 1, "generator seed")
	duration := fs.Float64("duration", 0, "trace duration in seconds (0 = paper default)")
	cmax := fs.Float64("cmax", 6, "storage capacity in A-s")
	reserve := fs.Float64("reserve", 1, "initial/target storage charge in A-s")
	flatIF := fs.Float64("flat", 0.5, "fixed output for -policy flat, A")
	fuel := fs.Float64("fuel", 3600, "fuel budget for lifetime report, stack A-s")
	if err := parseFlags(fs, args, "seed", "cmax", "reserve", "flat"); err != nil {
		return err
	}
	scen := flagScenario(*kind, *seed, *duration)
	scen.Storage = config.StorageSpec{CapacityAs: *cmax, InitialAs: *reserve}
	scen.Policy = config.PolicySpec{Kind: *polName, FlatIF: *flatIF}
	cfg, err := buildFlags(fs, scen)
	if err != nil {
		return err
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	tab := report.NewTable(fmt.Sprintf("%s over %s (seed %d)", res.Policy, cfg.Trace.Name, *seed), "Metric", "Value")
	tab.AddRow("slots", res.Slots)
	tab.AddRow("sleep decisions", res.Sleeps)
	tab.AddRow("duration (s)", fmt.Sprintf("%.1f", res.Duration))
	tab.AddRow("fuel (stack A-s)", fmt.Sprintf("%.1f", res.Fuel))
	tab.AddRow("avg stack current (A)", fmt.Sprintf("%.4f", res.AvgFuelRate()))
	tab.AddRow("delivered energy (J)", fmt.Sprintf("%.0f", res.DeliveredEnergy))
	tab.AddRow("load energy (J)", fmt.Sprintf("%.0f", res.LoadEnergy))
	tab.AddRow("bled charge (A-s)", fmt.Sprintf("%.2f", res.Bled))
	tab.AddRow("deficit charge (A-s)", fmt.Sprintf("%.3f", res.Deficit))
	tab.AddRow("final storage (A-s)", fmt.Sprintf("%.2f", res.FinalCharge))
	tab.AddRow(fmt.Sprintf("lifetime @ %.0f A-s fuel (s)", *fuel), fmt.Sprintf("%.0f", res.Lifetime(*fuel)))
	fmt.Print(tab)
	return nil
}

func cmdSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	what := fs.String("what", "capacity", "sweep: capacity, beta, or rho")
	seed := fs.Uint64("seed", 1, "trace seed")
	remote := fs.String("remote", "", "dispatcher URL; submit scenario-file operands as a distributed sweep instead of the local ablation")
	name := fs.String("name", "", "sweep name (with -remote)")
	rows := fs.String("rows", "", "write result rows (NDJSON) to this file, or - for stdout (with -remote)")
	if err := parseOperands(fs, args); err != nil {
		return err
	}
	if *remote != "" {
		if fs.NArg() == 0 {
			return usagef("usage: fcdpm sweep -remote URL [-name NAME] [-rows FILE] <scenario.json>...")
		}
		return remoteSweep(ctx, *remote, *name, *rows, fs.Args())
	}
	if fs.NArg() != 0 {
		return usagef("scenario operands need -remote; the local ablation sweep takes none")
	}
	var pts []exp.SweepPoint
	var err error
	var xName string
	switch *what {
	case "capacity":
		pts, err = exp.CapacitySweep(ctx, *seed)
		xName = "Cmax (A-s)"
	case "beta":
		pts, err = exp.BetaSweep(ctx, *seed)
		xName = "beta"
	case "rho":
		pts, err = exp.RhoSweep(ctx, *seed)
		xName = "rho"
	default:
		return usagef("unknown sweep %q (want capacity, beta or rho)", *what)
	}
	if err != nil {
		return err
	}
	tab := report.NewTable(fmt.Sprintf("%s sweep (Experiment 1 setup)", *what), xName, "FC-DPM vs Conv", "Saving vs ASAP")
	for _, p := range pts {
		tab.AddRow(p.X, report.Percent(p.FCNormalized), report.Percent(p.SavingVsASAP))
	}
	fmt.Print(tab)
	return nil
}

func cmdOracle(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("oracle", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "trace seed")
	grid := fs.Int("grid", 48, "DP storage-grid intervals")
	if err := parseFlags(fs, args, "grid"); err != nil {
		return err
	}
	offline, online, err := exp.OfflineOracleDP(ctx, *seed, *grid)
	if err != nil {
		return err
	}
	tab := report.NewTable("Offline DP oracle vs online FC-DPM (Experiment 1 setup)",
		"Policy", "Fuel (A-s)", "Avg Ifc (A)")
	tab.AddRow(offline.Policy, fmt.Sprintf("%.1f", offline.Fuel), fmt.Sprintf("%.4f", offline.AvgFuelRate()))
	tab.AddRow(online.Policy, fmt.Sprintf("%.1f", online.Fuel), fmt.Sprintf("%.4f", online.AvgFuelRate()))
	fmt.Print(tab)
	fmt.Printf("online prediction cost: %s above the offline DP schedule\n",
		report.Percent(online.AvgFuelRate()/offline.AvgFuelRate()-1))
	return nil
}

func cmdLevels(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("levels", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "trace seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	rows, err := exp.QuantizedSweep(ctx, *seed)
	if err != nil {
		return err
	}
	tab := report.NewTable("Discrete FC output levels (multi-level config of [11])",
		"Levels", "Fuel (A-s)", "FC-DPM vs Conv", "Gap vs continuous")
	for _, r := range rows {
		name := fmt.Sprintf("%d", r.Levels)
		if r.Levels == 0 {
			name = "continuous"
		}
		tab.AddRow(name, fmt.Sprintf("%.1f", r.Fuel), report.Percent(r.FCNormalized),
			report.Percent(r.GapVsCont))
	}
	fmt.Print(tab)
	return nil
}

func cmdRunFile(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("runfile", flag.ContinueOnError)
	if err := parseOperands(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("usage: fcdpm runfile <scenario.json>")
	}
	scen, err := config.LoadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cfg, err := scen.Build()
	if err != nil {
		return err
	}
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return err
	}
	title := scen.Name
	if title == "" {
		title = fs.Arg(0)
	}
	tab := report.NewTable(fmt.Sprintf("scenario %q: %s over %s", title, res.Policy, cfg.Trace.Name),
		"Metric", "Value")
	tab.AddRow("slots", res.Slots)
	tab.AddRow("sleep decisions", res.Sleeps)
	tab.AddRow("duration (s)", fmt.Sprintf("%.1f", res.Duration))
	tab.AddRow("fuel (stack A-s)", fmt.Sprintf("%.1f", res.Fuel))
	tab.AddRow("avg stack current (A)", fmt.Sprintf("%.4f", res.AvgFuelRate()))
	tab.AddRow("bled charge (A-s)", fmt.Sprintf("%.2f", res.Bled))
	tab.AddRow("deficit charge (A-s)", fmt.Sprintf("%.3f", res.Deficit))
	tab.AddRow("final storage (A-s)", fmt.Sprintf("%.2f", res.FinalCharge))
	if cfg.Faults != nil || len(cfg.Fallbacks) > 0 {
		tab.AddRow("shed charge (A-s)", fmt.Sprintf("%.3f", res.Shed))
		tab.AddRow("policy fallbacks", res.Fallbacks)
		tab.AddRow("final policy", res.FinalPolicy)
	}
	fmt.Print(tab)
	if len(res.Events) > 0 {
		fmt.Println("\nrun events:")
		for _, e := range res.Events {
			fmt.Printf("  %s\n", e)
		}
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	kind := fs.String("kind", "camcorder", kindUsage)
	seed := fs.Uint64("seed", 1, "generator seed")
	duration := fs.Float64("duration", 0, "trace duration in seconds (0 = default)")
	if err := parseFlags(fs, args, "seed"); err != nil {
		return err
	}
	cfg, err := buildFlags(fs, flagScenario(*kind, *seed, *duration))
	if err != nil {
		return err
	}
	tr := cfg.Trace
	st := tr.Statistics()
	tab := report.NewTable(fmt.Sprintf("trace statistics: %s", tr.Name), "Metric", "Value")
	tab.AddRow("slots", st.Slots)
	tab.AddRow("duration (s)", fmt.Sprintf("%.1f", st.Duration))
	tab.AddRow("active duty cycle", report.Percent(st.ActiveDutyCycle))
	tab.AddRow("idle mean/median (s)", fmt.Sprintf("%.2f / %.2f", st.Idle.Mean, st.Idle.Median))
	tab.AddRow("idle min/max (s)", fmt.Sprintf("%.2f / %.2f", st.Idle.Min, st.Idle.Max))
	tab.AddRow("idle stddev (s)", fmt.Sprintf("%.2f", st.Idle.Stddev))
	tab.AddRow("idle p10/p90 (s)", fmt.Sprintf("%.2f / %.2f", st.Idle.P10, st.Idle.P90))
	tab.AddRow("active mean (s)", fmt.Sprintf("%.2f", st.Active.Mean))
	tab.AddRow("active current mean (A)", fmt.Sprintf("%.3f", st.ActiveCurrent.Mean))
	fmt.Print(tab)
	fmt.Println("\nidle-length distribution:")
	h, err := numeric.NewHistogram(tr.IdleLengths(), 12, st.Idle.Min, st.Idle.Max+1e-9)
	if err != nil {
		return err
	}
	fmt.Print(h.Render(48))
	return nil
}

func cmdVerify(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "trace seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	checks, err := exp.Conformance(ctx, *seed)
	if err != nil {
		return err
	}
	tab := report.NewTable("Reproduction conformance suite", "Check", "Measured", "Band", "Paper", "Verdict")
	for _, c := range checks {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		tab.AddRow(c.Name, fmt.Sprintf("%.4g", c.Measured),
			fmt.Sprintf("[%.4g, %.4g]", c.Lo, c.Hi), c.Paper, verdict)
	}
	fmt.Print(tab)
	if !exp.Passed(checks) {
		return fmt.Errorf("conformance suite failed")
	}
	fmt.Println("all checks passed")
	return nil
}

func cmdAblate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ablate", flag.ContinueOnError)
	what := fs.String("what", "", "ablation: thermal, actuation, battery, aggregation, calibration, slew, mpc, timeout, storage, dpm")
	seed := fs.Uint64("seed", 1, "trace seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	switch *what {
	case "thermal":
		rows, err := exp.ThermalStressAblation(ctx, *seed)
		if err != nil {
			return err
		}
		tab := report.NewTable("Stack thermal stress (post-warm-up)", "Policy", "Mean (°C)", "Swing (°C)", "Cycles")
		for _, r := range rows {
			tab.AddRow(r.Policy, fmt.Sprintf("%.1f", r.Stress.Mean), fmt.Sprintf("%.1f", r.Stress.Swing), r.Stress.CycleCount)
		}
		fmt.Print(tab)
	case "actuation":
		rows, err := exp.ActuationAblation(ctx, *seed)
		if err != nil {
			return err
		}
		tab := report.NewTable("Actuation dead band", "ε (A)", "Set-point commands", "Avg Ifc (A)")
		for _, r := range rows {
			tab.AddRow(r.Epsilon, r.Setpoints, fmt.Sprintf("%.4f", r.FCRate))
		}
		fmt.Print(tab)
	case "battery":
		ba, fc, err := exp.BatteryAwareAblation(ctx, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("battery-aware shaping: %.4f A avg Ifc vs FC-DPM %.4f A (%s more fuel)\n",
			ba.AvgFuelRate(), fc.AvgFuelRate(), report.Percent(ba.AvgFuelRate()/fc.AvgFuelRate()-1))
	case "aggregation":
		rows, err := exp.AggregationAblation(ctx, *seed)
		if err != nil {
			return err
		}
		tab := report.NewTable("Idle aggregation ([6, 7])", "k", "Max deferral (s)", "Sleeps", "Avg Ifc (A)")
		for _, r := range rows {
			tab.AddRow(r.K, fmt.Sprintf("%.1f", r.MaxDeferral), r.Sleeps, fmt.Sprintf("%.4f", r.FCRate))
		}
		fmt.Print(tab)
	case "calibration":
		rows, err := exp.CalibrationUncertainty(ctx, *seed)
		if err != nil {
			return err
		}
		tab := report.NewTable("±10% calibration box on (α, β)", "α", "β", "FC-DPM vs Conv", "Saving vs ASAP")
		for _, r := range rows {
			tab.AddRow(fmt.Sprintf("%.3f", r.Alpha), fmt.Sprintf("%.3f", r.Beta),
				report.Percent(r.FCNormalized), report.Percent(r.SavingVsASAP))
		}
		fmt.Print(tab)
	case "slew":
		rows, err := exp.SlewAblation(ctx, *seed)
		if err != nil {
			return err
		}
		tab := report.NewTable("FC output slew-rate limit", "Rate (A/s)", "ASAP Ifc", "ASAP deficit", "FC-DPM Ifc", "FC-DPM deficit")
		for _, r := range rows {
			tab.AddRow(r.RateAps, fmt.Sprintf("%.4f", r.ASAPRate), fmt.Sprintf("%.2f", r.ASAPDeficit),
				fmt.Sprintf("%.4f", r.FCRate), fmt.Sprintf("%.2f", r.FCDeficit))
		}
		fmt.Print(tab)
	case "mpc":
		rows, err := exp.MPCAblation(ctx, *seed)
		if err != nil {
			return err
		}
		tab := report.NewTable("Receding-horizon FC-DPM", "Horizon", "Avg Ifc (A)", "Deficit (A-s)")
		for _, r := range rows {
			tab.AddRow(r.Horizon, fmt.Sprintf("%.4f", r.FCRate), fmt.Sprintf("%.3f", r.Deficit))
		}
		fmt.Print(tab)
	case "timeout":
		pred, timeout, err := exp.TimeoutAblation(ctx, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("predictive %.4f A vs timeout(Tbe) %.4f A (dwell cost %s)\n",
			pred.AvgFuelRate(), timeout.AvgFuelRate(),
			report.Percent(timeout.AvgFuelRate()/pred.AvgFuelRate()-1))
	case "storage":
		super, liion, err := exp.StorageModelAblation(ctx, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("supercap FC-DPM %s of Conv; KiBaM Li-ion %s\n",
			report.Percent(super.Row("FC-DPM").Normalized), report.Percent(liion.Row("FC-DPM").Normalized))
	case "dpm":
		modes, err := exp.DPMModeAblation(ctx, *seed)
		if err != nil {
			return err
		}
		tab := report.NewTable("Device-side DPM modes (FC-DPM source)", "Mode", "Avg Ifc (A)", "Sleeps")
		for _, name := range []string{"predictive", "oracle-sleep", "always-sleep", "never-sleep"} {
			r := modes[name].Row("FC-DPM")
			tab.AddRow(name, fmt.Sprintf("%.4f", r.AvgRate), r.Sleeps)
		}
		fmt.Print(tab)
	default:
		return usagef("unknown ablation %q", *what)
	}
	return nil
}

func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ContinueOnError)
	kind := fs.String("kind", "camcorder", kindUsage)
	seed := fs.Uint64("seed", 1, "generator seed")
	if err := parseFlags(fs, args, "seed"); err != nil {
		return err
	}
	cfg, err := buildFlags(fs, flagScenario(*kind, *seed, 0))
	if err != nil {
		return err
	}
	tr, dev := cfg.Trace, cfg.Dev
	a, err := exp.Advise(cfg.Sys, dev, tr)
	if err != nil {
		return err
	}
	tab := report.NewTable(fmt.Sprintf("hybrid sizing advice — %s on %s", tr.Name, dev.Name), "Quantity", "Value")
	tab.AddRow("peak load (A)", fmt.Sprintf("%.3f", a.PeakLoad))
	tab.AddRow("DPM-average load (A)", fmt.Sprintf("%.3f", a.AvgLoad))
	verdict := "yes"
	if !a.RangeOK {
		verdict = "NO — grow the stack or shrink the load"
	}
	tab.AddRow("FC range covers average?", verdict)
	tab.AddRow("min storage for FC-DPM (A-s)", fmt.Sprintf("%.2f", a.StorageNeeded))
	tab.AddRow("recommended Cmax (A-s)", fmt.Sprintf("%.2f", a.RecommendedCmax))
	tab.AddRow("recommended reserve (A-s)", fmt.Sprintf("%.2f", a.RecommendedReserve))
	fmt.Print(tab)
	return nil
}

// batchRow is the JSON-serializable slice of a simulation result that
// the batch table needs; it is also what lands in the checkpoint
// journal, so resumed rows render identically to fresh ones.
type batchRow struct {
	Policy  string  `json:"policy"`
	Fuel    float64 `json:"fuel"`
	AvgRate float64 `json:"avgRate"`
	Deficit float64 `json:"deficit"`
	// Row is the rendered runreport body -rows writes.
	Row json.RawMessage `json:"row"`
}

func cmdBatch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	pf := addPoolFlags(fs, "scenario").addJournal(fs, "scenario")
	mf := addMetricsFlag(fs)
	rows := fs.String("rows", "", "write result rows (NDJSON, one runreport body per scenario in operand order) to this file, or - for stdout; byte-identical to the same sweep run remotely")
	if err := parseOperands(fs, args); err != nil {
		return err
	}
	mf.init()
	defer mf.dump()
	paths := fs.Args()
	if len(paths) == 0 {
		return usagef("usage: fcdpm batch [-workers N] [-timeout S] [-journal FILE] <scenario.json>...")
	}
	// Load and validate every scenario up front: malformed files are
	// caller problems, not run failures.
	scens, err := config.LoadFiles(paths)
	if err != nil {
		return err
	}
	engine := version.Engine()
	names := make([]string, len(scens))
	tasks := make([]runner.Task[batchRow], 0, len(paths))
	for i, scen := range scens {
		name := scen.Name
		if name == "" {
			name = paths[i]
		}
		names[i] = name
		key, err := scen.CacheKey(engine)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
		// The row name labels the journal entry the way the dispatcher
		// labels shards (scenario name, else cell index); the rendered
		// body names itself from the spec.
		rowName := scen.Name
		if rowName == "" {
			rowName = fmt.Sprintf("cell-%04d", i)
		}
		cells := []runreport.Cell{{Spec: scen, Key: key}}
		tasks = append(tasks, runner.Task[batchRow]{
			// Keyed by the content address the row renders from, so a
			// journal entry resumes only the row it recorded, whatever
			// the file path.
			ID: runner.RunID("batch", "key="+key, "row="+rowName),
			Run: func(ctx context.Context) (batchRow, error) {
				row := runreport.Execute(ctx, engine, cells, mf.sim, mf.batch)[0]
				if row.Err != nil {
					return batchRow{}, fmt.Errorf("scenario %s: %w", name, row.Err)
				}
				res := row.Res
				return batchRow{
					Policy: res.Policy, Fuel: res.Fuel,
					AvgRate: res.AvgFuelRate(), Deficit: res.Deficit,
					Row: row.Body,
				}, nil
			},
		})
	}
	popts := pf.options()
	popts.Metrics = mf.pool
	rep, runErr := runner.Run(ctx, popts, tasks)
	if rep == nil {
		return runErr
	}
	tab := report.NewTable("batch results", "Scenario", "Policy", "Fuel (A-s)", "Avg Ifc (A)", "Deficit (A-s)", "Status")
	for i, o := range rep.Outcomes {
		switch o.Status {
		case runner.StatusDone, runner.StatusResumed:
			status := "done"
			if o.Status == runner.StatusResumed {
				status = "resumed"
			}
			r := o.Result
			tab.AddRow(names[i], r.Policy, fmt.Sprintf("%.1f", r.Fuel),
				fmt.Sprintf("%.4f", r.AvgRate), fmt.Sprintf("%.3f", r.Deficit), status)
		case runner.StatusFailed:
			tab.AddRow(names[i], "ERROR: "+o.Err.Error(), "", "", "", "failed")
		default:
			tab.AddRow(names[i], "", "", "", "", string(o.Status))
		}
	}
	// With -rows - the NDJSON owns stdout; the human table moves to
	// stderr so piped rows stay parseable.
	tabOut := io.Writer(os.Stdout)
	if *rows == "-" {
		tabOut = os.Stderr
	}
	fmt.Fprint(tabOut, tab)
	if rep.Resumed > 0 || rep.Interrupted > 0 {
		fmt.Fprintf(tabOut, "\n%d of %d scenarios resumed from journal, %d interrupted\n",
			rep.Resumed, len(rep.Outcomes), rep.Interrupted)
	}
	if runErr != nil {
		if errors.Is(runErr, runner.ErrInterrupted) && *pf.journal != "" {
			fmt.Fprintf(os.Stderr, "batch interrupted; re-run the same command to resume from %s\n", *pf.journal)
		}
		return runErr
	}
	if err := rep.FirstError(); err != nil {
		return err
	}
	if *rows != "" {
		return writeBatchRows(*rows, names, rep.Outcomes)
	}
	return nil
}

// writeBatchRows writes the rendered runreport bodies as NDJSON in
// operand order — the same order and bytes a dispatcher serves for the
// equivalent remote sweep.
func writeBatchRows(path string, names []string, outcomes []runner.Outcome[batchRow]) error {
	var buf bytes.Buffer
	for i, o := range outcomes {
		if len(o.Result.Row) == 0 {
			return fmt.Errorf("batch: %s resolved without a rendered row; delete the journal and re-run", names[i])
		}
		buf.Write(o.Result.Row)
		buf.WriteByte('\n')
	}
	if path == "-" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	return vfs.Default.WriteFileAtomic(path, buf.Bytes())
}

func cmdRobust(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("robust", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "base seed")
	trials := fs.Int("trials", 20, "Monte-Carlo trials")
	pct := fs.Float64("pct", 0.1, "relative perturbation of device/efficiency parameters")
	if err := parseFlags(fs, args, "trials"); err != nil {
		return err
	}
	r, err := exp.RobustnessStudy(ctx, *seed, *trials, *pct)
	if err != nil {
		return err
	}
	tab := report.NewTable(fmt.Sprintf("Monte-Carlo robustness (±%.0f%% on device + efficiency, %d trials)",
		*pct*100, r.Trials), "Metric", "Value")
	tab.AddRow("FC-DPM wins", fmt.Sprintf("%d / %d", r.Wins, r.Trials))
	tab.AddRow("saving vs ASAP mean ± std", fmt.Sprintf("%s ± %s",
		report.Percent(r.Saving.Mean), report.Percent(r.Saving.Stddev)))
	tab.AddRow("saving min / max", fmt.Sprintf("%s / %s",
		report.Percent(r.Saving.Min), report.Percent(r.Saving.Max)))
	tab.AddRow("FC-DPM vs Conv mean", report.Percent(r.FCNorm.Mean))
	fmt.Print(tab)
	return nil
}

func cmdCharge(args []string) error {
	fs := flag.NewFlagSet("charge", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "trace seed")
	window := fs.Float64("window", 120, "window in seconds")
	width := fs.Int("width", 96, "chart width in characters (at least 16)")
	polName := fs.String("policy", "fcdpm", "policy: conv, asap, fcdpm, flat, or quantized")
	if err := parseFlags(fs, args, "seed", "window"); err != nil {
		return err
	}
	if *width < report.MinChartWidth {
		return usagef("charge: -width must be at least %d", report.MinChartWidth)
	}
	scen := flagScenario("camcorder", *seed, 0)
	scen.Policy.Kind = *polName
	cfg, err := buildFlags(fs, scen)
	if err != nil {
		return err
	}
	cfg.Record = sim.RecordFull
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	var ts, qs []float64
	for _, p := range res.Charges {
		if p.T > *window {
			break
		}
		ts = append(ts, p.T)
		qs = append(qs, p.Q)
	}
	c := report.NewChart(fmt.Sprintf("storage charge trajectory — %s (the Fig 4(c) cycle, live)", res.Policy),
		"time (s)", "charge (A-s)")
	c.Width = *width
	if err := c.Step("charge", 'q', ts, qs); err != nil {
		return err
	}
	return c.Render(os.Stdout)
}

// faultClassHelp pairs each fault class with a one-line description for
// the `fcdpm faults -list` output.
var faultClassHelp = []struct{ name, desc string }{
	{"stack-dropout", "FC output cut entirely (stack stall / fuel starvation)"},
	{"stack-derate", "deliverable FC output limited to a fraction of nominal"},
	{"efficiency-degrade", "every delivered amp burns more fuel (membrane dry-out)"},
	{"capacity-fade", "storage capacity shrinks; charge above it is lost"},
	{"dcdc-dropout", "converter brown-out: no power reaches the bus"},
	{"sensor-noise", "predictor inputs corrupted by multiplicative noise"},
	{"load-surge", "embedded-system load scaled beyond the traced workload"},
}

func cmdFaults(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("faults", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "trace and sensor-noise seed")
	list := fs.Bool("list", false, "only list the fault classes")
	pf := addPoolFlags(fs, "cell").addJournal(fs, "cell")
	mf := addMetricsFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	mf.init()
	defer mf.dump()
	tab := report.NewTable("fault classes", "Class", "Effect")
	for _, c := range faultClassHelp {
		tab.AddRow(c.name, c.desc)
	}
	fmt.Print(tab)
	if *list {
		return nil
	}
	popts := pf.options()
	popts.Metrics = mf.pool
	res, err := exp.FaultSweep(ctx, version.Engine(), *seed, popts, mf.sim)
	if err != nil && (res == nil || !errors.Is(err, runner.ErrInterrupted)) {
		return err
	}
	fmt.Println()
	sweep := report.NewTable(res.Scenario,
		"Fault", "Policy", "Fuel (A-s)", "Deficit (A-s)", "Shed (A-s)", "Fallbacks", "Final policy", "Survived")
	for _, r := range res.Rows {
		sweep.AddRow(r.Class, r.Policy,
			fmt.Sprintf("%.1f", r.Fuel),
			fmt.Sprintf("%.3f", r.Deficit),
			fmt.Sprintf("%.3f", r.Shed),
			r.Fallbacks, r.FinalPolicy, r.Survived)
	}
	fmt.Print(sweep)
	fmt.Println("\neach faulted run degrades through its fallback chain " +
		"(FC-DPM -> ASAP -> Conv -> load-shed) when the supervisor trips; " +
		"'survived' means unplanned unmet load stayed under 1 % of the load charge.")
	if res.Resumed > 0 {
		fmt.Printf("\n%d cells resumed from journal %s\n", res.Resumed, *pf.journal)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fault sweep interrupted with %d cells pending; "+
			"re-run with the same -journal to resume\n", res.Interrupted)
		return err
	}
	return nil
}
