package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fcdpm/internal/dvs"
	"fcdpm/internal/exp"
	"fcdpm/internal/report"
	"fcdpm/internal/sim"
)

// artifact is one file of the reproduction record under out/. render
// writes the file's bytes and returns the line summary.txt lists a data
// file under; a text table returns "" and summary.txt repeats it whole.
type artifact struct {
	file   string
	render func(w io.Writer) (string, error)
}

// text adapts a table renderer to an artifact's render.
func text(render func(w io.Writer) error) func(io.Writer) (string, error) {
	return func(w io.Writer) (string, error) { return "", render(w) }
}

// artifacts is the reproduction record in summary.txt order: the
// paper's figures and tables, the ablations and beyond-paper studies
// EXPERIMENTS.md cites, then the SVG figures. exp1, exp2, motiv and
// hydrogen print through the same renderers, so at their default flags
// they print the file's bytes.
func artifacts(ctx context.Context) []artifact {
	return []artifact{
		{"fig2_stack_ivp.csv", func(w io.Writer) (string, error) {
			c := fig2Chart()
			v, p := c.curves[0], c.curves[1]
			top := 0
			for i, y := range p.ys {
				if y > p.ys[top] {
					top = i
				}
			}
			return fmt.Sprintf("Fig 2: stack Voc = %.1f V, max power %.1f W at %.2f A", v.ys[0], p.ys[top], p.xs[top]),
				writeColumns(w, []string{"ifc_a", "vfc_v", "power_w"}, c.curves...)
		}},
		{"fig3_efficiency.csv", func(w io.Writer) (string, error) {
			c, err := fig3Chart()
			if err != nil {
				return "", err
			}
			prop := c.curves[1]
			last := len(prop.xs) - 1
			return fmt.Sprintf("Fig 3: system η (prop fan) %.3f @ %.2f A -> %.3f @ %.2f A; Eq 2 model 0.45-0.13·IF",
					prop.ys[0], prop.xs[0], prop.ys[last], prop.xs[last]),
				writeColumns(w, []string{"if_a", "stack_eff", "system_prop_eff", "linear_model", "system_onoff_eff"}, c.curves...)
		}},
		{"fig4_motivational.txt", text(renderMotiv)},
		{"table2_exp1.txt", text(func(w io.Writer) error { return renderPaperTable(ctx, w, 1, 1) })},
		{"table3_exp2.txt", text(func(w io.Writer) error { return renderPaperTable(ctx, w, 2, 2) })},
		{"fig7_load.csv", fig7CSV(ctx, 0, "Fig 7a: load current", "load_a")},
		{"fig7_asap.csv", fig7CSV(ctx, 1, "Fig 7b: ASAP-DPM FC output", "if_a")},
		{"fig7_fcdpm.csv", fig7CSV(ctx, 2, "Fig 7c: FC-DPM FC output", "if_a")},
		{"ablation_capacity.csv", func(w io.Writer) (string, error) {
			pts, err := exp.CapacitySweep(ctx, 1)
			if err != nil {
				return "", err
			}
			return "Ablation: storage capacity", writeSweep(w, "cmax_as", pts)
		}},
		{"ablation_beta.csv", func(w io.Writer) (string, error) {
			pts, err := exp.BetaSweep(ctx, 1)
			if err != nil {
				return "", err
			}
			return "Ablation: efficiency slope β", writeSweep(w, "beta", pts)
		}},
		{"ablation_predictors.txt", text(func(w io.Writer) error {
			rows, err := exp.PredictorAblation(ctx, 1)
			if err != nil {
				return err
			}
			tab := report.NewTable("Ablation — idle predictors", "Predictor", "MAE", "RMSE", "FC-DPM vs Conv")
			for _, r := range rows {
				tab.AddRow(r.Predictor, fmt.Sprintf("%.2f", r.Accuracy.MAE),
					fmt.Sprintf("%.2f", r.Accuracy.RMSE), report.Percent(r.FCNormalized))
			}
			return tab.Render(w)
		})},
		{"ablation_constant_eta.txt", text(func(w io.Writer) error {
			linear, constant, err := exp.ConstantEtaAblation(ctx, 1)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "constant-eta ablation: linear-η saving vs ASAP = %s, constant-η = %s\n",
				report.Percent(linear.SavingVsASAP), report.Percent(constant.SavingVsASAP))
			return err
		})},
		{"experiment3.txt", text(func(w io.Writer) error {
			cmp, err := exp.Experiment3(ctx, 3)
			if err != nil {
				return err
			}
			rows, err := exp.Experiment3DPM(ctx, 3)
			if err != nil {
				return err
			}
			if err := renderComparison(w, "Experiment 3 — heavy-tail idle workload (beyond paper)", cmp, nil); err != nil {
				return err
			}
			tab := report.NewTable("Sleep-policy comparison under FC-DPM", "Mode", "Sleeps", "Avg Ifc (A)", "Deficit (A-s)")
			for _, r := range rows {
				tab.AddRow(r.Mode, r.Sleeps, fmt.Sprintf("%.4f", r.FCRate), fmt.Sprintf("%.3f", r.Deficit))
			}
			return tab.Render(w)
		})},
		{"ablation_levels.csv", func(w io.Writer) (string, error) {
			rows, err := exp.QuantizedSweep(ctx, 1)
			if err != nil {
				return "", err
			}
			c := report.NewCSV(w, "levels", "fuel_as", "fc_vs_conv", "gap_vs_continuous")
			for _, r := range rows {
				c.Row(float64(r.Levels), r.Fuel, r.FCNormalized, r.GapVsCont)
			}
			return "Ablation: discrete FC output levels", c.Err()
		}},
		{"ablation_slew.csv", func(w io.Writer) (string, error) {
			rows, err := exp.SlewAblation(ctx, 1)
			if err != nil {
				return "", err
			}
			c := report.NewCSV(w, "rate_aps", "asap_rate", "asap_deficit", "fc_rate", "fc_deficit")
			for _, r := range rows {
				c.Row(r.RateAps, r.ASAPRate, r.ASAPDeficit, r.FCRate, r.FCDeficit)
			}
			return "Ablation: FC output slew-rate limit", c.Err()
		}},
		{"ablation_aggregation.csv", func(w io.Writer) (string, error) {
			rows, err := exp.AggregationAblation(ctx, 1)
			if err != nil {
				return "", err
			}
			c := report.NewCSV(w, "k", "max_deferral_s", "sleeps", "fc_rate")
			for _, r := range rows {
				c.Row(float64(r.K), r.MaxDeferral, float64(r.Sleeps), r.FCRate)
			}
			return "Ablation: idle aggregation", c.Err()
		}},
		{"ablation_bounds.txt", text(func(w io.Writer) error {
			offline, online, err := exp.OfflineOracleDP(ctx, 1, 48)
			if err != nil {
				return err
			}
			ba, fc, err := exp.BatteryAwareAblation(ctx, 1)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "offline DP oracle: %.4f A; online FC-DPM: %.4f A (gap %s)\n"+
				"battery-aware shaping: %.4f A vs FC-DPM %.4f A (%s more fuel)\n",
				offline.AvgFuelRate(), online.AvgFuelRate(), report.Percent(online.AvgFuelRate()/offline.AvgFuelRate()-1),
				ba.AvgFuelRate(), fc.AvgFuelRate(), report.Percent(ba.AvgFuelRate()/fc.AvgFuelRate()-1))
			return err
		})},
		{"hydrogen.txt", text(func(w io.Writer) error { return renderHydrogen(ctx, w, 1, 10) })},
		{"ablation_flat_bound.txt", text(func(w io.Writer) error {
			flat, fc, err := exp.FlatOracle(ctx, 1)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "offline flat bound: %.4f A; online FC-DPM: %.4f A (gap %s)\n",
				flat.AvgFuelRate(), fc.AvgFuelRate(), report.Percent(fc.AvgFuelRate()/flat.AvgFuelRate()-1))
			return err
		})},
		{"multiseed.txt", text(func(w io.Writer) error {
			sum, err := exp.MultiSeed(ctx)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "Experiment 1 across %d seeds: ASAP %.1f%%±%.1f, FC-DPM %.1f%%±%.1f, saving %.1f%%±%.1f (paper: 40.8 / 30.8 / 24.4)\n",
				sum.Seeds, 100*sum.ASAPNorm.Mean, 100*sum.ASAPNorm.Stddev, 100*sum.FCNorm.Mean, 100*sum.FCNorm.Stddev,
				100*sum.SavingVsASAP.Mean, 100*sum.SavingVsASAP.Stddev)
			return err
		})},
		{"dvs_companion.txt", text(func(w io.Writer) error { return renderDVS(ctx, w) })},
		{"experiment4.txt", text(func(w io.Writer) error {
			cmp, err := exp.Experiment4(ctx, 4)
			if err != nil {
				return err
			}
			return renderComparison(w, "Experiment 4 — HDD media player on a 5 W-class FC (beyond paper)", cmp, nil)
		})},
		{"bursty_predictors.txt", text(func(w io.Writer) error {
			rows, err := exp.BurstyPredictorStudy(ctx, 4)
			if err != nil {
				return err
			}
			tab := report.NewTable("Bursty (regime-switching) workload — idle predictor choice under FC-DPM",
				"Predictor", "MAE (s)", "Over-rate", "FC-DPM vs Conv")
			for _, r := range rows {
				tab.AddRow(r.Predictor, fmt.Sprintf("%.2f", r.Accuracy.MAE),
					report.Percent(r.Accuracy.OverRate), report.Percent(r.FCNormalized))
			}
			return tab.Render(w)
		})},
		{"fig2.svg", func(w io.Writer) (string, error) { return "Fig 2 as SVG", fig2Chart().svg(w) }},
		{"fig3.svg", func(w io.Writer) (string, error) {
			c, err := fig3Chart()
			if err != nil {
				return "", err
			}
			return "Fig 3 as SVG", c.svg(w)
		}},
		{"fig7.svg", func(w io.Writer) (string, error) {
			c, err := fig7Chart(ctx, 1, fig7Window)
			if err != nil {
				return "", err
			}
			return "Fig 7 as SVG", c.svg(w)
		}},
	}
}

// cmdFigures regenerates the reproduction record: every artifact file,
// then summary.txt, which lists each data file and repeats each text
// table.
func cmdFigures(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	dir := fs.String("out", "out", "directory for the artifact files")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	var summary bytes.Buffer
	for _, a := range artifacts(ctx) {
		var buf bytes.Buffer
		note, err := a.render(&buf)
		if err != nil {
			return fmt.Errorf("%s: %w", a.file, err)
		}
		if err := os.WriteFile(filepath.Join(*dir, a.file), buf.Bytes(), 0o644); err != nil {
			return err
		}
		if note == "" {
			fmt.Fprintf(&summary, "\n%s", buf.Bytes())
		} else {
			fmt.Fprintf(&summary, "%s -> %s\n", note, a.file)
		}
	}
	if err := os.WriteFile(filepath.Join(*dir, "summary.txt"), summary.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Print(summary.String())
	fmt.Printf("\nall artifacts written to %s/\n", *dir)
	return nil
}

// paperTables are the paper's Tables 2 and 3: the title, the experiment
// each reproduces, and the paper's normalized-fuel column.
var paperTables = [...]struct {
	title string
	run   func(context.Context, uint64) (*exp.Comparison, error)
	paper map[string]string
}{
	{"Table 2 — Experiment 1 (camcorder MPEG trace)", exp.Experiment1,
		map[string]string{"Conv-DPM": "100%", "ASAP-DPM": "40.8%", "FC-DPM": "30.8%"}},
	{"Table 3 — Experiment 2 (synthetic trace)", exp.Experiment2,
		map[string]string{"Conv-DPM": "100%", "ASAP-DPM": "49.1%", "FC-DPM": "41.5%"}},
}

// renderPaperTable prints Table 2 (which = 1) or Table 3 (which = 2)
// over the trace of the given seed.
func renderPaperTable(ctx context.Context, w io.Writer, which int, seed uint64) error {
	t := paperTables[which-1]
	cmp, err := t.run(ctx, seed)
	if err != nil {
		return err
	}
	return renderComparison(w, t.title, cmp, t.paper)
}

// renderComparison prints a Table 2-style policy comparison and its
// saving line; paper, when set, fills the paper's normalized column.
func renderComparison(w io.Writer, title string, cmp *exp.Comparison, paper map[string]string) error {
	tab := report.NewTable(title, "DPM policy", "Fuel (A-s)", "Avg Ifc (A)", "Normalized", "Paper")
	for _, r := range cmp.Rows {
		tab.AddRow(r.Name, fmt.Sprintf("%.1f", r.Fuel), fmt.Sprintf("%.4f", r.AvgRate),
			report.Percent(r.Normalized), paper[r.Name])
	}
	_, err := fmt.Fprintf(w, "%sFC-DPM saving vs ASAP = %s, lifetime extension = %.2fx\n",
		tab, report.Percent(cmp.SavingVsASAP), cmp.LifetimeRatio)
	return err
}

// renderMotiv prints the §3.2 / Fig 4 worked example beside the paper's
// numbers.
func renderMotiv(w io.Writer) error {
	m, err := exp.MotivationalExample()
	if err != nil {
		return err
	}
	tab := report.NewTable("Fig 4 / §3.2 — motivational example", "Setting", "Fuel (A-s)", "Paper")
	tab.AddRow("(a) Conv-DPM", fmt.Sprintf("%.2f", m.ConvFuel), "36 (w/ Ifc≈IF)")
	tab.AddRow("(b) ASAP-DPM", fmt.Sprintf("%.2f", m.ASAPFuel), "16")
	tab.AddRow("(c) FC-DPM", fmt.Sprintf("%.2f", m.FCDPMFuel), "13.45")
	_, err = fmt.Fprintf(w, "%soptimal IF=%.3f A (paper 0.53), Ifc=%.3f A (paper 0.448), "+
		"saving vs ASAP=%s (paper 15.9%%), saving vs Conv=%s (paper 62.6%%), energy=%.0f J (paper 192)\n",
		tab, m.OptimalIF, m.OptimalIfc, report.Percent(m.SavingVsASAP), report.Percent(m.SavingVsConv), m.DeliveredEnergy)
	return err
}

// renderHydrogen prints Table 2 in physical hydrogen terms for a
// cartridge of the given mass.
func renderHydrogen(ctx context.Context, w io.Writer, seed uint64, grams float64) error {
	cmp, err := exp.Experiment1(ctx, seed)
	if err != nil {
		return err
	}
	rows, err := exp.Hydrogen(cmp, grams)
	if err != nil {
		return err
	}
	tab := report.NewTable(fmt.Sprintf("Hydrogen accounting (%.0f g cartridge, 20-cell stack)", grams),
		"Policy", "H2 (g)", "H2 (L STP)", "Cartridge life (h)", "End-to-end η")
	for _, r := range rows {
		tab.AddRow(r.Policy, fmt.Sprintf("%.3f", r.Grams), fmt.Sprintf("%.2f", r.LitresSTP),
			fmt.Sprintf("%.1f", r.LifetimeHours), report.Percent(r.EndToEndEff))
	}
	return tab.Render(w)
}

// renderDVS prints the companion study of the authors' prior work [10]:
// fuel against processor speed for a periodic task under both source
// policies, and the speed each objective picks.
func renderDVS(ctx context.Context, w io.Writer) error {
	proc := dvs.XScale600()
	proc.LeakPower = 1.1 // enough leakage that racing to idle can pay
	task := dvs.Task{Cycles: 3e8, Period: 4, Jobs: 50}
	study, err := exp.RunDVSStudy(ctx, proc, task)
	if err != nil {
		return err
	}
	tab := report.NewTable(fmt.Sprintf("DVS companion study ([10]) — %.0f Mcycles every %.0f s on %s (leak %.2f W)",
		task.Cycles/1e6, task.Period, proc.Name, proc.LeakPower),
		"Level", "Freq (MHz)", "Exec (s)", "Load (A)", "Charge/period (A-s)", "ASAP Ifc (A)", "FC-DPM Ifc (A)")
	for _, r := range study.Rows {
		tab.AddRow(fmt.Sprintf("L%d", r.Level), fmt.Sprintf("%.0f", r.FreqMHz), fmt.Sprintf("%.2f", r.ExecTime),
			fmt.Sprintf("%.3f", r.LoadA), fmt.Sprintf("%.3f", r.ChargePer),
			fmt.Sprintf("%.4f", r.ASAPRate), fmt.Sprintf("%.4f", r.FCRate))
	}
	_, err = fmt.Fprintf(w, "%senergy optimum L%d; ASAP fuel optimum L%d; FC-DPM fuel optimum L%d\n",
		tab, study.EnergyOptimal, study.ASAPOptimal, study.FCOptimal)
	return err
}

// writeSweep writes an Experiment 1 parameter sweep as CSV, x first.
func writeSweep(w io.Writer, x string, pts []exp.SweepPoint) error {
	c := report.NewCSV(w, x, "fc_vs_conv", "saving_vs_asap")
	for _, p := range pts {
		c.Row(p.X, p.FCNormalized, p.SavingVsASAP)
	}
	return c.Err()
}

// curve is one named series of a reproduced figure.
type curve struct {
	name   string
	glyph  byte // the ASCII chart's plot character
	xs, ys []float64
}

// chart is a reproduced figure: `plot` draws it in ASCII, and `figures`
// writes it as SVG and its curves as CSV.
type chart struct {
	title, xLabel, yLabel string
	step                  bool // piecewise-constant profiles
	curves                []curve
}

// add appends one point per curve at x.
func (c *chart) add(x float64, ys ...float64) {
	for i, y := range ys {
		c.curves[i].xs = append(c.curves[i].xs, x)
		c.curves[i].ys = append(c.curves[i].ys, y)
	}
}

func fig2Chart() chart {
	c := chart{title: "Fig 2 — BCS 20W stack I-V-P characteristic", xLabel: "stack current (A)", yLabel: "V / W",
		curves: []curve{{name: "Vfc (V)", glyph: 'v'}, {name: "P (W)", glyph: 'p'}}}
	for _, p := range exp.Fig2Series(80) {
		c.add(p.Ifc, p.Vfc, p.Power)
	}
	return c
}

func fig3Chart() (chart, error) {
	pts, err := exp.Fig3Series(80)
	if err != nil {
		return chart{}, err
	}
	c := chart{title: "Fig 3 — efficiency vs FC system output current", xLabel: "IF (A)", yLabel: "efficiency",
		curves: []curve{{name: "(a) stack", glyph: 's'}, {name: "(b) system, prop fan", glyph: 'b'},
			{name: "Eq 2 linear model", glyph: 'l'}, {name: "(c) system, on/off fan", glyph: 'c'}}}
	for _, p := range pts {
		c.add(p.IF, p.StackEff, p.SystemProportional, p.LinearModel, p.SystemOnOff)
	}
	return c, nil
}

// fig7Window is the span of the paper's Fig 7 profiles, in seconds.
const fig7Window = 300

// fig7Chart holds the first window seconds of Experiment 1's load and
// FC output profiles.
func fig7Chart(ctx context.Context, seed uint64, window float64) (chart, error) {
	fig, err := exp.Fig7(ctx, seed, window)
	if err != nil {
		return chart{}, err
	}
	c := chart{title: fmt.Sprintf("Fig 7 — %g s current profiles", window), xLabel: "time (s)", yLabel: "current (A)", step: true}
	for _, s := range []struct {
		curve
		pts  []sim.ProfilePoint
		load bool
	}{
		{curve{name: "load", glyph: '.'}, fig.Load, true},
		{curve{name: "ASAP-DPM IF", glyph: 'a'}, fig.ASAP, false},
		{curve{name: "FC-DPM IF", glyph: 'F'}, fig.FCDPM, false},
	} {
		for _, p := range s.pts {
			s.xs = append(s.xs, p.T)
			if s.load {
				s.ys = append(s.ys, p.Load)
			} else {
				s.ys = append(s.ys, p.IF)
			}
		}
		c.curves = append(c.curves, s.curve)
	}
	return c, nil
}

// fig7CSV renders one curve of the Fig 7 chart as its own CSV.
func fig7CSV(ctx context.Context, i int, what, column string) func(io.Writer) (string, error) {
	return func(w io.Writer) (string, error) {
		c, err := fig7Chart(ctx, 1, fig7Window)
		if err != nil {
			return "", err
		}
		cv := c.curves[i]
		return fmt.Sprintf("%s, %d s, %d pts", what, fig7Window, len(cv.xs)), writeColumns(w, []string{"t_s", column}, cv)
	}
}

// writeColumns writes curves that share their x values as CSV columns,
// x first.
func writeColumns(w io.Writer, headers []string, curves ...curve) error {
	c := report.NewCSV(w, headers...)
	row := make([]float64, 1+len(curves))
	for i, x := range curves[0].xs {
		row[0] = x
		for j, cv := range curves {
			row[j+1] = cv.ys[i]
		}
		c.Row(row...)
	}
	return c.Err()
}

func (c chart) svg(w io.Writer) error {
	s := report.NewSVGChart(c.title, c.xLabel, c.yLabel)
	add := s.Line
	if c.step {
		add = s.Step
	}
	for _, cv := range c.curves {
		if err := add(cv.name, cv.xs, cv.ys); err != nil {
			return err
		}
	}
	return s.Render(w)
}

func (c chart) ascii(w io.Writer, width int) error {
	a := report.NewChart(c.title, c.xLabel, c.yLabel)
	a.Width = width
	add := a.Line
	if c.step {
		add = a.Step
	}
	for _, cv := range c.curves {
		if err := add(cv.name, cv.glyph, cv.xs, cv.ys); err != nil {
			return err
		}
	}
	return a.Render(w)
}

func cmdExp(ctx context.Context, args []string, which int) error {
	fs := flag.NewFlagSet(fmt.Sprintf("exp%d", which), flag.ContinueOnError)
	seed := fs.Uint64("seed", uint64(which), "trace seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	return renderPaperTable(ctx, os.Stdout, which, *seed)
}

func cmdMotiv(args []string) error {
	fs := flag.NewFlagSet("motiv", flag.ContinueOnError)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	return renderMotiv(os.Stdout)
}

func cmdHydrogen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("hydrogen", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "trace seed")
	grams := fs.Float64("cartridge", 10, "H2 cartridge mass in grams")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	return renderHydrogen(ctx, os.Stdout, *seed, *grams)
}

func cmdPlot(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("plot", flag.ContinueOnError)
	what := fs.String("what", "fig7", "chart: fig7, fig2, or fig3")
	seed := fs.Uint64("seed", 1, "trace seed (fig7)")
	window := fs.Float64("window", fig7Window, "profile window in seconds (fig7)")
	width := fs.Int("width", 96, "chart width in characters (at least 16)")
	if err := parseFlags(fs, args, "window"); err != nil {
		return err
	}
	if *width < report.MinChartWidth {
		return usagef("plot: -width must be at least %d", report.MinChartWidth)
	}
	var c chart
	var err error
	switch *what {
	case "fig7":
		c, err = fig7Chart(ctx, *seed, *window)
	case "fig2":
		c = fig2Chart()
	case "fig3":
		c, err = fig3Chart()
	default:
		return usagef("unknown chart %q (want fig7, fig2 or fig3)", *what)
	}
	if err != nil {
		return err
	}
	return c.ascii(os.Stdout, *width)
}
