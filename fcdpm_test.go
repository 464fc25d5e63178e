package fcdpm

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestReadmeQuickStartIsExample keeps the README's library snippet equal
// to Example, whose code go test compiles and whose output it checks:
// the README shows Example's body one tab shallower under the import
// line, ending with its output as a comment.
func TestReadmeQuickStartIsExample(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, fn, ok := strings.Cut(string(src), "func Example() {\n")
	if !ok {
		t.Fatal("example_test.go has no func Example")
	}
	body, _, _ := strings.Cut(fn, "\n}\n")
	lines := strings.Split(body, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimPrefix(l, "\t")
	}
	shown := strings.Replace(strings.Join(lines, "\n"), "// Output:\n", "", 1)
	snippet := "```go\nimport \"fcdpm\"\n\n" + shown + "\n```"
	if !strings.Contains(string(readme), snippet) {
		t.Fatalf("README.md does not show Example; want the block\n%s", snippet)
	}
}

func TestFacadePolicyOrdering(t *testing.T) {
	sys := PaperSystem()
	dev := Camcorder()
	trace, err := CamcorderTrace(2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p Policy) *Result {
		res, err := Run(SimConfig{
			Sys: sys, Dev: dev,
			Store: MustSuperCap(6, 1), Trace: trace, Policy: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	conv := run(NewConv(sys))
	asap := run(NewASAP(sys))
	fc := run(NewFCDPM(sys, dev))
	if !(fc.Fuel < asap.Fuel && asap.Fuel < conv.Fuel) {
		t.Fatalf("ordering broken: fc=%v asap=%v conv=%v", fc.Fuel, asap.Fuel, conv.Fuel)
	}
}

func TestFacadeOptimizeSlot(t *testing.T) {
	set, err := OptimizeSlot(PaperSystem(), 200, OptSlot{Ti: 20, IldI: 0.2, Ta: 10, IldA: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(set.IFi-16.0/30) > 1e-9 {
		t.Fatalf("IFi = %v", set.IFi)
	}
}

func TestFacadeExperiments(t *testing.T) {
	c2, err := Experiment2(1)
	if err != nil {
		t.Fatal(err)
	}
	if c2.SavingVsASAP <= 0 {
		t.Fatalf("Exp2 saving = %v", c2.SavingVsASAP)
	}
}

func TestFacadePredictors(t *testing.T) {
	series := []float64{8, 12, 20, 9, 15}
	for _, p := range []Predictor{
		MustExpAverage(0.5, 14), NewLastValue(14),
		MustRegressionPredictor(3, 14), MustTreePredictor(4, 1, 8, 20, 14),
		MustMarkovPredictor(4, 8, 20, 14),
	} {
		acc, err := EvaluatePredictor(p, series)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if acc.RMSE < 0 || math.IsNaN(acc.RMSE) {
			t.Errorf("%s: bad RMSE %v", p.Name(), acc.RMSE)
		}
	}
}

func TestFacadeComponents(t *testing.T) {
	if BCS20W().Voltage(0) != 18.2 {
		t.Error("stack open-circuit voltage")
	}
	if got := NewPWMPFMConverter(12).OutputVoltage(); got != 12 {
		t.Errorf("converter vout = %v", got)
	}
	chain, err := NewChainEfficiency(BCS20W(), NewPWMPFMConverter(12), ProportionalController())
	if err != nil {
		t.Fatal(err)
	}
	if chain.Eta(0.5) <= chain.Eta(1.2) {
		t.Error("chain efficiency should decline")
	}
	if s, err := NewSuperCap(6, 1); err != nil || s.Capacity() != 6 {
		t.Errorf("NewSuperCap: %v", err)
	}
	if _, err := NewSuperCap(0, 0); err == nil {
		t.Error("NewSuperCap accepted a zero capacity")
	}
	if tr := PeriodicTrace(3, 10, 2, 1); tr.Len() != 3 {
		t.Error("periodic trace")
	}
	if SyntheticDevice().BreakEven() != 10 {
		t.Error("synthetic break-even")
	}
	if tr, err := GenerateSyntheticTrace(DefaultSyntheticConfig()); err != nil || tr.Len() == 0 {
		t.Errorf("synthetic trace: %v", err)
	}
}

func TestFacadeExtensions(t *testing.T) {
	sys := PaperSystem()
	dev := Camcorder()

	// Offline DP + schedule replay.
	sched, err := SolveOffline(OfflineProblem{
		Sys: sys, Cmax: 6,
		Slots: []OptSlot{{Ti: 14, IldI: 0.2, Ta: 5, IldA: 1.2}},
		Q0:    1, GridN: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Settings) != 1 {
		t.Fatalf("schedule = %+v", sched)
	}
	if p := NewSchedule(sys, sched.Settings); p.Name() == "" {
		t.Fatal("schedule policy nameless")
	}

	// Stochastic DPM.
	if tau := OptimalTimeout(dev, []float64{100, 200}); tau != 0 {
		t.Fatalf("long-idle optimal timeout = %v, want 0", tau)
	}

	if NewFlat(sys, 0.5).Name() == "" {
		t.Fatal("flat policy nameless")
	}
}
