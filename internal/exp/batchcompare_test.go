package exp

import (
	"context"
	"testing"

	"fcdpm/internal/sim"
	"fcdpm/internal/stochdpm"
)

// TestCompareBatchesCloneableAdapter pins the fix for the old serial
// fallback: a scenario with a cloneable timeout adapter now batches with
// one independent adapter clone per row, so each row's result equals a
// standalone run with its own fresh adapter — no row sees another row's
// learned idle history.
func TestCompareBatchesCloneableAdapter(t *testing.T) {
	sc, err := Experiment2Scenario(7)
	if err != nil {
		t.Fatal(err)
	}
	sc.DPM = sim.DPMTimeout
	adapter, err := stochdpm.NewAdaptiveTimeout(sc.Dev, 50)
	if err != nil {
		t.Fatal(err)
	}
	sc.TimeoutAdapter = adapter

	policies := sc.Policies()
	cmp, err := sc.Compare(context.Background(), policies)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range policies {
		// The oracle: the same row run alone with its own fresh adapter.
		solo, err := Experiment2Scenario(7)
		if err != nil {
			t.Fatal(err)
		}
		solo.DPM = sim.DPMTimeout
		soloAdapter, err := stochdpm.NewAdaptiveTimeout(solo.Dev, 50)
		if err != nil {
			t.Fatal(err)
		}
		solo.TimeoutAdapter = soloAdapter
		want, err := solo.run(context.Background(), solo.Policies()[i])
		if err != nil {
			t.Fatal(err)
		}
		got := cmp.Results[p.Name()]
		if got == nil {
			t.Fatalf("row %s missing from comparison", p.Name())
		}
		if got.Fuel != want.Fuel || got.Sleeps != want.Sleeps || got.Deficit != want.Deficit {
			t.Fatalf("row %s leaked adaptation: fuel %v/%v sleeps %d/%d deficit %v/%v",
				p.Name(), got.Fuel, want.Fuel, got.Sleeps, want.Sleeps, got.Deficit, want.Deficit)
		}
	}
	// The shared adapter itself must be untouched: only clones ran.
	if tau := adapter.NextTimeout(); tau != sc.Dev.BreakEven() {
		t.Fatalf("scenario adapter learned during compare: timeout %v, want pristine break-even %v",
			tau, sc.Dev.BreakEven())
	}
}
