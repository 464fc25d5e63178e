package exp

import (
	"context"
	"testing"
)

func TestConformanceSuitePasses(t *testing.T) {
	checks, err := Conformance(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 15 {
		t.Fatalf("only %d checks", len(checks))
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("FAIL %s: measured %v outside [%v, %v] (paper %s)",
				c.Name, c.Measured, c.Lo, c.Hi, c.Paper)
		}
		if c.Name == "" || c.Paper == "" {
			t.Errorf("check missing metadata: %+v", c)
		}
		if c.Lo > c.Hi {
			t.Errorf("%s: inverted band [%v, %v]", c.Name, c.Lo, c.Hi)
		}
	}
	if !Passed(checks) {
		t.Error("Passed() disagrees with individual checks")
	}
}

func TestPassedDetectsFailure(t *testing.T) {
	checks := []Check{{Pass: true}, {Pass: false}}
	if Passed(checks) {
		t.Fatal("Passed ignored a failing check")
	}
	if !Passed(nil) {
		t.Fatal("empty suite should pass vacuously")
	}
}

func TestConformanceAcrossSeeds(t *testing.T) {
	// The bands must hold for other trace seeds too — the reproduction is
	// not tuned to one trace.
	for _, seed := range []uint64{2, 3} {
		checks, err := Conformance(context.Background(), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range checks {
			if !c.Pass {
				t.Errorf("seed %d: FAIL %s: %v outside [%v, %v]",
					seed, c.Name, c.Measured, c.Lo, c.Hi)
			}
		}
	}
}
