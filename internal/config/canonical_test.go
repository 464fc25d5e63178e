package config

import (
	"fmt"
	"strings"
	"testing"
)

func mustKey(t *testing.T, js string) string {
	t.Helper()
	s, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatalf("load %s: %v", js, err)
	}
	key, err := s.CacheKey("test-engine")
	if err != nil {
		t.Fatalf("key %s: %v", js, err)
	}
	return key
}

func TestCacheKeyEquivalentSpecs(t *testing.T) {
	// The same simulation spelled three ways: omitted defaults, explicit
	// defaults, and mixed selector casing must content-address alike.
	a := mustKey(t, `{}`)
	b := mustKey(t, `{"trace":{"kind":"camcorder","seed":1,"duration":1680},
		"policy":{"kind":"fcdpm"},"storage":{"kind":"supercap","capacityAs":6,"initialAs":1},
		"system":{"vf":12,"zeta":37.5,"minOutput":0.1,"maxOutput":1.2,"alpha":0.45,"beta":0.13},
		"device":{"kind":"camcorder"},"dpm":{"mode":"predictive"},
		"predict":{"rho":0.5,"sigma":0.5}}`)
	c := mustKey(t, `{"trace":{"kind":"Camcorder"},"policy":{"kind":"FCDPM"}}`)
	if a != b || a != c {
		t.Fatalf("equivalent specs diverged: %s / %s / %s", a, b, c)
	}
}

func TestCacheKeyIgnoresInertFields(t *testing.T) {
	// flatIF only parameterizes the "flat" policy; under fcdpm it is inert.
	a := mustKey(t, `{"policy":{"kind":"fcdpm"}}`)
	b := mustKey(t, `{"policy":{"kind":"fcdpm","flatIF":0.9}}`)
	if a != b {
		t.Fatal("inert policy parameter leaked into the cache key")
	}
	// An empty fault block's seed cannot matter.
	c := mustKey(t, `{"faults":{"seed":99}}`)
	d := mustKey(t, `{}`)
	if c != d {
		t.Fatal("inert fault seed leaked into the cache key")
	}
}

// TestCacheKeyFaultSeedWithSensorNoise: the fault seed also drives the
// sensor-noise stream, so with only explicit events it stays in the key
// when one of them is sensor noise, and only then.
func TestCacheKeyFaultSeedWithSensorNoise(t *testing.T) {
	spec := func(kind string, seed int) string {
		return fmt.Sprintf(`{"trace":{"kind":"synthetic","duration":300},
			"faults":{"seed":%d,"events":[{"kind":%q,"start":10,"duration":100}]}}`, seed, kind)
	}
	if mustKey(t, spec("sensor-noise", 1)) == mustKey(t, spec("sensor-noise", 2)) {
		t.Error("the seed of sensor-noise events did not move the cache key")
	}
	if mustKey(t, spec("stack-dropout", 1)) != mustKey(t, spec("stack-dropout", 2)) {
		t.Error("the seed of explicit events without noise leaked into the cache key")
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base := mustKey(t, `{"trace":{"kind":"synthetic","seed":1}}`)
	for name, js := range map[string]string{
		"seed":    `{"trace":{"kind":"synthetic","seed":2}}`,
		"policy":  `{"trace":{"kind":"synthetic","seed":1},"policy":{"kind":"asap"}}`,
		"name":    `{"name":"other","trace":{"kind":"synthetic","seed":1}}`,
		"storage": `{"trace":{"kind":"synthetic","seed":1},"storage":{"capacityAs":12}}`,
		"faults": `{"trace":{"kind":"synthetic","seed":1},
			"faults":{"events":[{"kind":"stack-dropout","start":100,"duration":50}]}}`,
	} {
		if mustKey(t, js) == base {
			t.Errorf("%s change did not move the cache key", name)
		}
	}
	// And the engine tag itself is part of the address.
	s, err := Load(strings.NewReader(`{"trace":{"kind":"synthetic","seed":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.CacheKey("other-engine")
	if err != nil {
		t.Fatal(err)
	}
	if other == base {
		t.Error("engine tag did not move the cache key")
	}
}

func TestCanonicalRejectsInvalid(t *testing.T) {
	s, err := Load(strings.NewReader(`{"predict":{"rho":1.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Canonical(); err == nil {
		t.Fatal("invalid spec canonicalized")
	}
	if _, err := s.CacheKey("e"); err == nil {
		t.Fatal("invalid spec keyed")
	}
}

func TestNormalizedDoesNotMutateReceiver(t *testing.T) {
	s, err := Load(strings.NewReader(`{"trace":{"kind":"Synthetic"},"fallbacks":["ASAP"]}`))
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if s.Trace.Kind != "Synthetic" || s.Fallbacks[0] != "ASAP" {
		t.Fatal("receiver mutated by Normalized")
	}
	if n.Trace.Kind != "synthetic" || n.Fallbacks[0] != "asap" {
		t.Fatalf("copy not normalized: %+v", n)
	}
	if n.Trace.Seed != 2 {
		t.Fatalf("synthetic default seed not resolved: %d", n.Trace.Seed)
	}
}

// TestCacheKeyNewTraceKinds: generator defaults resolve per kind, and the
// DVS level knob is inert everywhere else.
func TestCacheKeyNewTraceKinds(t *testing.T) {
	// Bursty and heavy-tail resolve their generators' default seeds.
	if a, b := mustKey(t, `{"trace":{"kind":"bursty"}}`),
		mustKey(t, `{"trace":{"kind":"bursty","seed":4,"duration":1680}}`); a != b {
		t.Fatal("bursty defaults did not normalize")
	}
	if a, b := mustKey(t, `{"trace":{"kind":"heavytail"}}`),
		mustKey(t, `{"trace":{"kind":"heavytail","seed":3,"duration":1680}}`); a != b {
		t.Fatal("heavytail defaults did not normalize")
	}
	// The DVS trace is deterministic: its seed is inert, its level is not.
	if a, b := mustKey(t, `{"trace":{"kind":"dvs"}}`),
		mustKey(t, `{"trace":{"kind":"dvs","seed":99}}`); a != b {
		t.Fatal("inert DVS seed leaked into the cache key")
	}
	if a, b := mustKey(t, `{"trace":{"kind":"dvs","level":0}}`),
		mustKey(t, `{"trace":{"kind":"dvs","level":3}}`); a == b {
		t.Fatal("DVS level did not move the cache key")
	}
	// Level is inert for every other kind.
	if a, b := mustKey(t, `{"trace":{"kind":"synthetic"}}`),
		mustKey(t, `{"trace":{"kind":"synthetic","level":3}}`); a != b {
		t.Fatal("inert level leaked into a non-DVS cache key")
	}
}

func TestCacheKeyPredictorKinds(t *testing.T) {
	// Tuning fields for unselected predictor kinds are inert: rho only
	// parameterizes expavg, window only movingavg/regression, and the
	// quantizer bounds only tree/markov.
	a := mustKey(t, `{"predict":{"kind":"tree"}}`)
	b := mustKey(t, `{"predict":{"kind":"tree","rho":0.9,"window":7}}`)
	if a != b {
		t.Fatal("inert predictor tuning leaked into the cache key")
	}
	c := mustKey(t, `{"predict":{"kind":"expavg"}}`)
	d := mustKey(t, `{"predict":{"kind":"expavg","window":9,"levels":3,"depth":4,"hi":10}}`)
	if c != d {
		t.Fatal("inert quantizer fields leaked into the expavg cache key")
	}
	// Explicit defaults normalize to the omitted spelling.
	e := mustKey(t, `{"predict":{"kind":"movingavg"}}`)
	f := mustKey(t, `{"predict":{"kind":"movingavg","window":5}}`)
	if e != f {
		t.Fatal("explicit default window diverged from omitted")
	}
	// Live fields must still distinguish simulations.
	g := mustKey(t, `{"predict":{"kind":"tree","levels":16}}`)
	if a == g {
		t.Fatal("tree levels did not reach the cache key")
	}
	if c == a || c == e {
		t.Fatal("predictor kind did not reach the cache key")
	}
}

func TestCacheKeyMultiStack(t *testing.T) {
	// Racksurge resolves its generator defaults (seed 5, 28 min, x2).
	if a, b := mustKey(t, `{"trace":{"kind":"racksurge"}}`),
		mustKey(t, `{"trace":{"kind":"racksurge","seed":5,"duration":1680,"intensity":2}}`); a != b {
		t.Fatal("racksurge defaults did not normalize")
	}
	// Intensity is inert for every other kind.
	if a, b := mustKey(t, `{"trace":{"kind":"synthetic"}}`),
		mustKey(t, `{"trace":{"kind":"synthetic","intensity":3}}`); a != b {
		t.Fatal("inert intensity leaked into a non-racksurge cache key")
	}
	if a, b := mustKey(t, `{"trace":{"kind":"racksurge","intensity":2}}`),
		mustKey(t, `{"trace":{"kind":"racksurge","intensity":3}}`); a == b {
		t.Fatal("racksurge intensity did not move the cache key")
	}
	// Allocator selector aliases collapse; the degradation cycle expands
	// to per-stack entries.
	if a, b := mustKey(t, `{"system":{"stacks":4,"alloc":"waterfill","degrade":[0,0.3]}}`),
		mustKey(t, `{"system":{"stacks":4,"alloc":"Water-Filling","degrade":[0,0.3,0,0.3]}}`); a != b {
		t.Fatal("equivalent rack specs keyed apart")
	}
	if a, b := mustKey(t, `{"system":{"stacks":4}}`),
		mustKey(t, `{"system":{"stacks":4,"alloc":"waterfill"}}`); a == b {
		t.Fatal("allocator did not move the cache key")
	}
	// Rack fields are inert on a single-stack system; an all-healthy
	// degrade list is the empty list.
	if a, b := mustKey(t, `{}`),
		mustKey(t, `{"system":{"stacks":1,"degrade":[0.2]}}`); a != b {
		t.Fatal("inert rack fields leaked into a single-stack cache key")
	}
	if a, b := mustKey(t, `{"system":{"stacks":2}}`),
		mustKey(t, `{"system":{"stacks":2,"degrade":[0,0]}}`); a != b {
		t.Fatal("all-healthy degrade list keyed apart from none")
	}
}
