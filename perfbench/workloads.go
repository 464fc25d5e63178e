package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
)

// Input streams. Each stream is an independent, seeded sequence of
// requests; the streams never share a trace seed, so a request from one
// stream can never hit a result cached by another.
const (
	streamMeasure uint64 = 1 + iota // the timed window (and the traced replay)
	streamWarm                      // the untimed warm-up before it
	streamPool                      // serve-hit's cached spec pool
	streamTrace                     // the traced window of a --trace 1 run
)

// hitPoolSize is how many distinct specs serve-hit caches during set-up.
const hitPoolSize = 512

// coalesceEvery sends one fresh serve-miss spec in this many twice, as
// two consecutive requests of the sequence. The two clients usually hold
// one each, so the second joins the first's in-flight run through the
// server's coalescer; when one client holds both, the second is a hit.
// A twin's trace is 20-28 minutes long instead of 2-10, so its run is
// still in flight when the other client asks.
const coalesceEvery = 8

// mix is one workload, a traffic mix the benchmark drives against the server.
type mix struct {
	name  string
	sweep bool // requests are POST /v1/sweeps; otherwise POST /v1/runs
	// hitPool: set-up caches the pool; requests re-send pool specs.
	hitPool bool
	// block is the length of the balanced block the mix is dealt in; a
	// replay covers whole blocks, so its mix matches the window's.
	block int
	// digest is how many leading requests the digest covers; every run
	// completes at least this many.
	digest int
	input  func(seed, stream uint64, i int) *input
}

// input is one request of a workload, a pure function of (seed, stream,
// index).
type input struct {
	idx  int
	body []byte // the POST body: one scenario, or one sweep document
	// cells holds a sweep's scenario documents, re-requested after the
	// window to check each cell's cached body.
	cells [][]byte
}

var workloads = map[string]*mix{
	"serve-miss":  {name: "serve-miss", block: missBlock, digest: 256, input: missInput},
	"serve-hit":   {name: "serve-hit", hitPool: true, block: 1, digest: 256, input: hitInput},
	"sweep-batch": {name: "sweep-batch", sweep: true, block: 1, digest: 4, input: sweepInput},
	"rack-surge":  {name: "rack-surge", block: len(rackBlock), digest: 64, input: rackInput},
}

// Scenario documents, spelled the way a client would: only the fields it
// sets.
type scenarioDoc struct {
	Name    string      `json:"name"`
	System  *systemDoc  `json:"system,omitempty"`
	Storage *storageDoc `json:"storage,omitempty"`
	Trace   traceDoc    `json:"trace"`
	Policy  policyDoc   `json:"policy"`
}

type systemDoc struct {
	Stacks  int       `json:"stacks"`
	Alloc   string    `json:"alloc"`
	Degrade []float64 `json:"degrade,omitempty"`
}

type storageDoc struct {
	CapacityAs float64 `json:"capacityAs"`
	InitialAs  float64 `json:"initialAs,omitempty"`
}

type traceDoc struct {
	Kind      string  `json:"kind"`
	Seed      uint64  `json:"seed,omitempty"`
	Duration  float64 `json:"duration,omitempty"`
	Level     int     `json:"level,omitempty"`
	Intensity float64 `json:"intensity,omitempty"`
}

type policyDoc struct {
	Kind   string `json:"kind"`
	Levels int    `json:"levels,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the documents above always encode
	}
	return b
}

// rng returns the generator for one request of one stream. Trace seeds
// are drawn from it as Uint64() | 1: distinct across requests and
// streams, and never 0, which means "generator default".
func rng(seed, stream uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed^stream<<56, uint64(i)))
}

// blockSlot deals request i its slot in a balanced block: every block of n
// consecutive requests holds each slot once, in a seeded order, so the
// mix of a run is exact whatever its length.
func blockSlot(seed, stream uint64, i, n int) int {
	block := i / n
	perm := rand.New(rand.NewPCG(seed^stream<<56^0xb10c, uint64(block))).Perm(n)
	return perm[i%n]
}

// missFamilies are the devicesim template's trace families
// (scenarios/devicesim.json), repeated by weight.
var missFamilies = []string{"camcorder", "camcorder", "synthetic", "synthetic", "bursty", "heavytail", "dvs"}

var missPolicies = []string{"fcdpm", "asap", "quantized"}

// missBlock deals every family-weight slot with every policy.
const missBlock = 21 // len(missFamilies) * len(missPolicies)

// missSpec is the i-th fresh single-run spec of a stream: a devicesim
// family and policy dealt from a balanced block, a trace length in the
// template's 120-600 s range (1200-1680 s for a twin), and a unique
// trace seed. The dvs family ignores the seed, so its trace length is
// made unique instead: each stream owns 1.6M steps of a 0.1 ms grid,
// walked by a stride coprime with the grid size.
func missSpec(seed, stream uint64, i int, twin bool) []byte {
	slot := blockSlot(seed, stream, i, missBlock)
	fam := missFamilies[slot%len(missFamilies)]
	pol := missPolicies[slot/len(missFamilies)]
	r := rng(seed, stream, i)
	const grid = 4_800_000 // 480 s in 0.1 ms steps
	j := uint64(i) + (stream-1)*grid/3
	dur := 120 + float64(j*7919%grid)*1e-4
	if twin {
		dur += 1080
	}
	doc := scenarioDoc{
		Name:   fmt.Sprintf("%s-%s-%d", fam, pol, i),
		Trace:  traceDoc{Kind: fam, Seed: r.Uint64() | 1, Duration: dur},
		Policy: policyDoc{Kind: pol},
	}
	if fam == "dvs" {
		doc.Trace.Seed = 0
		doc.Trace.Level = r.IntN(5)
	}
	return mustJSON(doc)
}

func missInput(seed, stream uint64, i int) *input {
	switch i % coalesceEvery {
	case coalesceEvery - 2:
		return &input{idx: i, body: missSpec(seed, stream, i, true)}
	case coalesceEvery - 1:
		return &input{idx: i, body: missSpec(seed, stream, i-1, true)}
	}
	return &input{idx: i, body: missSpec(seed, stream, i, false)}
}

// hitInput re-requests a seeded choice from the cached pool.
func hitInput(seed, stream uint64, i int) *input {
	k := rng(seed, stream, i).IntN(hitPoolSize)
	return &input{idx: i, body: missSpec(seed, streamPool, k, false)}
}

// sweepPolicies and sweepCapacities span the 64 cells of one sweep.
var (
	sweepPolicies = []policyDoc{
		{Kind: "fcdpm"}, {Kind: "conv"}, {Kind: "asap"}, {Kind: "flat"},
		{Kind: "quantized", Levels: 3}, {Kind: "quantized", Levels: 6},
		{Kind: "quantized", Levels: 8}, {Kind: "quantized", Levels: 12},
	}
	sweepCapacities = []float64{2, 3, 4, 6, 8, 12, 16, 24}
)

// sweepInput is one 64-cell camcorder sweep whose cells share one trace,
// fresh per sweep, so every cell misses the cache.
func sweepInput(seed, stream uint64, i int) *input {
	ts := rng(seed, stream, i).Uint64() | 1
	in := &input{idx: i}
	var cells []json.RawMessage
	for _, c := range sweepCapacities {
		for _, p := range sweepPolicies {
			doc := scenarioDoc{
				Name:    fmt.Sprintf("c%g-%s%d", c, p.Kind, p.Levels),
				Storage: &storageDoc{CapacityAs: c},
				Trace:   traceDoc{Kind: "camcorder", Seed: ts},
				Policy:  p,
			}
			b := mustJSON(doc)
			in.cells = append(in.cells, b)
			cells = append(cells, b)
		}
	}
	in.body = mustJSON(map[string]any{"name": fmt.Sprintf("sweep-%d", i), "scenarios": cells})
	return in
}

// Rack configurations: every stack count, allocator and degradation mix.
var (
	rackStacks   = []int{2, 4, 8}
	rackAllocs   = []string{"equal", "rotation", "waterfill"}
	rackDegrades = [][]float64{nil, {0, 0.3}, {0.1, 0.2, 0.4}}
	rackSurges   = []float64{1.5, 2, 3}
	rackPolicies = []string{"asap", "fcdpm"}
)

// rackBlock lists the 27 rack configurations, each twice except the
// water-filling K=8 ones, which appear once. Water-filling pre-solves
// dominate the latency tail (K=8 the most); at this weighting p90 falls
// inside the K=4 water-filling mode rather than on the edge between two
// modes, where a few requests more or less would move it by half.
var rackBlock = func() []systemDoc {
	var out []systemDoc
	for _, k := range rackStacks {
		for _, a := range rackAllocs {
			for _, d := range rackDegrades {
				sys := systemDoc{Stacks: k, Alloc: a, Degrade: d}
				out = append(out, sys)
				if !(k == 8 && a == "waterfill") {
					out = append(out, sys)
				}
			}
		}
	}
	return out
}()

// rackInput is one racksurge rack run: a configuration dealt from the
// balanced block (so configurations repeat across requests), a surge
// intensity and policy, and a unique trace seed (so results never do).
func rackInput(seed, stream uint64, i int) *input {
	sys := rackBlock[blockSlot(seed, stream, i, len(rackBlock))]
	r := rng(seed, stream, i)
	doc := scenarioDoc{
		Name:    fmt.Sprintf("rack-k%d-%s-%d", sys.Stacks, sys.Alloc, i),
		System:  &sys,
		Storage: &storageDoc{CapacityAs: 24, InitialAs: 4},
		Trace: traceDoc{Kind: "racksurge", Seed: r.Uint64() | 1, Duration: 600,
			Intensity: rackSurges[r.IntN(len(rackSurges))]},
		Policy: policyDoc{Kind: rackPolicies[r.IntN(len(rackPolicies))]},
	}
	return &input{idx: i, body: mustJSON(doc)}
}
