package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"fcdpm/internal/config"
	"fcdpm/internal/runreport"
	"fcdpm/internal/sim"
)

// oracle computes, outside the server, the exact body POST /v1/runs must
// return for a scenario document: the scalar path LoadValidated →
// CacheKey → Build → sim.RunContext → runreport.Render, plus the newline
// the server ends every body with.
func oracle(ctx context.Context, engine string, doc []byte) ([]byte, error) {
	spec, err := config.LoadValidated(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	key, err := spec.CacheKey(engine)
	if err != nil {
		return nil, err
	}
	cfg, err := spec.Build()
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	name := spec.Name
	if name == "" {
		name = "run"
	}
	body, err := runreport.Render(name, key, engine, res)
	return append(body, '\n'), err
}

// answer is one body the server returned, by its hash, with the scenario
// document it answers and the window request it came from. verify fills
// in wrong and slots.
type answer struct {
	op    int
	doc   []byte
	sum   [sha256.Size]byte
	wrong bool
	slots int // simulated slots, read from the oracle body
}

// verify computes each distinct document's oracle body, on `clients`
// goroutines, and marks the answers whose body differs from it.
func verify(ctx context.Context, engine string, answers []answer) error {
	type want struct {
		sum   [sha256.Size]byte
		slots int
	}
	index := make(map[string]int)
	var docs [][]byte
	for _, a := range answers {
		if _, ok := index[string(a.doc)]; !ok {
			index[string(a.doc)] = len(docs)
			docs = append(docs, a.doc)
		}
	}
	wants := make([]want, len(docs))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(docs) && errs[c] == nil; i += clients {
				var body []byte
				body, errs[c] = oracle(ctx, engine, docs[i])
				if errs[c] == nil {
					wants[i].sum = sha256.Sum256(body)
					wants[i].slots, errs[c] = slotsOf(body)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	for k := range answers {
		w := wants[index[string(answers[k].doc)]]
		answers[k].wrong = w.sum != answers[k].sum
		answers[k].slots = w.slots
	}
	return nil
}

// digest hashes the simulated fields of the bodies, in order. The key
// and engine fields embed the build's revision, so they are left out:
// two builds that simulate alike print the same digest.
func digest(bodies [][]byte) (string, error) {
	h := sha256.New()
	for _, b := range bodies {
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
		delete(m, "key")
		delete(m, "engine")
		c, err := json.Marshal(m) // map keys encode sorted
		if err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
		h.Write(c)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// slotsOf reads the simulated slot count of a run body.
func slotsOf(body []byte) (int, error) {
	var r struct {
		Slots int `json:"slots"`
	}
	err := json.Unmarshal(body, &r)
	return r.Slots, err
}

// stats is the part of /v1/stats the benchmark reads.
type stats struct {
	Runs struct {
		Submitted, Shed, Coalesced int64
	}
	Cache struct {
		Hits, Misses int64
	}
	Batch struct {
		PlanGroupHits int64
	}
}

func (e *env) stats(ctx context.Context) (stats, error) {
	var st stats
	b, err := e.get(ctx, "/v1/stats")
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// crossCheck holds the client's books against the server's: every
// request the client saw tagged miss, hit or coalesced, every shed, and
// every sweep cell, must appear in the /v1/stats deltas, and nothing
// else may.
func crossCheck(c tally, before, after stats) error {
	d := func(a, b int64) int { return int(a - b) }
	checks := []struct {
		what         string
		server, seen int
	}{
		{"runs submitted", d(after.Runs.Submitted, before.Runs.Submitted), c.miss + c.shed + c.cellMiss},
		{"runs coalesced", d(after.Runs.Coalesced, before.Runs.Coalesced), c.coalesced},
		{"runs shed", d(after.Runs.Shed, before.Runs.Shed), c.shed},
		{"cache hits", d(after.Cache.Hits, before.Cache.Hits), c.hit + c.cellHit},
		{"cache misses", d(after.Cache.Misses, before.Cache.Misses), c.miss + c.coalesced + c.shed + c.cellMiss},
	}
	for _, ck := range checks {
		if ck.server != ck.seen {
			return fmt.Errorf("books: %s: server counted %d, client saw %d", ck.what, ck.server, ck.seen)
		}
	}
	return nil
}

// promText is one /metrics scrape: sample name (with labels) → value.
type promText map[string]float64

func (e *env) scrape(ctx context.Context) (promText, error) {
	b, err := e.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	out := make(promText)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is a series' growth between two scrapes.
func delta(before, after promText, name string) float64 { return after[name] - before[name] }
