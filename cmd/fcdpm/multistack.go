package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fcdpm/internal/exp"
	"fcdpm/internal/report"
)

// cmdMultiStack runs the K-stack allocation study: equal-split,
// water-filling, and health-rotation racks across rack sizes and
// racksurge intensities, on the batched simulation core.
func cmdMultiStack(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("multistack", flag.ContinueOnError)
	ks := fs.String("k", "2,4", "comma-separated rack sizes")
	intensities := fs.String("intensity", "1.5,2,2.5", "comma-separated surge multipliers (>= 1)")
	degrade := fs.String("degrade", "0,0.3", "comma-separated per-stack degradation cycle in [0, 1); \"0\" for an all-healthy rack")
	seed := fs.Uint64("seed", 0, "racksurge trace seed (0 = generator default)")
	duration := fs.Float64("duration", 0, "trace duration in seconds (0 = generator default)")
	asJSON := fs.Bool("json", false, "emit rows as JSON")
	assert := fs.Bool("assert", false, "exit non-zero unless water-filling uses strictly less fuel than equal-split in every cell")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	kList, err := parseIntList(*ks)
	if err != nil {
		return usagef("multistack: -k: %v", err)
	}
	xList, err := parseFloatList(*intensities)
	if err != nil {
		return usagef("multistack: -intensity: %v", err)
	}
	mix, err := parseFloatList(*degrade)
	if err != nil {
		return usagef("multistack: -degrade: %v", err)
	}
	rows, err := exp.MultiStackStudy(ctx, exp.MultiStackConfig{
		Ks:          kList,
		Intensities: xList,
		DegradedMix: mix,
		Seed:        *seed,
		Duration:    *duration,
	})
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
	} else {
		tab := report.NewTable("Multi-stack allocation study (racksurge)",
			"Alloc", "K", "Surge", "Fuel (A-s)", "vs equal", "Deficit (A-s)", "Bled (A-s)")
		for _, r := range rows {
			tab.AddRow(r.Alloc, r.K, fmt.Sprintf("x%g", r.Intensity),
				fmt.Sprintf("%.2f", r.Fuel), report.Percent(r.FuelVsEqual-1),
				fmt.Sprintf("%.3f", r.Deficit), fmt.Sprintf("%.2f", r.Bled))
		}
		fmt.Print(tab)
	}
	if *assert {
		fuel := map[string]float64{}
		for _, r := range rows {
			fuel[fmt.Sprintf("%s/%d/%g", r.Alloc, r.K, r.Intensity)] = r.Fuel
		}
		for _, k := range kList {
			for _, x := range xList {
				eq := fuel[fmt.Sprintf("equal-split/%d/%g", k, x)]
				wf := fuel[fmt.Sprintf("water-filling/%d/%g", k, x)]
				if !(wf < eq) {
					return fmt.Errorf("multistack: K=%d x%g: water-filling fuel %.4f not strictly below equal-split %.4f", k, x, wf, eq)
				}
			}
		}
		fmt.Println("assert ok: water-filling strictly below equal-split in every cell")
	}
	return nil
}

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseFloatList parses a comma-separated list of floats.
func parseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
