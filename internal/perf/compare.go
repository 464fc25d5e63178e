package perf

import "fmt"

// Delta is one benchmark's old-vs-new comparison.
type Delta struct {
	Name     string
	OldNs    float64
	NewNs    float64
	Ratio    float64 // NewNs/OldNs - 1; positive is slower
	OldAlloc int64
	NewAlloc int64
	// Regressed marks a time regression beyond the gate threshold.
	// Alloc-count increases are reported but never fatal — allocation
	// noise (e.g. a map rehash boundary) should not break CI.
	Regressed bool
}

// String formats the delta for the bench report.
func (d Delta) String() string {
	verdict := "ok"
	if d.Regressed {
		verdict = "REGRESSED"
	} else if d.Ratio < -0.02 {
		verdict = "improved"
	}
	s := fmt.Sprintf("%-16s %12.0f -> %12.0f ns/op  %+6.1f%%  %s",
		d.Name, d.OldNs, d.NewNs, 100*d.Ratio, verdict)
	if d.NewAlloc != d.OldAlloc {
		s += fmt.Sprintf("  (allocs %d -> %d)", d.OldAlloc, d.NewAlloc)
	}
	return s
}

// Compare diffs cur against the prev baseline with the given relative
// time-regression threshold (0.15 = fail beyond +15 %). Benchmarks present
// on only one side are skipped — renaming suite entries must not fail the
// gate retroactively. The second result reports whether any benchmark
// regressed.
//
// A baseline from another host is an error naming the field that
// differs: timings taken under another Go version, architecture or CPU
// count say nothing about this change, so the baseline must be measured
// again on this host.
//
// Zero overlap is an error, not a pass: a wholesale suite rename (or a
// stale baseline from another branch) used to make the gate pass
// vacuously — every current benchmark skipped, nothing compared, CI
// green. The caller must treat the error as a gate failure and refresh
// the baseline deliberately.
func Compare(prev, cur *Artifact, threshold float64) ([]Delta, bool, error) {
	for _, f := range []struct {
		name      string
		prev, cur any
	}{
		{"go_version", prev.GoVersion, cur.GoVersion},
		{"goarch", prev.GOARCH, cur.GOARCH},
		{"num_cpu", prev.NumCPU, cur.NumCPU},
	} {
		if f.prev != f.cur {
			return nil, false, fmt.Errorf("perf: baseline %s %v differs from this run's %v; measure a baseline on this host",
				f.name, f.prev, f.cur)
		}
	}
	var out []Delta
	regressed := false
	for _, m := range cur.Metrics {
		old := prev.Metric(m.Name)
		if old == nil || old.NsPerOp <= 0 {
			continue
		}
		d := Delta{
			Name:     m.Name,
			OldNs:    old.NsPerOp,
			NewNs:    m.NsPerOp,
			Ratio:    m.NsPerOp/old.NsPerOp - 1,
			OldAlloc: old.AllocsPerOp,
			NewAlloc: m.AllocsPerOp,
		}
		if d.Ratio > threshold {
			d.Regressed = true
			regressed = true
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, false, fmt.Errorf(
			"perf: no overlapping benchmarks between baseline (%d metrics) and current (%d metrics); the gate would pass vacuously — refresh the baseline",
			len(prev.Metrics), len(cur.Metrics))
	}
	return out, regressed, nil
}
