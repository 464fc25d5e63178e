package perf

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fcdpm/internal/device"
	"fcdpm/internal/exp"
	"fcdpm/internal/fcopt"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/multistack"
	"fcdpm/internal/policy"
	"fcdpm/internal/sim"
	"fcdpm/internal/storage"
	"fcdpm/internal/workload"
)

// Benchmark is one named entry of the regression suite.
type Benchmark struct {
	Name string
	// Slots is the number of simulated slots per op for throughput
	// benchmarks (0 for micro-benchmarks).
	Slots int
	Fn    func(b *testing.B)
}

// Suite builds the regression suite. With short set, the macro benchmarks
// are skipped (CI smoke runs on shared runners where a full trace run per
// repetition is too noisy to gate on anyway).
func Suite(short bool) ([]Benchmark, error) {
	sys := fuelcell.PaperSystem()
	dev := device.Camcorder()

	suite := []Benchmark{
		{
			Name: "optimize-slot",
			Fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, err := fcopt.Optimize(sys, 6, fcopt.Slot{
						Ti: 14, IldI: 0.2, Ta: 3.03, IldA: 1.22, Cini: 1, Cend: 1,
						Sleep:    true,
						Overhead: &fcopt.Overhead{TauWU: 0.5, IWU: 0.4, TauPD: 0.5, IPD: 0.4},
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name: "stack-current",
			Fn: func(b *testing.B) {
				b.ReportAllocs()
				var sink float64
				for i := 0; i < b.N; i++ {
					sink += sys.StackCurrent(0.1 + float64(i%11)*0.1)
				}
				_ = sink
			},
		},
		{
			Name: "memo-fuel",
			Fn: func(b *testing.B) {
				memo := fuelcell.NewMemo(sys)
				b.ReportAllocs()
				var sink float64
				for i := 0; i < b.N; i++ {
					sink += memo.Fuel(0.1+float64(i%11)*0.1, 1)
				}
				_ = sink
			},
		},
	}
	if short {
		return suite, nil
	}

	trace, err := workload.Camcorder(workload.DefaultCamcorderConfig())
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	r, err := sim.NewBatchRunner([]sim.Lane{{Cfg: sim.Config{
		Sys: sys, Dev: dev, Store: storage.MustSuperCap(6, 1),
		Trace: trace, Policy: policy.NewFCDPM(sys, dev),
	}}})
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	suite = append(suite,
		Benchmark{
			Name:  "sim-throughput",
			Slots: trace.Len(),
			Fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runBatch(b, r)
				}
			},
		},
	)
	for _, k := range []int{1, 8, 64} {
		policies, keys, err := variantPolicies(sys, dev, k)
		if err != nil {
			return nil, fmt.Errorf("perf: %w", err)
		}
		br, err := warmRunner(sys, dev, trace, policies, keys)
		if err != nil {
			return nil, fmt.Errorf("perf: %w", err)
		}
		// Slots counts lane slots; the batch executes one group per
		// variant, so k64 simulates 8 groups for its 64 lanes.
		if want := min(k, batchVariants); br.Groups() != want {
			return nil, fmt.Errorf("perf: batch-slot-throughput-k%d runs %d groups, want %d", k, br.Groups(), want)
		}
		suite = append(suite, Benchmark{
			Name:  fmt.Sprintf("batch-slot-throughput-k%d", k),
			Slots: trace.Len() * k,
			Fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runBatch(b, br)
				}
			},
		})
	}
	// The before picture for batch-slot-throughput-k64: the same 64
	// lanes, each on its own one-lane runner, run one after another.
	policies, _, err := variantPolicies(sys, dev, 64)
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	sequential := make([]*sim.BatchRunner, len(policies))
	for i, p := range policies {
		if sequential[i], err = warmRunner(sys, dev, trace, []sim.Policy{p}, nil); err != nil {
			return nil, fmt.Errorf("perf: %w", err)
		}
	}
	suite = append(suite, Benchmark{
		Name:  "batch-sequential-k64",
		Slots: trace.Len() * len(policies),
		Fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range sequential {
					runBatch(b, r)
				}
			}
		},
	})
	// Per-policy planning cost: one lane per policy over the same trace,
	// so ns per slot (1e9 / slots_per_sec) shows what each policy's
	// planning adds to the walk. The MPC horizon of 3 slots is the middle
	// of the ones the receding-horizon ablation compares.
	q3, err3 := quantized(sys, dev, 3)
	q12, err12 := quantized(sys, dev, 12)
	mpc, errMPC := policy.NewMPC(sys, dev, 3)
	if err := errors.Join(err3, err12, errMPC); err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	for _, pl := range []struct {
		name string
		p    sim.Policy
	}{
		{"plan-fcdpm", policy.NewFCDPM(sys, dev)},
		{"plan-quantized-n3", q3},
		{"plan-quantized-n12", q12},
		{"plan-mpc", mpc},
	} {
		br, err := warmRunner(sys, dev, trace, []sim.Policy{pl.p}, nil)
		if err != nil {
			return nil, fmt.Errorf("perf: %w", err)
		}
		suite = append(suite, Benchmark{
			Name:  pl.name,
			Slots: trace.Len(),
			Fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runBatch(b, br)
				}
			},
		})
	}
	// Multi-stack aggregate source: a K=4 degraded-mix water-filling rack
	// on the racksurge workload. The rack pre-solves its allocation into
	// a table, so per-slot cost must match a single-stack run — this
	// benchmark gates that the aggregate seam stays allocation-free.
	rsTrace, err := workload.RackSurge(workload.DefaultRackSurgeConfig())
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	rack, err := multistack.Uniform(sys, 4, multistack.WaterFill{}, []float64{0, 0.3})
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	rsys := rack.System()
	mr, err := sim.NewBatchRunner([]sim.Lane{{Cfg: sim.Config{
		Sys: rsys, Dev: device.Synthetic(), Store: storage.MustSuperCap(24, 4),
		Trace: rsTrace, Policy: policy.NewASAP(rsys),
	}}})
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	suite = append(suite,
		Benchmark{
			Name:  "multistack-slot-throughput-k4",
			Slots: rsTrace.Len(),
			Fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runBatch(b, mr)
				}
			},
		},
	)
	// The rack pre-solve itself: one water-filling Uniform rack per op,
	// with the same degraded mix — the stage that dominates a rack
	// request's Build.
	for _, k := range []int{4, 8} {
		suite = append(suite, Benchmark{
			Name: fmt.Sprintf("multistack-presolve-waterfill-k%d", k),
			Fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := multistack.Uniform(sys, k, multistack.WaterFill{}, []float64{0, 0.3}); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
	}
	suite = append(suite,
		Benchmark{
			Name:  "experiment1",
			Slots: trace.Len() * 3, // three policy rows per op
			Fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := exp.Experiment1(context.Background(), 1); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	)
	return suite, nil
}

// quantized is FC-DPM quantized to n uniform output levels.
func quantized(sys *fuelcell.System, dev *device.Model, n int) (sim.Policy, error) {
	return policy.NewFCDPMQuantized(sys, dev, fcopt.UniformLevels(sys, n))
}

// batchVariants is the number of distinct dynamics in a regression batch.
const batchVariants = 8

// variantPolicies builds the policies of the k-lane regression batch:
// the batchVariants distinct dynamics (Conv, ASAP, FC-DPM, quantized
// FC-DPM at five level counts) replicated round-robin, one instance per
// lane, and each lane's key, which names its variant.
func variantPolicies(sys *fuelcell.System, dev *device.Model, k int) ([]sim.Policy, []string, error) {
	variants := [batchVariants]func() (sim.Policy, error){
		func() (sim.Policy, error) { return policy.NewConv(sys), nil },
		func() (sim.Policy, error) { return policy.NewASAP(sys), nil },
		func() (sim.Policy, error) { return policy.NewFCDPM(sys, dev), nil },
		func() (sim.Policy, error) { return quantized(sys, dev, 3) },
		func() (sim.Policy, error) { return quantized(sys, dev, 4) },
		func() (sim.Policy, error) { return quantized(sys, dev, 6) },
		func() (sim.Policy, error) { return quantized(sys, dev, 8) },
		func() (sim.Policy, error) { return quantized(sys, dev, 12) },
	}
	policies := make([]sim.Policy, k)
	keys := make([]string, k)
	for i := range policies {
		p, err := variants[i%len(variants)]()
		if err != nil {
			return nil, nil, err
		}
		policies[i] = p
		keys[i] = fmt.Sprintf("variant-%d", i%len(variants))
	}
	return policies, keys, nil
}

// warmRunner builds one fuel-only lane per policy over trace and runs it
// once, so later runs measure the steady state. Lane i carries keys[i]
// when keys is non-nil, so lanes with equal keys run as one group.
func warmRunner(sys *fuelcell.System, dev *device.Model, trace *workload.Trace, policies []sim.Policy, keys []string) (*sim.BatchRunner, error) {
	lanes := make([]sim.Lane, len(policies))
	for i, p := range policies {
		lanes[i] = sim.Lane{Cfg: sim.Config{
			Sys: sys, Dev: dev, Store: storage.MustSuperCap(6, 1),
			Trace: trace, Policy: p, Record: sim.RecordFuelOnly,
		}}
		if keys != nil {
			lanes[i].Key = keys[i]
		}
	}
	br, err := sim.NewBatchRunner(lanes)
	if err != nil {
		return nil, err
	}
	if _, err := br.Run(); err != nil {
		return nil, err
	}
	return br, nil
}

// Run executes the suite repeat times per benchmark, keeping each
// benchmark's best (fastest) repetition — the standard way to strip
// scheduler noise from a regression gate.
func Run(repeat int, short bool) (*Artifact, error) {
	if repeat < 1 {
		repeat = 1
	}
	suite, err := Suite(short)
	if err != nil {
		return nil, err
	}
	art := newArtifact(repeat)
	for _, bench := range suite {
		var best Metric
		for rep := 0; rep < repeat; rep++ {
			res := testing.Benchmark(bench.Fn)
			if res.N == 0 {
				return nil, fmt.Errorf("perf: benchmark %s did not run (did it fail?)", bench.Name)
			}
			m := Metric{
				Name:        bench.Name,
				NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
			}
			if bench.Slots > 0 && m.NsPerOp > 0 {
				m.SlotsPerSec = float64(bench.Slots) * 1e9 / m.NsPerOp
			}
			if rep == 0 || m.NsPerOp < best.NsPerOp {
				best = m
			}
		}
		art.Metrics = append(art.Metrics, best)
	}
	return art, nil
}

// runBatch is one benchmark iteration over a BatchRunner: the walk and
// every lane must succeed.
func runBatch(b *testing.B, br *sim.BatchRunner) {
	out, err := br.Run()
	if err != nil {
		b.Fatal(err)
	}
	for _, lr := range out {
		if lr.Err != nil {
			b.Fatal(lr.Err)
		}
	}
}
