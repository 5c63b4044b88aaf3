package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// Pickle experiments, Figures 30-33: mpi4py's serializing object API
// against direct buffers, inter-node on Frontera.

func init() {
	register(Experiment{
		ID:    "fig30",
		Title: "Inter-node CPU latency, small, pickle vs direct buffer, Frontera",
		run: func(d core.Defaults) (*Result, error) {
			pk, direct, err := pickleBench(d, core.Latency, SmallMin, SmallMax)
			if err != nil {
				return nil, err
			}
			return &Result{
				ID:    "fig30",
				Table: stats.Table{Metric: "latency(us)", Series: []*stats.Series{direct, pk}},
				Stats: []Stat{{Name: "avg pickle overhead (small)", Paper: 1.07,
					Measured: stats.AvgOverheadUs(pk, direct), Unit: "us"}},
			}, nil
		},
	})
	register(Experiment{
		ID:    "fig31",
		Title: "Inter-node CPU latency, large, pickle vs direct buffer, Frontera",
		run: func(d core.Defaults) (*Result, error) {
			pk, direct, err := pickleBench(d, core.Latency, LargeMin, BWMax)
			if err != nil {
				return nil, err
			}
			worst, at := stats.MaxOverheadUs(pk, direct)
			return &Result{
				ID:    "fig31",
				Table: stats.Table{Metric: "latency(us)", Series: []*stats.Series{direct, pk}},
				Stats: []Stat{{Name: fmt.Sprintf("max pickle overhead (at %s)", stats.HumanBytes(at)),
					Paper: 1510, Measured: worst, Unit: "us"}},
				Notes: "paper: curves diverge past 64KiB, up to 1510us",
			}, nil
		},
	})
	register(Experiment{
		ID:    "fig32",
		Title: "Inter-node CPU bandwidth, small, pickle vs direct buffer, Frontera",
		run: func(d core.Defaults) (*Result, error) {
			pk, direct, err := pickleBench(d, core.Bandwidth, SmallMin, SmallMax)
			if err != nil {
				return nil, err
			}
			gapAt8K := func() float64 {
				d, _ := direct.Get(8192)
				p, _ := pk.Get(8192)
				return (d.MBps - p.MBps) / 1024
			}
			return &Result{
				ID:    "fig32",
				Table: stats.Table{Metric: "bandwidth(MB/s)", Series: []*stats.Series{direct, pk}},
				Stats: []Stat{{Name: "pickle bandwidth deficit at 8KiB", Paper: 2.4,
					Measured: gapAt8K(), Unit: "GB/s"}},
			}, nil
		},
	})
	register(Experiment{
		ID:    "fig33",
		Title: "Inter-node CPU bandwidth, large, pickle vs direct buffer, Frontera",
		run: func(d core.Defaults) (*Result, error) {
			pk, direct, err := pickleBench(d, core.Bandwidth, LargeMin, BWMax)
			if err != nil {
				return nil, err
			}
			return &Result{
				ID:    "fig33",
				Table: stats.Table{Metric: "bandwidth(MB/s)", Series: []*stats.Series{direct, pk}},
				Stats: []Stat{{Name: "avg pickle bandwidth deficit (large)", Paper: 0,
					Measured: stats.AvgBandwidthGapMBps(pk, direct), Unit: "MB/s"}},
				Notes: "paper reports the pickle curve catching up mid-range then dropping " +
					"again past 64KiB; no single number is quoted",
			}, nil
		},
	})
}

// pickleBench runs a benchmark in Pickle and Py (direct) modes.
func pickleBench(d core.Defaults, bench core.Benchmark, minS, maxS int) (pickleSeries, directSeries *stats.Series, err error) {
	base := core.Options{
		Benchmark: bench, Cluster: "frontera", Mode: core.ModePy,
		Ranks: 2, PPN: 1, MinSize: minS, MaxSize: maxS,
	}
	direct, err := runOptions(d, base)
	if err != nil {
		return nil, nil, fmt.Errorf("direct: %w", err)
	}
	direct.Series.Name = "direct-buffer"
	base.Mode = core.ModePickle
	pk, err := runOptions(d, base)
	if err != nil {
		return nil, nil, fmt.Errorf("pickle: %w", err)
	}
	pk.Series.Name = "pickle"
	return &pk.Series, &direct.Series, nil
}
