package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/stats"
)

// Generality experiments, Figures 26-29: OMB-Py under MVAPICH2 vs Intel MPI
// on Frontera (inter-node latency and bandwidth).

func init() {
	register(Experiment{
		ID:    "fig26",
		Title: "Inter-node CPU latency, small, OMB-Py with MVAPICH2 vs Intel MPI, Frontera",
		run: func(d core.Defaults) (*Result, error) {
			return implCompare(d, "fig26", core.Latency, SmallMin, SmallMax, true, 0.36)
		},
	})
	register(Experiment{
		ID:    "fig27",
		Title: "Inter-node CPU latency, large, OMB-Py with MVAPICH2 vs Intel MPI, Frontera",
		run: func(d core.Defaults) (*Result, error) {
			return implCompare(d, "fig27", core.Latency, LargeMin, LargeMax, true, 0.36)
		},
	})
	register(Experiment{
		ID:    "fig28",
		Title: "Inter-node CPU bandwidth, small, OMB-Py with MVAPICH2 vs Intel MPI, Frontera",
		run: func(d core.Defaults) (*Result, error) {
			return implCompare(d, "fig28", core.Bandwidth, SmallMin, SmallMax, false, 856)
		},
	})
	register(Experiment{
		ID:    "fig29",
		Title: "Inter-node CPU bandwidth, large, OMB-Py with MVAPICH2 vs Intel MPI, Frontera",
		run: func(d core.Defaults) (*Result, error) {
			return implCompare(d, "fig29", core.Bandwidth, LargeMin, BWMax, false, 856)
		},
	})
}

// implCompare runs OMB-Py under both MPI implementations across the FULL
// size range -- the paper quotes one average over all message sizes (0.36
// us latency, 856 MB/s bandwidth) -- and tables only the requested window.
func implCompare(d core.Defaults, id string, bench core.Benchmark, minS, maxS int, latency bool, paper float64) (*Result, error) {
	fullMax := LargeMax
	if !latency {
		fullMax = BWMax
	}
	run := func(impl netmodel.Impl) (*stats.Series, error) {
		rep, err := runOptions(d, core.Options{
			Benchmark: bench, Cluster: "frontera", Impl: impl, Mode: core.ModePy,
			Ranks: 2, PPN: 1, MinSize: SmallMin, MaxSize: fullMax,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", impl, err)
		}
		rep.Series.Name = "OMB-Py/" + string(impl)
		return &rep.Series, nil
	}
	mv, err := run(netmodel.MVAPICH2)
	if err != nil {
		return nil, err
	}
	impi, err := run(netmodel.IntelMPI)
	if err != nil {
		return nil, err
	}
	window := func(s *stats.Series) *stats.Series {
		out := &stats.Series{Name: s.Name}
		for _, r := range s.Rows {
			if r.Size >= minS && r.Size <= maxS {
				out.Rows = append(out.Rows, r)
			}
		}
		return out
	}
	res := &Result{
		ID:    id,
		Table: stats.Table{Series: []*stats.Series{window(mv), window(impi)}},
	}
	if latency {
		res.Table.Metric = "latency(us)"
		res.Stats = []Stat{{Name: "avg Intel MPI latency delta (all sizes)", Paper: paper,
			Measured: stats.AvgOverheadUs(impi, mv), Unit: "us"}}
	} else {
		res.Table.Metric = "bandwidth(MB/s)"
		res.Stats = []Stat{{Name: "avg Intel MPI bandwidth deficit (all sizes)", Paper: paper,
			Measured: stats.AvgBandwidthGapMBps(impi, mv), Unit: "MB/s"}}
	}
	res.Notes = "the paper quotes one average across all message sizes; the table shows this figure's window"
	return res, nil
}
