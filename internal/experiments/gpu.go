package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi4py"
	"repro/internal/pybuf"
	"repro/internal/stats"
)

// GPU experiments on Bridges-2: point-to-point latency (Figures 20-21),
// Allreduce (22-23) and Allgather (24-25) on 16 GPUs, and the staging
// overhead breakdown (Figure 34).

func init() {
	type gpuCase struct {
		id, title  string
		bench      core.Benchmark
		ranks, ppn int
		minS, maxS int
		paper      map[pybuf.Library]float64
	}
	cases := []gpuCase{
		{"fig20", "GPU latency, small, 2 GPUs on 2 nodes, Bridges-2", core.Latency, 2, 1,
			SmallMin, SmallMax,
			map[pybuf.Library]float64{pybuf.CuPy: 4.33, pybuf.PyCUDA: 4.19, pybuf.Numba: 6.19}},
		{"fig21", "GPU latency, large, 2 GPUs on 2 nodes, Bridges-2", core.Latency, 2, 1,
			LargeMin, LargeMax,
			map[pybuf.Library]float64{pybuf.CuPy: 8.67, pybuf.PyCUDA: 8.40, pybuf.Numba: 10.53}},
		{"fig22", "Allreduce GPU latency, small, 16 GPUs (2x8), Bridges-2", core.Allreduce, 16, 8,
			4, SmallMax,
			map[pybuf.Library]float64{pybuf.CuPy: 8.19, pybuf.PyCUDA: 6.98, pybuf.Numba: 12.07}},
		{"fig23", "Allreduce GPU latency, large, 16 GPUs (2x8), Bridges-2", core.Allreduce, 16, 8,
			LargeMin, LargeMax,
			map[pybuf.Library]float64{pybuf.CuPy: 11.42, pybuf.PyCUDA: 12.17, pybuf.Numba: 14.76}},
		{"fig24", "Allgather GPU latency, small, 16 GPUs (2x8), Bridges-2", core.Allgather, 16, 8,
			SmallMin, SmallMax,
			map[pybuf.Library]float64{pybuf.CuPy: 10.63, pybuf.PyCUDA: 12.64, pybuf.Numba: 9.15}},
		{"fig25", "Allgather GPU latency, large, 16 GPUs (2x8), Bridges-2", core.Allgather, 16, 8,
			LargeMin, LargeMax,
			map[pybuf.Library]float64{pybuf.CuPy: 15.04, pybuf.PyCUDA: 16.99, pybuf.Numba: 19.36}},
	}
	for _, gc := range cases {
		gc := gc
		register(Experiment{ID: gc.id, Title: gc.title, run: func(d core.Defaults) (*Result, error) {
			return gpuBuffers(d, gc.id, gc.bench, gc.ranks, gc.ppn, gc.minS, gc.maxS, gc.paper)
		}})
	}

	register(Experiment{
		ID:    "fig34",
		Title: "Allreduce GPU overhead breakdown (CuPy/PyCUDA/Numba staging phases), Bridges-2",
		run:   fig34,
	})
}

// gpuBuffers runs OMB plus OMB-Py with each GPU buffer library as one
// sweep, so ombrepro's -parallel flag overlaps them on the sweep engine's
// worker pool, and reports each library's average overhead against the
// paper's number.
func gpuBuffers(d core.Defaults, id string, bench core.Benchmark, ranks, ppn, minS, maxS int, paper map[pybuf.Library]float64) (*Result, error) {
	base := core.Options{
		Benchmark: bench, Cluster: "bridges2", Ranks: ranks, PPN: ppn,
		UseGPU: true, MinSize: minS, MaxSize: maxS,
	}
	libs := pybuf.GPULibraries()
	variants := []core.Variant{{Name: "OMB"}}
	for _, lib := range libs {
		variants = append(variants, core.Variant{
			Name:   "OMB-Py/" + lib.String(),
			Mutate: func(o *core.Options) { o.Mode, o.Buffer = core.ModePy, lib },
		})
	}
	res, err := runSweep(d, core.Sweep{Base: base, Variants: variants})
	if err != nil {
		return nil, err
	}
	series := res.Series()
	var sts []Stat
	for i, lib := range libs {
		sts = append(sts, Stat{
			Name:     fmt.Sprintf("avg %v overhead", lib),
			Paper:    paper[lib],
			Measured: stats.AvgOverheadUs(series[i+1], series[0]),
			Unit:     "us",
		})
	}
	return &Result{
		ID:    id,
		Table: stats.Table{Metric: "latency(us)", Series: series},
		Stats: sts,
	}, nil
}

// fig34 profiles the staging phases of the GPU Allreduce per buffer library
// and reports the phase shares the paper quotes (recv-prep ~48-50%,
// send-prep ~32-40%, misc ~10-20%; 80-90% of overhead is buffer staging).
func fig34(d core.Defaults) (*Result, error) {
	var sts []Stat
	paperShares := map[pybuf.Library][3]float64{ // misc, send, recv fractions
		pybuf.CuPy:   {0.16, 0.35, 0.49},
		pybuf.PyCUDA: {0.20, 0.32, 0.48},
		pybuf.Numba:  {0.10, 0.40, 0.50},
	}
	var notes string
	for _, lib := range pybuf.GPULibraries() {
		prof := mpi4py.NewProfiler()
		opts := core.Options{
			Benchmark: core.Allreduce, Cluster: "bridges2", Mode: core.ModePy,
			Buffer: lib, UseGPU: true, Ranks: 16, PPN: 8,
			MinSize: 4, MaxSize: 64 * 1024, Iters: 10, Warmup: 2,
			Profiler: prof,
		}
		if _, err := runOptions(d, opts); err != nil {
			return nil, fmt.Errorf("profiled run %v: %w", lib, err)
		}
		// Aggregate phase means across sizes.
		var misc, send, recv float64
		var n int
		for _, b := range prof.Snapshot() {
			misc += float64(b.PerPhase[mpi4py.PhaseMisc])
			send += float64(b.PerPhase[mpi4py.PhaseSendPrep])
			recv += float64(b.PerPhase[mpi4py.PhaseRecvPrep])
			n++
		}
		total := misc + send + recv
		if n == 0 || total == 0 {
			return nil, fmt.Errorf("profiler captured nothing for %v", lib)
		}
		shares := paperShares[lib]
		sts = append(sts,
			Stat{Name: fmt.Sprintf("%v misc share", lib), Paper: shares[0], Measured: misc / total, Unit: "frac"},
			Stat{Name: fmt.Sprintf("%v send-prep share", lib), Paper: shares[1], Measured: send / total, Unit: "frac"},
			Stat{Name: fmt.Sprintf("%v recv-prep share", lib), Paper: shares[2], Measured: recv / total, Unit: "frac"},
			Stat{Name: fmt.Sprintf("%v staging share of binding overhead", lib), Paper: 0.85,
				Measured: (send + recv) / total, Unit: "frac"},
		)
		notes = "staging fractions are means over message sizes 4B-64KiB"
	}
	return &Result{
		ID:    "fig34",
		Title: "staging-phase attribution",
		Table: stats.Table{Metric: "latency(us)"},
		Stats: sts,
		Notes: notes,
	}, nil
}
