package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/pybuf"
	"repro/internal/stats"
)

// Table experiments: Table II (the supported-benchmark inventory) and
// Table III (the average-overhead summary matrix).

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Feature matrix of the OMB-Py design (Table I)",
		run:   table1,
	})
	register(Experiment{
		ID:    "table2",
		Title: "Benchmarks supported by OMB-Py (Table II)",
		run:   table2,
	})
	register(Experiment{
		ID:    "table3",
		Title: "Average OMB-Py overhead summary: CPU latency/Allreduce, GPU buffers (Table III)",
		run:   table3,
	})
}

// table1 exercises every feature row the paper's Table I claims for the
// OMB-Py design: point-to-point, blocking collectives, vector variants,
// Python-side buffers of all five libraries. Each claim is verified by
// actually running a benchmark that depends on it.
func table1(d core.Defaults) (*Result, error) {
	var sb strings.Builder
	type claim struct {
		feature string
		opts    core.Options
	}
	claims := []claim{
		{"Point-to-Point", core.Options{
			Benchmark: core.Latency, Mode: core.ModePy, Buffer: pybuf.NumPy,
			Ranks: 2, PPN: 2, MinSize: 8, MaxSize: 64, Iters: 3, Warmup: 1}},
		{"Blocking Collectives", core.Options{
			Benchmark: core.Allreduce, Mode: core.ModePy, Buffer: pybuf.NumPy,
			Ranks: 4, PPN: 2, MinSize: 8, MaxSize: 64, Iters: 3, Warmup: 1}},
		{"Vector Variant Blocking Collectives", core.Options{
			Benchmark: core.Allgatherv, Mode: core.ModePy, Buffer: pybuf.NumPy,
			Ranks: 4, PPN: 2, MinSize: 8, MaxSize: 64, Iters: 3, Warmup: 1}},
		{"Bytearray Buffers", core.Options{
			Benchmark: core.Latency, Mode: core.ModePy, Buffer: pybuf.Bytearray,
			Ranks: 2, PPN: 2, MinSize: 8, MaxSize: 64, Iters: 3, Warmup: 1}},
		{"Numpy Buffers", core.Options{
			Benchmark: core.Latency, Mode: core.ModePy, Buffer: pybuf.NumPy,
			Ranks: 2, PPN: 2, MinSize: 8, MaxSize: 64, Iters: 3, Warmup: 1}},
		{"CuPy Buffers", core.Options{
			Benchmark: core.Latency, Mode: core.ModePy, Buffer: pybuf.CuPy,
			Cluster: "bridges2", UseGPU: true,
			Ranks: 2, PPN: 2, MinSize: 8, MaxSize: 64, Iters: 3, Warmup: 1}},
		{"PyCUDA Buffers", core.Options{
			Benchmark: core.Latency, Mode: core.ModePy, Buffer: pybuf.PyCUDA,
			Cluster: "bridges2", UseGPU: true,
			Ranks: 2, PPN: 2, MinSize: 8, MaxSize: 64, Iters: 3, Warmup: 1}},
		{"Numba Buffers", core.Options{
			Benchmark: core.Latency, Mode: core.ModePy, Buffer: pybuf.Numba,
			Cluster: "bridges2", UseGPU: true,
			Ranks: 2, PPN: 2, MinSize: 8, MaxSize: 64, Iters: 3, Warmup: 1}},
		{"Pickle (serialized objects)", core.Options{
			Benchmark: core.Latency, Mode: core.ModePickle, Buffer: pybuf.NumPy,
			Ranks: 2, PPN: 2, MinSize: 8, MaxSize: 64, Iters: 3, Warmup: 1}},
	}
	passed := 0
	for _, cl := range claims {
		if _, err := runOptions(d, cl.opts); err != nil {
			return nil, fmt.Errorf("table1: feature %q failed: %w", cl.feature, err)
		}
		passed++
		fmt.Fprintf(&sb, "%-40s supported (verified by run)\n", cl.feature)
	}
	return &Result{
		ID:    "table1",
		Title: "feature matrix",
		Table: stats.Table{Comment: sb.String()},
		Stats: []Stat{{Name: "Table I feature rows verified", Paper: float64(len(claims)),
			Measured: float64(passed), Unit: ""}},
	}, nil
}

// table2 verifies the benchmark registry implements every workload of the
// paper's Table II (plus the registered post-paper families) by running
// each one end-to-end at a small scale. The drive comes entirely from
// registry metadata: each spec supplies its listing group, minimum rank
// count, supported modes and (for the fault family) a fault plan, so new
// workloads join the table by registering themselves. The paper statistic
// counts only the Table II groups.
func table2(d core.Defaults) (*Result, error) {
	var sb strings.Builder
	paper := 0
	for _, b := range core.Benchmarks() {
		spec, err := core.LookupBenchmark(string(b))
		if err != nil {
			return nil, fmt.Errorf("table2: %w", err)
		}
		ranks, mode, faults := spec.InventoryConfig()
		opts := core.Options{
			Benchmark: b, Mode: mode, Buffer: pybuf.NumPy,
			Ranks: ranks, PPN: 2, MinSize: 8, MaxSize: 1024,
			Iters: 3, Warmup: 1, Faults: faults,
		}
		if _, err := runOptions(d, opts); err != nil {
			return nil, fmt.Errorf("table2: %s failed: %w", b, err)
		}
		if spec.InTableII() {
			paper++
		}
		fmt.Fprintf(&sb, "%-40s %s: ok\n", spec.Group, b)
	}
	return &Result{
		ID:    "table2",
		Title: "supported benchmarks",
		Table: stats.Table{Comment: sb.String()},
		Stats: []Stat{{Name: "Table II benchmarks implemented and passing", Paper: 17,
			Measured: float64(paper), Unit: ""}},
	}, nil
}

// table3 reproduces the paper's overhead summary matrix.
func table3(d core.Defaults) (*Result, error) {
	row := func(name string, paper float64, f func() (float64, error)) (Stat, error) {
		m, err := f()
		if err != nil {
			return Stat{}, fmt.Errorf("table3 %s: %w", name, err)
		}
		return Stat{Name: name, Paper: paper, Measured: m, Unit: "us"}, nil
	}
	latOver := func(ppn, minS, maxS int) func() (float64, error) {
		return func() (float64, error) {
			omb, ombpy, err := runPair(d, core.Options{
				Benchmark: core.Latency, Cluster: "frontera", Ranks: 2, PPN: ppn,
				MinSize: minS, MaxSize: maxS,
			})
			if err != nil {
				return 0, err
			}
			return stats.AvgOverheadUs(ombpy, omb), nil
		}
	}
	allreduceOver := func(minS, maxS int) func() (float64, error) {
		return func() (float64, error) {
			omb, ombpy, err := runPair(d, core.Options{
				Benchmark: core.Allreduce, Cluster: "frontera", Ranks: 16, PPN: 1,
				MinSize: minS, MaxSize: maxS,
			})
			if err != nil {
				return 0, err
			}
			return stats.AvgOverheadUs(ombpy, omb), nil
		}
	}
	gpuOver := func(lib pybuf.Library, minS, maxS int) func() (float64, error) {
		return func() (float64, error) {
			base := core.Options{
				Benchmark: core.Latency, Cluster: "bridges2", Ranks: 2, PPN: 1,
				UseGPU: true, MinSize: minS, MaxSize: maxS,
			}
			cRep, err := runOptions(d, base)
			if err != nil {
				return 0, err
			}
			base.Mode, base.Buffer = core.ModePy, lib
			pyRep, err := runOptions(d, base)
			if err != nil {
				return 0, err
			}
			return stats.AvgOverheadUs(&pyRep.Series, &cRep.Series), nil
		}
	}

	type entry struct {
		name  string
		paper float64
		f     func() (float64, error)
	}
	entries := []entry{
		{"small: intra-node latency", 0.44, latOver(2, SmallMin, SmallMax)},
		{"small: inter-node latency", 0.43, latOver(1, SmallMin, SmallMax)},
		{"small: Allreduce 16x1", 0.93, allreduceOver(4, SmallMax)},
		{"small: GPU CuPy latency", 4.33, gpuOver(pybuf.CuPy, SmallMin, SmallMax)},
		{"small: GPU PyCUDA latency", 4.19, gpuOver(pybuf.PyCUDA, SmallMin, SmallMax)},
		{"small: GPU Numba latency", 6.19, gpuOver(pybuf.Numba, SmallMin, SmallMax)},
		{"large: intra-node latency", 2.31, latOver(2, LargeMin, LargeMax)},
		{"large: inter-node latency", 0.63, latOver(1, LargeMin, LargeMax)},
		{"large: Allreduce 16x1", 14.13, allreduceOver(LargeMin, LargeMax)},
		{"large: GPU CuPy latency", 8.67, gpuOver(pybuf.CuPy, LargeMin, LargeMax)},
		{"large: GPU PyCUDA latency", 8.40, gpuOver(pybuf.PyCUDA, LargeMin, LargeMax)},
		{"large: GPU Numba latency", 10.53, gpuOver(pybuf.Numba, LargeMin, LargeMax)},
	}
	var sts []Stat
	for _, e := range entries {
		st, err := row(e.name, e.paper, e.f)
		if err != nil {
			return nil, err
		}
		sts = append(sts, st)
	}
	return &Result{
		ID:    "table3",
		Title: "average overhead matrix",
		Table: stats.Table{Metric: "latency(us)"},
		Stats: sts,
	}, nil
}
