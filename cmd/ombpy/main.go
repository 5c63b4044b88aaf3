// Command ombpy runs a single micro-benchmark in the style of the OSU
// benchmark executables (osu_latency, osu_bw, osu_allreduce, ...), on the
// simulated cluster of your choice, in OMB (C), OMB-Py (direct buffer) or
// OMB-Py pickle mode.
//
// Examples:
//
//	ombpy -bench latency -mode py -buffer numpy -cluster frontera -ppn 2
//	ombpy -bench allreduce -mode py -ranks 16 -ppn 1
//	ombpy -bench latency -mode py -buffer cupy -cluster bridges2 -gpu
//	ombpy -bench bw -mode pickle
//	ombpy -bench allgather -ranks 16 -algorithm ring
//	ombpy -bench allreduce -ranks 16 -algorithm all -parallel 4
//	ombpy -bench iallreduce -mode c -ranks 16      # overlap benchmark
//	ombpy -bench mbw_mr -ranks 16 -pairs 4         # multi-pair message rate
//	ombpy -algorithm list
//	ombpy -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/pybuf"
	"repro/internal/stats"
	"repro/internal/topology"
)

func main() {
	var (
		bench     = flag.String("bench", "latency", "benchmark name (see -list)")
		cluster   = flag.String("cluster", "frontera", "cluster model: "+strings.Join(topology.Names(), ", "))
		impl      = flag.String("impl", "mvapich2", "MPI implementation: mvapich2, intelmpi")
		mode      = flag.String("mode", "py", "mode: c (OMB baseline), py (OMB-Py), pickle")
		buffer    = flag.String("buffer", "numpy", "buffer library: bytearray, numpy, cupy, pycuda, numba")
		gpu       = flag.Bool("gpu", false, "bind ranks to GPUs and use device buffers")
		ranks     = flag.Int("ranks", 2, "number of MPI ranks")
		ppn       = flag.Int("ppn", 1, "processes per node")
		minSize   = flag.Int("min", 1, "smallest message size in bytes")
		maxSize   = flag.Int("max", 1<<20, "largest message size in bytes")
		iters     = flag.Int("iters", 100, "timed iterations per size")
		warmup    = flag.Int("warmup", 10, "warm-up iterations per size")
		window    = flag.Int("window", 64, "window size for bandwidth tests")
		pairs     = flag.Int("pairs", 0, "pair count for the multi-pair benchmarks (0 = ranks/2)")
		timing    = flag.Bool("timing-only", false, "skip payloads (huge-scale runs)")
		fold      = flag.Bool("fold", true, "let the event loop fold symmetric ranks (false forces every rank to execute; reported numbers are identical either way)")
		algo      = flag.String("algorithm", "", "force collective algorithms: a name for this benchmark's collective, coll=name pairs, \"all\" to sweep every algorithm, \"list\" to show the registry")
		faults    = flag.String("faults", "", "deterministic fault plan, e.g. \"kill:rank=3,after=2:allreduce; noise:sigma=5us; jitter:link=0.1; seed:42\"")
		par       = flag.Int("parallel", 0, "worker count for the -algorithm all sweep (0 = serial)")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the run (0 = none); expiry reports \"# FAILED: timeout\" instead of running on")
		tableFile = flag.String("tuning-table", "", "apply a generated tuning table (see ombtune) as the per-placement default selection policy")
		asJSON    = flag.Bool("json", false, "emit the report as JSON")
		plot      = flag.Bool("plot", false, "render the series as an ASCII chart")
		list      = flag.Bool("list", false, "list available benchmarks")
	)
	flag.Parse()

	if *algo == "list" {
		fmt.Print(mpi.DescribeRegistry())
		return
	}

	if *list {
		fmt.Print(core.DescribeBenchmarks())
		return
	}

	// The other flags set the run's own options; the table is a default,
	// looked up at each run's placement.
	var d core.Defaults
	if *tableFile != "" {
		data, err := os.ReadFile(*tableFile)
		check(err)
		d.TuningTable, err = mpi.ParseTuningTable(data)
		if err != nil {
			check(fmt.Errorf("-tuning-table %s: %w", *tableFile, err))
		}
	}

	b, err := core.ParseBenchmark(*bench)
	check(err)
	m, err := core.ParseMode(*mode)
	check(err)
	lib, err := pybuf.ParseLibrary(*buffer)
	check(err)
	mpiImpl, err := netmodel.ParseImpl(*impl)
	check(err)

	opts := core.Options{
		Benchmark:  b,
		Cluster:    *cluster,
		Impl:       mpiImpl,
		Mode:       m,
		Buffer:     lib,
		UseGPU:     *gpu,
		Ranks:      *ranks,
		PPN:        *ppn,
		MinSize:    *minSize,
		MaxSize:    *maxSize,
		Iters:      *iters,
		Warmup:     *warmup,
		Window:     *window,
		Pairs:      *pairs,
		TimingOnly: *timing,
		NoFold:     !*fold,
		Faults:     *faults,
	}

	// The budget covers the whole invocation (a sweep shares one deadline
	// across its variants); expiry unwinds through the runtime's structured
	// cancellation and is classified in Report.Failure, never an abort
	// mid-sweep.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *algo == "all" {
		runAlgorithmSweep(ctx, d, opts, *par, *asJSON, *plot)
		return
	}
	if *algo != "" {
		opts.Algorithms = parseAlgorithmFlag(*algo, b)
	}

	rep, err := core.RunContext(ctx, d.Apply(opts))
	check(err)

	switch {
	case *asJSON:
		out, err := json.MarshalIndent(rep, "", "  ")
		check(err)
		fmt.Println(string(out))
	default:
		fmt.Print(rep.Text())
	}
	if *plot {
		metric := "latency(us)"
		if cols := b.Columns(); cols == core.ColumnsBandwidth || cols == core.ColumnsMessageRate {
			metric = "bandwidth(MB/s)"
		}
		ch := stats.Chart{
			Metric: metric,
			Series: []*stats.Series{&rep.Series},
			LogY:   metric == "latency(us)",
		}
		fmt.Print(ch.Render())
	}
}

// parseAlgorithmFlag accepts either comma-separated coll=name pairs or a
// bare algorithm name applied to the benchmark's own collective.
func parseAlgorithmFlag(algo string, b core.Benchmark) map[string]string {
	if strings.Contains(algo, "=") {
		m, err := core.ParseAlgorithmList(algo)
		check(err)
		return m
	}
	coll, ok := b.Collective()
	if !ok {
		check(fmt.Errorf("benchmark %s has no selectable algorithms; use coll=name pairs", b))
	}
	canon, err := mpi.CanonicalAlgorithm(coll, algo)
	check(err)
	return map[string]string{string(coll): canon}
}

// runAlgorithmSweep runs the benchmark once per registered algorithm of
// its collective (skipping ones infeasible at this rank count) on the
// parallel sweep engine and prints the aligned table.
func runAlgorithmSweep(ctx context.Context, d core.Defaults, opts core.Options, workers int, asJSON, plot bool) {
	variants, err := core.AlgorithmVariants(opts)
	check(err)
	res, err := core.Sweep{Base: opts, Variants: variants, Workers: workers, Defaults: d}.RunContext(ctx)
	check(err)
	switch {
	case asJSON:
		out, err := json.MarshalIndent(res.Reports, "", "  ")
		check(err)
		fmt.Println(string(out))
	default:
		tab := res.Table(fmt.Sprintf("%s algorithms", opts.Benchmark), "latency(us)")
		fmt.Print(tab.Render())
	}
	if plot {
		ch := stats.Chart{Metric: "latency(us)", Series: res.Series(), LogY: true}
		fmt.Print(ch.Render())
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ombpy:", err)
		os.Exit(1)
	}
}
