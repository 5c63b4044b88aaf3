// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation as testing.B benchmarks: each BenchmarkFigNN/TableN
// runs the corresponding experiment configuration and reports, besides the
// usual ns/op of the simulation itself, the measured OMB-Py overhead (or
// the figure's headline statistic) as a custom "us_overhead" metric so
// `go test -bench` output doubles as a reproduction record.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/pybuf"
	"repro/internal/stats"
)

// benchSizes keeps benchmark wall time reasonable while still covering the
// small/large split: the full sweeps live in cmd/ombrepro.
const (
	benchSmallMin, benchSmallMax = 1, 8 * 1024
	benchLargeMin, benchLargeMax = 16 * 1024, 256 * 1024
)

func runOrFatal(b *testing.B, opts core.Options) *stats.Series {
	b.Helper()
	opts.Iters, opts.Warmup = 20, 2
	opts.LargeIters, opts.LargeWarmup = 5, 1
	rep, err := core.Run(opts)
	if err != nil {
		b.Fatal(err)
	}
	return &rep.Series
}

// pairOverhead runs OMB and OMB-Py and reports the average overhead metric.
func pairOverhead(b *testing.B, base core.Options) {
	b.Helper()
	var overhead float64
	for i := 0; i < b.N; i++ {
		cOpts := base
		cOpts.Mode = core.ModeC
		omb := runOrFatal(b, cOpts)
		pyOpts := base
		pyOpts.Mode = core.ModePy
		if pyOpts.Buffer == pybuf.Bytearray && !pyOpts.UseGPU {
			pyOpts.Buffer = pybuf.NumPy
		}
		ombpy := runOrFatal(b, pyOpts)
		overhead = stats.AvgOverheadUs(ombpy, omb)
	}
	b.ReportMetric(overhead, "us_overhead")
}

// --- Figures 2-7: intra-node latency on the three CPU clusters ---

func benchIntra(b *testing.B, cluster string, minS, maxS int) {
	pairOverhead(b, core.Options{
		Benchmark: core.Latency, Cluster: cluster, Ranks: 2, PPN: 2,
		MinSize: minS, MaxSize: maxS,
	})
}

func BenchmarkFig02IntraLatencySmallFrontera(b *testing.B) {
	benchIntra(b, "frontera", benchSmallMin, benchSmallMax)
}
func BenchmarkFig03IntraLatencyLargeFrontera(b *testing.B) {
	benchIntra(b, "frontera", benchLargeMin, benchLargeMax)
}
func BenchmarkFig04IntraLatencySmallStampede2(b *testing.B) {
	benchIntra(b, "stampede2", benchSmallMin, benchSmallMax)
}
func BenchmarkFig05IntraLatencyLargeStampede2(b *testing.B) {
	benchIntra(b, "stampede2", benchLargeMin, benchLargeMax)
}
func BenchmarkFig06IntraLatencySmallRI2(b *testing.B) {
	benchIntra(b, "ri2", benchSmallMin, benchSmallMax)
}
func BenchmarkFig07IntraLatencyLargeRI2(b *testing.B) {
	benchIntra(b, "ri2", benchLargeMin, benchLargeMax)
}

// --- Figures 8-11: inter-node latency and bandwidth on Frontera ---

func BenchmarkFig08InterLatencySmall(b *testing.B) {
	pairOverhead(b, core.Options{
		Benchmark: core.Latency, Ranks: 2, PPN: 1,
		MinSize: benchSmallMin, MaxSize: benchSmallMax,
	})
}

func BenchmarkFig09InterLatencyLarge(b *testing.B) {
	pairOverhead(b, core.Options{
		Benchmark: core.Latency, Ranks: 2, PPN: 1,
		MinSize: benchLargeMin, MaxSize: benchLargeMax,
	})
}

func benchBandwidthGap(b *testing.B, minS, maxS int) {
	b.Helper()
	var gap float64
	for i := 0; i < b.N; i++ {
		base := core.Options{
			Benchmark: core.Bandwidth, Ranks: 2, PPN: 1,
			MinSize: minS, MaxSize: maxS,
		}
		cOpts := base
		cOpts.Mode = core.ModeC
		omb := runOrFatal(b, cOpts)
		pyOpts := base
		pyOpts.Mode = core.ModePy
		pyOpts.Buffer = pybuf.NumPy
		ombpy := runOrFatal(b, pyOpts)
		gap = stats.AvgBandwidthGapMBps(ombpy, omb)
	}
	b.ReportMetric(gap, "MBps_deficit")
}

func BenchmarkFig10InterBandwidthSmall(b *testing.B) {
	benchBandwidthGap(b, benchSmallMin, benchSmallMax)
}
func BenchmarkFig11InterBandwidthLarge(b *testing.B) {
	benchBandwidthGap(b, benchLargeMin, benchLargeMax)
}

// --- Figures 12-19: Allreduce and Allgather collectives ---

func benchCollectivePair(b *testing.B, bench core.Benchmark, ranks, ppn, minS, maxS int, timingOnly bool) {
	pairOverhead(b, core.Options{
		Benchmark: bench, Ranks: ranks, PPN: ppn,
		MinSize: minS, MaxSize: maxS, TimingOnly: timingOnly,
	})
}

func BenchmarkFig12AllreduceSmall16x1(b *testing.B) {
	benchCollectivePair(b, core.Allreduce, 16, 1, 4, benchSmallMax, false)
}
func BenchmarkFig13AllreduceLarge16x1(b *testing.B) {
	benchCollectivePair(b, core.Allreduce, 16, 1, benchLargeMin, benchLargeMax, false)
}
func BenchmarkFig14AllreduceSmallFullSub(b *testing.B) {
	benchCollectivePair(b, core.Allreduce, 896, 56, 4, 1024, true)
}
func BenchmarkFig15AllreduceLargeFullSub(b *testing.B) {
	benchCollectivePair(b, core.Allreduce, 896, 56, benchLargeMin, 32*1024, true)
}
func BenchmarkFig16AllgatherSmall16x1(b *testing.B) {
	benchCollectivePair(b, core.Allgather, 16, 1, benchSmallMin, benchSmallMax, false)
}
func BenchmarkFig17AllgatherLarge16x1(b *testing.B) {
	benchCollectivePair(b, core.Allgather, 16, 1, benchLargeMin, benchLargeMax, false)
}
func BenchmarkFig18AllgatherSmallFullSub(b *testing.B) {
	benchCollectivePair(b, core.Allgather, 896, 56, 1, 64, true)
}
func BenchmarkFig19AllgatherLargeFullSub(b *testing.B) {
	benchCollectivePair(b, core.Allgather, 896, 56, benchLargeMin, 32*1024, true)
}

// --- Figures 20-25: GPU buffers on Bridges-2 ---

func benchGPU(b *testing.B, bench core.Benchmark, lib pybuf.Library, ranks, ppn, minS, maxS int) {
	b.Helper()
	var overhead float64
	for i := 0; i < b.N; i++ {
		base := core.Options{
			Benchmark: bench, Cluster: "bridges2", Ranks: ranks, PPN: ppn,
			UseGPU: true, MinSize: minS, MaxSize: maxS,
		}
		cOpts := base
		cOpts.Mode = core.ModeC
		omb := runOrFatal(b, cOpts)
		pyOpts := base
		pyOpts.Mode = core.ModePy
		pyOpts.Buffer = lib
		ombpy := runOrFatal(b, pyOpts)
		overhead = stats.AvgOverheadUs(ombpy, omb)
	}
	b.ReportMetric(overhead, "us_overhead")
}

func BenchmarkFig20GPULatencySmall(b *testing.B) {
	for _, lib := range pybuf.GPULibraries() {
		b.Run(lib.String(), func(b *testing.B) {
			benchGPU(b, core.Latency, lib, 2, 1, 8, benchSmallMax)
		})
	}
}

func BenchmarkFig21GPULatencyLarge(b *testing.B) {
	for _, lib := range pybuf.GPULibraries() {
		b.Run(lib.String(), func(b *testing.B) {
			benchGPU(b, core.Latency, lib, 2, 1, benchLargeMin, benchLargeMax)
		})
	}
}

func BenchmarkFig22GPUAllreduceSmall(b *testing.B) {
	for _, lib := range pybuf.GPULibraries() {
		b.Run(lib.String(), func(b *testing.B) {
			benchGPU(b, core.Allreduce, lib, 16, 8, 4, benchSmallMax)
		})
	}
}

func BenchmarkFig23GPUAllreduceLarge(b *testing.B) {
	for _, lib := range pybuf.GPULibraries() {
		b.Run(lib.String(), func(b *testing.B) {
			benchGPU(b, core.Allreduce, lib, 16, 8, benchLargeMin, benchLargeMax)
		})
	}
}

func BenchmarkFig24GPUAllgatherSmall(b *testing.B) {
	for _, lib := range pybuf.GPULibraries() {
		b.Run(lib.String(), func(b *testing.B) {
			benchGPU(b, core.Allgather, lib, 16, 8, benchSmallMin, benchSmallMax)
		})
	}
}

func BenchmarkFig25GPUAllgatherLarge(b *testing.B) {
	for _, lib := range pybuf.GPULibraries() {
		b.Run(lib.String(), func(b *testing.B) {
			benchGPU(b, core.Allgather, lib, 16, 8, benchLargeMin, benchLargeMax)
		})
	}
}

// --- Figures 26-29: MVAPICH2 vs Intel MPI generality ---

func BenchmarkFig26to27IntelMPILatencyDelta(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		base := core.Options{
			Benchmark: core.Latency, Mode: core.ModePy, Buffer: pybuf.NumPy,
			Ranks: 2, PPN: 1, MinSize: benchSmallMin, MaxSize: benchLargeMax,
		}
		mv := runOrFatal(b, base)
		base.Impl = netmodel.IntelMPI
		impi := runOrFatal(b, base)
		delta = stats.AvgOverheadUs(impi, mv)
	}
	b.ReportMetric(delta, "us_delta")
}

func BenchmarkFig28to29IntelMPIBandwidthDelta(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		base := core.Options{
			Benchmark: core.Bandwidth, Mode: core.ModePy, Buffer: pybuf.NumPy,
			Ranks: 2, PPN: 1, MinSize: benchSmallMin, MaxSize: benchLargeMax,
		}
		mv := runOrFatal(b, base)
		base.Impl = netmodel.IntelMPI
		impi := runOrFatal(b, base)
		gap = stats.AvgBandwidthGapMBps(impi, mv)
	}
	b.ReportMetric(gap, "MBps_deficit")
}

// --- Figures 30-33: pickle vs direct buffers ---

func benchPickle(b *testing.B, bench core.Benchmark, minS, maxS int, bandwidth bool) {
	b.Helper()
	var metric float64
	for i := 0; i < b.N; i++ {
		base := core.Options{
			Benchmark: bench, Ranks: 2, PPN: 1, Buffer: pybuf.NumPy,
			MinSize: minS, MaxSize: maxS,
		}
		direct := base
		direct.Mode = core.ModePy
		d := runOrFatal(b, direct)
		pk := base
		pk.Mode = core.ModePickle
		p := runOrFatal(b, pk)
		if bandwidth {
			metric = stats.AvgBandwidthGapMBps(p, d)
		} else {
			metric = stats.AvgOverheadUs(p, d)
		}
	}
	if bandwidth {
		b.ReportMetric(metric, "MBps_deficit")
	} else {
		b.ReportMetric(metric, "us_overhead")
	}
}

func BenchmarkFig30PickleLatencySmall(b *testing.B) {
	benchPickle(b, core.Latency, benchSmallMin, benchSmallMax, false)
}
func BenchmarkFig31PickleLatencyLarge(b *testing.B) {
	benchPickle(b, core.Latency, benchLargeMin, benchLargeMax, false)
}
func BenchmarkFig32PickleBandwidthSmall(b *testing.B) {
	benchPickle(b, core.Bandwidth, benchSmallMin, benchSmallMax, true)
}
func BenchmarkFig33PickleBandwidthLarge(b *testing.B) {
	benchPickle(b, core.Bandwidth, benchLargeMin, benchLargeMax, true)
}

// --- Tables II & III ---

// BenchmarkTable2 runs every registered benchmark once (the inventory),
// driven from the registry metadata: each spec supplies its minimum rank
// count, supported modes and, for the fault family, a fault plan.
func BenchmarkTable2AllBenchmarks(b *testing.B) {
	for _, bench := range core.Benchmarks() {
		spec, err := core.LookupBenchmark(string(bench))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(bench), func(b *testing.B) {
			ranks, mode, faults := spec.InventoryConfig()
			for i := 0; i < b.N; i++ {
				runOrFatal(b, core.Options{
					Benchmark: bench, Mode: mode, Buffer: pybuf.NumPy,
					Ranks: ranks, PPN: 2, MinSize: 8, MaxSize: 1024,
					Faults: faults,
				})
			}
		})
	}
}

// BenchmarkTable3OverheadMatrix reproduces the summary matrix rows.
func BenchmarkTable3OverheadMatrix(b *testing.B) {
	b.Run("intra_small", func(b *testing.B) { benchIntra(b, "frontera", benchSmallMin, benchSmallMax) })
	b.Run("inter_small", func(b *testing.B) {
		pairOverhead(b, core.Options{Benchmark: core.Latency, Ranks: 2, PPN: 1,
			MinSize: benchSmallMin, MaxSize: benchSmallMax})
	})
	b.Run("allreduce_small", func(b *testing.B) {
		benchCollectivePair(b, core.Allreduce, 16, 1, 4, benchSmallMax, false)
	})
	b.Run("gpu_cupy_small", func(b *testing.B) { benchGPU(b, core.Latency, pybuf.CuPy, 2, 1, 8, benchSmallMax) })
}

// --- Sweep engine ---

// sweepVariants builds an 8-variant allreduce sweep (2 algorithms x 2
// implementations x 2 modes), the shape behind the ablation figures.
func sweepVariants() core.Sweep {
	var variants []core.Variant
	for _, algo := range []string{"recursive_doubling", "rabenseifner"} {
		for _, impl := range []netmodel.Impl{netmodel.MVAPICH2, netmodel.IntelMPI} {
			for _, mode := range []core.Mode{core.ModeC, core.ModePy} {
				algo, impl, mode := algo, impl, mode
				variants = append(variants, core.Variant{
					Name: string(impl) + "/" + mode.String() + "/" + algo,
					Mutate: func(o *core.Options) {
						o.Algorithms = map[string]string{"allreduce": algo}
						o.Impl = impl
						o.Mode = mode
					},
				})
			}
		}
	}
	return core.Sweep{
		Base: core.Options{
			Benchmark: core.Allreduce, Mode: core.ModeC, Buffer: pybuf.NumPy,
			Ranks: 16, PPN: 4, MinSize: 4, MaxSize: benchLargeMax,
			Iters: 20, Warmup: 2, LargeIters: 5, LargeWarmup: 1,
		},
		Variants: variants,
	}
}

// BenchmarkSweepParallel contrasts the serial sweep with the bounded
// worker pool on the same 8-variant sweep; the speedup is the wall-clock
// ratio of the workers_1 and workers_8 ns/op numbers. Variants are
// embarrassingly parallel (each simulates an independent virtual world),
// so the ratio tracks min(workers, GOMAXPROCS) -- on a single-CPU runner
// the numbers converge instead of improving. Results are bit-identical
// regardless of the worker count, which TestSweepParallelBitIdentical
// proves.
func BenchmarkSweepParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			sw := sweepVariants()
			sw.Workers = workers
			for i := 0; i < b.N; i++ {
				res, err := sw.Run()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Reports) != len(sw.Variants) {
					b.Fatalf("reports: %d", len(res.Reports))
				}
			}
		})
	}
}

// --- Ablations: each benchmark below switches one modelled design choice
// (the eager/rendezvous protocol, the collective algorithm, the binding's
// staging, the pickle framing) and reports what that choice alone costs ---

// BenchmarkAblationEagerThreshold contrasts one-way latency just below and
// just above the inter-node rendezvous switch: the knee is the design
// choice (eager copies vs handshake) the protocol model encodes.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	for _, size := range []int{8 * 1024, 16 * 1024} {
		b.Run(stats.HumanBytes(size), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				s := runOrFatal(b, core.Options{
					Benchmark: core.Latency, Mode: core.ModeC, Ranks: 2, PPN: 1,
					MinSize: size, MaxSize: size,
				})
				lat = s.Rows[0].AvgUs
			}
			b.ReportMetric(lat, "us_latency")
		})
	}
}

// BenchmarkAblationAllreduceAlgo forces each Allreduce algorithm (via the
// tuning knobs) on the same 256 KiB workload: Rabenseifner's reduce-scatter
// + allgather vs whole-vector recursive doubling.
func BenchmarkAblationAllreduceAlgo(b *testing.B) {
	const size = 256 * 1024
	cases := []struct {
		name   string
		tuning mpi.Tuning
	}{
		{"rabenseifner", mpi.Tuning{AllreduceRabenseifnerMin: 1}},
		{"recdoubling", mpi.Tuning{AllreduceRabenseifnerMin: 1 << 30}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				s := runOrFatal(b, core.Options{
					Benchmark: core.Allreduce, Mode: core.ModeC, Ranks: 16, PPN: 1,
					MinSize: size, MaxSize: size, Tuning: c.tuning,
				})
				lat = s.Rows[0].AvgUs
			}
			b.ReportMetric(lat, "us_latency")
		})
	}
}

// BenchmarkAblationAllgatherAlgo forces each Allgather algorithm on the
// same 16-rank, 8 KiB-per-rank workload.
func BenchmarkAblationAllgatherAlgo(b *testing.B) {
	const size = 8 * 1024
	big := 1 << 30
	cases := []struct {
		name   string
		ranks  int
		tuning mpi.Tuning
	}{
		{"recdoubling", 16, mpi.Tuning{AllgatherRDMaxTotal: big}},
		{"bruck", 16, mpi.Tuning{AllgatherRDMaxTotal: -1, AllgatherBruckMaxTotal: big}},
		{"ring", 16, mpi.Tuning{AllgatherRDMaxTotal: -1, AllgatherBruckMaxTotal: -1}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				s := runOrFatal(b, core.Options{
					Benchmark: core.Allgather, Mode: core.ModeC, Ranks: c.ranks, PPN: 1,
					MinSize: size, MaxSize: size, Tuning: c.tuning,
				})
				lat = s.Rows[0].AvgUs
			}
			b.ReportMetric(lat, "us_latency")
		})
	}
}

// BenchmarkAblationStaging isolates the binding layer: identical schedule
// and network, with and without the Cython staging model.
func BenchmarkAblationStaging(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeC, core.ModePy} {
		b.Run(mode.String(), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				s := runOrFatal(b, core.Options{
					Benchmark: core.Latency, Mode: mode, Buffer: pybuf.NumPy,
					Ranks: 2, PPN: 1, MinSize: 8, MaxSize: 8,
				})
				lat = s.Rows[0].AvgUs
			}
			b.ReportMetric(lat, "us_latency")
		})
	}
}

// BenchmarkAblationPickle separates the serializer's framing cost from the
// payload copy by comparing direct, pickle-small and pickle-large.
func BenchmarkAblationPickle(b *testing.B) {
	cases := []struct {
		name string
		mode core.Mode
		size int
	}{
		{"direct_1K", core.ModePy, 1024},
		{"pickle_1K", core.ModePickle, 1024},
		{"direct_256K", core.ModePy, 256 * 1024},
		{"pickle_256K", core.ModePickle, 256 * 1024},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				s := runOrFatal(b, core.Options{
					Benchmark: core.Latency, Mode: c.mode, Buffer: pybuf.NumPy,
					Ranks: 2, PPN: 1, MinSize: c.size, MaxSize: c.size,
				})
				lat = s.Rows[0].AvgUs
			}
			b.ReportMetric(lat, "us_latency")
		})
	}
}
