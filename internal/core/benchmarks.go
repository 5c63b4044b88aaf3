package core

import (
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// This file registers the paper's Table II workloads (plus the overlap
// family of PR 3) on the benchmark registry and holds their bodies. The
// bodies are the OMB algorithms verbatim; only the harness handle changed
// when the closed enum dispatch became the registry — the golden fixture
// pins that the numbers did not.

// The built-in benchmarks. The constants are canonical registry names;
// ParseBenchmark also accepts the aliases declared at registration.
const (
	Latency      Benchmark = "latency"
	Bandwidth    Benchmark = "bw"
	BiBandwidth  Benchmark = "bibw"
	MultiLatency Benchmark = "multi_lat"

	Allgather     Benchmark = "allgather"
	Allreduce     Benchmark = "allreduce"
	Alltoall      Benchmark = "alltoall"
	Barrier       Benchmark = "barrier"
	Bcast         Benchmark = "bcast"
	Gather        Benchmark = "gather"
	ReduceScatter Benchmark = "reduce_scatter"
	Reduce        Benchmark = "reduce"
	Scatter       Benchmark = "scatter"

	Allgatherv Benchmark = "allgatherv"
	Alltoallv  Benchmark = "alltoallv"
	Gatherv    Benchmark = "gatherv"
	Scatterv   Benchmark = "scatterv"

	// Overlap benchmarks (osu_iallreduce style, beyond the paper's first
	// release): post the nonblocking collective, inject calibrated virtual
	// compute, Wait, and report pure-communication time, total time and
	// the communication/computation overlap percentage.
	IAllreduce     Benchmark = "iallreduce"
	IBcast         Benchmark = "ibcast"
	IGather        Benchmark = "igather"
	IAllgather     Benchmark = "iallgather"
	IAlltoall      Benchmark = "ialltoall"
	IReduceScatter Benchmark = "ireduce_scatter"
	IScan          Benchmark = "iscan"
)

// Listing groups of the built-in set (Table II order).
const (
	groupPtPt    = "point-to-point"
	groupColl    = "blocking collectives"
	groupVector  = "vector collectives"
	groupOverlap = "overlap (nonblocking, -mode c)"
)

// InTableII reports whether the workload is one of the paper's Table II
// benchmarks (4 point-to-point, 9 blocking and 4 vector collectives) rather
// than a post-paper family.
func (s *BenchmarkSpec) InTableII() bool {
	switch s.Group {
	case groupPtPt, groupColl, groupVector:
		return true
	}
	return false
}

// cAndPy is the mode set of benchmarks the serializing pickle path does
// not cover.
var cAndPy = []Mode{ModeC, ModePy}

// exactRanks is the validation hook of the 2-rank point-to-point tests.
func exactRanks(n int) func(Options) error {
	return func(o Options) error {
		if o.Ranks != n {
			return fmt.Errorf("core: %s needs exactly %d ranks, got %d", o.Benchmark, n, o.Ranks)
		}
		return nil
	}
}

// evenRanks is the validation hook of the pairwise tests.
func evenRanks(o Options) error {
	if o.Ranks%2 != 0 {
		return fmt.Errorf("core: %s needs an even rank count, got %d", o.Benchmark, o.Ranks)
	}
	return nil
}

// Buffer scalings of the rooted/unrooted collectives that move p blocks.
func buffersGather(p int) (int, int)  { return 1, p }
func buffersScatter(p int) (int, int) { return p, 1 }
func buffersAllpair(p int) (int, int) { return p, p }

func init() {
	// Point-to-point (Table II, first group).
	RegisterBenchmark(BenchmarkSpec{
		Name: Latency, Aliases: []string{"lat", "osu_latency"},
		Kind: KindPtPt, Group: groupPtPt,
		Summary:  "ping-pong latency between 2 ranks (osu_latency)",
		MinRanks: 2, Validate: exactRanks(2),
		Body: runLatency,
	})
	RegisterBenchmark(BenchmarkSpec{
		Name: Bandwidth, Aliases: []string{"bandwidth", "osu_bw"},
		Kind: KindPtPt, Group: groupPtPt,
		Summary:  "windowed unidirectional bandwidth (osu_bw)",
		MinRanks: 2, Validate: exactRanks(2), Columns: ColumnsBandwidth,
		Body: runBandwidth,
	})
	RegisterBenchmark(BenchmarkSpec{
		Name: BiBandwidth, Aliases: []string{"bibandwidth", "osu_bibw"},
		Kind: KindPtPt, Group: groupPtPt,
		Summary:  "windowed bidirectional bandwidth (osu_bibw)",
		MinRanks: 2, Modes: cAndPy, Validate: exactRanks(2), Columns: ColumnsBandwidth,
		Body: runBiBandwidth,
	})
	RegisterBenchmark(BenchmarkSpec{
		Name: MultiLatency, Aliases: []string{"multi_latency", "osu_multi_lat"},
		Kind: KindPtPt, Group: groupPtPt,
		Summary:  "concurrent pairwise ping-pong latency (osu_multi_lat)",
		MinRanks: 2, Validate: evenRanks,
		Body: runMultiLatency,
	})

	// Blocking collectives (Table II, second group).
	coll := func(name Benchmark, summary string, s BenchmarkSpec) {
		s.Name, s.Summary = name, summary
		s.Kind, s.Group, s.MinRanks = KindCollective, groupColl, 2
		if s.Modes == nil {
			s.Modes = cAndPy
		}
		s.Body = collectiveBody(name)
		RegisterBenchmark(s)
	}
	coll(Allgather, "MPI_Allgather latency", BenchmarkSpec{
		Algo: mpi.CollAllgather, Buffers: buffersGather,
	})
	coll(Allreduce, "MPI_Allreduce latency", BenchmarkSpec{
		Algo: mpi.CollAllreduce, Reduces: true, Modes: []Mode{ModeC, ModePy, ModePickle},
	})
	coll(Alltoall, "MPI_Alltoall latency", BenchmarkSpec{
		Algo: mpi.CollAlltoall, Buffers: buffersAllpair,
	})
	coll(Barrier, "MPI_Barrier latency (one size-0 row)", BenchmarkSpec{
		FixedSizes: []int{0},
	})
	coll(Bcast, "MPI_Bcast latency", BenchmarkSpec{
		Algo: mpi.CollBcast, Modes: []Mode{ModeC, ModePy, ModePickle},
	})
	coll(Gather, "MPI_Gather latency", BenchmarkSpec{Buffers: buffersGather})
	coll(ReduceScatter, "MPI_Reduce_scatter_block latency", BenchmarkSpec{
		Algo: mpi.CollReduceScatter, Reduces: true, Buffers: buffersScatter,
	})
	coll(Reduce, "MPI_Reduce latency", BenchmarkSpec{Reduces: true})
	coll(Scatter, "MPI_Scatter latency", BenchmarkSpec{Buffers: buffersScatter})

	// Vector variants (Table II, third group).
	vector := func(name Benchmark, summary string, buffers func(int) (int, int)) {
		RegisterBenchmark(BenchmarkSpec{
			Name: name, Summary: summary,
			Kind: KindVector, Group: groupVector, MinRanks: 2,
			Modes: cAndPy, Buffers: buffers,
			Body: collectiveBody(name),
		})
	}
	vector(Allgatherv, "MPI_Allgatherv latency (uniform counts)", buffersGather)
	vector(Alltoallv, "MPI_Alltoallv latency (uniform counts)", buffersAllpair)
	vector(Gatherv, "MPI_Gatherv latency (uniform counts)", buffersGather)
	vector(Scatterv, "MPI_Scatterv latency (uniform counts)", buffersScatter)

	// Overlap family (PR 3, beyond the paper's first release).
	overlap := func(name Benchmark, summary string, s BenchmarkSpec) {
		s.Name, s.Summary = name, summary
		s.Kind, s.Group, s.MinRanks = KindOverlap, groupOverlap, 2
		s.Modes, s.Columns = []Mode{ModeC}, ColumnsOverlap
		s.Body = overlapBody(name)
		RegisterBenchmark(s)
	}
	overlap(IAllreduce, "MPI_Iallreduce compute/communication overlap", BenchmarkSpec{
		Algo: mpi.CollAllreduce, Reduces: true,
	})
	overlap(IBcast, "MPI_Ibcast compute/communication overlap", BenchmarkSpec{
		Algo: mpi.CollBcast,
	})
	overlap(IGather, "MPI_Igather compute/communication overlap", BenchmarkSpec{
		Buffers: buffersGather,
	})
	overlap(IAllgather, "MPI_Iallgather compute/communication overlap", BenchmarkSpec{
		Algo: mpi.CollAllgather, Buffers: buffersGather,
	})
	overlap(IAlltoall, "MPI_Ialltoall compute/communication overlap", BenchmarkSpec{
		Algo: mpi.CollAlltoall, Buffers: buffersAllpair,
	})
	overlap(IReduceScatter, "MPI_Ireduce_scatter compute/communication overlap", BenchmarkSpec{
		Algo: mpi.CollReduceScatter, Reduces: true, Buffers: buffersScatter,
	})
	overlap(IScan, "MPI_Iscan compute/communication overlap", BenchmarkSpec{
		Reduces: true,
	})
}

// runLatency is the ping-pong of the paper's Algorithm 1: rank 0 sends and
// waits for the echo; rank 1 echoes. One-way latency is the averaged
// round-trip halved.
func runLatency(b *Bench) (stats.Row, error) {
	c := b.Comm()
	iters, warmup := b.Iters(), b.Warmup()
	if err := b.Barrier(); err != nil {
		return stats.Row{}, err
	}
	var start vtime.Micros
	for i := 0; i < warmup+iters; i++ {
		if i == warmup {
			start = b.Wtime()
		}
		if c.Rank() == 0 {
			if err := b.Send(1, 1); err != nil {
				return stats.Row{}, err
			}
			if err := b.Recv(1, 1); err != nil {
				return stats.Row{}, err
			}
		} else {
			if err := b.Recv(0, 1); err != nil {
				return stats.Row{}, err
			}
			if err := b.Send(0, 1); err != nil {
				return stats.Row{}, err
			}
		}
	}
	lat := float64(b.Wtime()-start) / float64(2*iters)
	return b.ReduceRow(lat, 0)
}

// runBandwidth: rank 0 streams a window of messages, rank 1 acknowledges
// the window with a 4-byte message, as osu_bw does.
func runBandwidth(b *Bench) (stats.Row, error) {
	c := b.Comm()
	iters, warmup, window := b.Iters(), b.Warmup(), b.Options().Window
	if err := b.Barrier(); err != nil {
		return stats.Row{}, err
	}
	var start vtime.Micros
	for i := 0; i < warmup+iters; i++ {
		if i == warmup {
			start = b.Wtime()
		}
		if c.Rank() == 0 {
			for w := 0; w < window; w++ {
				if err := b.Send(1, 2); err != nil {
					return stats.Row{}, err
				}
			}
			if err := b.AckRecv(1); err != nil {
				return stats.Row{}, err
			}
		} else {
			for w := 0; w < window; w++ {
				if err := b.Recv(0, 2); err != nil {
					return stats.Row{}, err
				}
			}
			if err := b.AckSend(0); err != nil {
				return stats.Row{}, err
			}
		}
	}
	elapsed := float64(b.Wtime() - start) // us
	mbps := float64(b.Size()*window*iters) / elapsed
	return b.ReduceRow(elapsed/float64(iters), mbps)
}

// runBiBandwidth exchanges windows in both directions simultaneously.
func runBiBandwidth(b *Bench) (stats.Row, error) {
	c := b.Comm()
	iters, warmup, window := b.Iters(), b.Warmup(), b.Options().Window
	peer := 1 - c.Rank()
	if err := b.Barrier(); err != nil {
		return stats.Row{}, err
	}
	var start vtime.Micros
	for i := 0; i < warmup+iters; i++ {
		if i == warmup {
			start = b.Wtime()
		}
		for w := 0; w < window; w++ {
			if err := b.Exchange(peer); err != nil {
				return stats.Row{}, err
			}
		}
		if c.Rank() == 0 {
			if err := b.AckRecv(1); err != nil {
				return stats.Row{}, err
			}
		} else if err := b.AckSend(0); err != nil {
			return stats.Row{}, err
		}
	}
	elapsed := float64(b.Wtime() - start)
	mbps := float64(2*b.Size()*window*iters) / elapsed
	return b.ReduceRow(elapsed/float64(iters), mbps)
}

// runMultiLatency: ranks pair up (r, r+p/2) and ping-pong concurrently; the
// reported latency is averaged over pairs, as osu_multi_lat does.
func runMultiLatency(b *Bench) (stats.Row, error) {
	c := b.Comm()
	iters, warmup := b.Iters(), b.Warmup()
	p := c.Size()
	half := p / 2
	var peer int
	sender := c.Rank() < half
	if sender {
		peer = c.Rank() + half
	} else {
		peer = c.Rank() - half
	}
	if err := b.Barrier(); err != nil {
		return stats.Row{}, err
	}
	var start vtime.Micros
	for i := 0; i < warmup+iters; i++ {
		if i == warmup {
			start = b.Wtime()
		}
		if sender {
			if err := b.Send(peer, 3); err != nil {
				return stats.Row{}, err
			}
			if err := b.Recv(peer, 3); err != nil {
				return stats.Row{}, err
			}
		} else {
			if err := b.Recv(peer, 3); err != nil {
				return stats.Row{}, err
			}
			if err := b.Send(peer, 3); err != nil {
				return stats.Row{}, err
			}
		}
	}
	lat := float64(b.Wtime()-start) / float64(2*iters)
	return b.ReduceRow(lat, 0)
}

// collectiveBody wraps runCollective for a named blocking collective.
func collectiveBody(name Benchmark) func(*Bench) (stats.Row, error) {
	return func(b *Bench) (stats.Row, error) { return runCollective(b, name) }
}

// runCollective times the operation per iteration and averages, then
// reduces avg/min/max across ranks, following the OMB collective pipeline
// the paper describes in Section III-C.
func runCollective(b *Bench, name Benchmark) (stats.Row, error) {
	iters, warmup := b.Iters(), b.Warmup()
	if err := b.Barrier(); err != nil {
		return stats.Row{}, err
	}
	var elapsed vtime.Micros
	if b.opts.Mode == ModeC {
		// The native runtime times the loop itself, so a fold-eligible loop
		// resolves as one gather (mpi.Comm.Repeat); the sum is this loop's.
		var err error
		elapsed, err = b.Comm().Repeat(warmup, iters, func() error { return b.Collective(name) })
		if err != nil {
			return stats.Row{}, err
		}
	} else {
		// The binding charges its own time around each call, which a
		// batched loop cannot reproduce.
		for i := 0; i < warmup+iters; i++ {
			t0 := b.Wtime()
			if err := b.Collective(name); err != nil {
				return stats.Row{}, err
			}
			if i >= warmup {
				elapsed += b.Wtime() - t0
			}
		}
	}
	lat := float64(elapsed) / float64(iters)
	return b.ReduceRow(lat, 0)
}

// overlapBody wraps runOverlap for a named nonblocking collective.
func overlapBody(name Benchmark) func(*Bench) (stats.Row, error) {
	return func(b *Bench) (stats.Row, error) { return runOverlap(b, name) }
}

// runOverlap is the osu_iallreduce-style overlap benchmark. Phase one
// measures the pure post+Wait latency of the nonblocking collective. Phase
// two calibrates a per-rank virtual compute block to that latency (OSU's
// dummy_compute calibration) and times post → compute → Wait. The row
// reports the total time (avg/min/max across ranks), the pure-communication
// and compute times, and the overlap percentage
//
//	overlap% = 100 * (1 - (t_total - t_compute) / t_pure)
//
// clamped to [0, 100]: 100 means the compute fully hid the communication,
// 0 means they serialized. Everything is virtual time, so the numbers are
// deterministic across runs and under parallel sweeps.
func runOverlap(b *Bench, name Benchmark) (stats.Row, error) {
	c := b.Comm()
	iters, warmup := b.Iters(), b.Warmup()
	if err := b.Barrier(); err != nil {
		return stats.Row{}, err
	}
	// Phase 1: pure communication.
	var start vtime.Micros
	for i := 0; i < warmup+iters; i++ {
		if i == warmup {
			start = b.Wtime()
		}
		req, err := b.ICollective(name)
		if err != nil {
			return stats.Row{}, err
		}
		if _, err := req.Wait(); err != nil {
			return stats.Row{}, err
		}
	}
	pureUs := float64(b.Wtime()-start) / float64(iters)
	// Per-rank calibrated compute block: the rank's own mean pure latency.
	computeBlock := vtime.Micros(pureUs)
	// Phase 2: post, inject compute, Wait.
	if err := b.Barrier(); err != nil {
		return stats.Row{}, err
	}
	for i := 0; i < warmup+iters; i++ {
		if i == warmup {
			start = b.Wtime()
		}
		req, err := b.ICollective(name)
		if err != nil {
			return stats.Row{}, err
		}
		b.Compute(computeBlock)
		if _, err := req.Wait(); err != nil {
			return stats.Row{}, err
		}
	}
	totalUs := float64(b.Wtime()-start) / float64(iters)
	computeUs := float64(computeBlock)
	overlap := 0.0
	if pureUs > 0 {
		overlap = 100 * (1 - (totalUs-computeUs)/pureUs)
		overlap = math.Max(0, math.Min(100, overlap))
	}
	row, err := b.ReduceRow(totalUs, 0)
	if err != nil {
		return stats.Row{}, err
	}
	// Second aggregation round: rank averages of the pure-communication
	// time, the injected compute and the overlap percentage.
	sums := make([]byte, 24)
	self := mpi.EncodeFloat64s([]float64{pureUs, computeUs, overlap})
	if err := c.Reduce(self, sums, mpi.Float64, mpi.OpSum, 0); err != nil {
		return stats.Row{}, err
	}
	if c.Rank() != 0 {
		return stats.Row{}, nil
	}
	v := mpi.DecodeFloat64s(sums)
	np := float64(c.Size())
	row.CommUs, row.ComputeUs, row.OverlapPct = v[0]/np, v[1]/np, v[2]/np
	return row, nil
}
