package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Report is the outcome of one benchmark run.
type Report struct {
	Options Options
	Series  stats.Series
	// Failure is the structured fault outcome of a run whose world failed
	// under the fault plan (Options.Faults); nil for a clean run. The rows
	// completed before the failure stay in Series.
	Failure *Failure
}

// Failure is the report-level view of a fault-plan failure: which rank the
// plan killed (or which survivor observed the failure), where, and when.
type Failure struct {
	// Code is "MPI_ERR_PROC_FAILED" for a survivor's observation and
	// "RANK_KILLED" when the run's first classified error is the killed
	// rank's own terminal error.
	Code string `json:"code"`
	// Rank is the rank the error was observed on.
	Rank int `json:"rank"`
	// Failed lists the dead ranks (the killed rank itself for RANK_KILLED).
	Failed []int `json:"failed"`
	// Collective and Step locate the blocked operation; Step is -1 for
	// point-to-point operations.
	Collective string `json:"collective,omitempty"`
	Step       int    `json:"step"`
	// TimeUs is the observing rank's virtual clock, microseconds.
	TimeUs float64 `json:"time_us"`
	// Message is the underlying error text.
	Message string `json:"message"`
}

// classifyFailure maps a world error to its structured report row; nil when
// the error is neither a fault-plan nor a cancellation outcome.
func classifyFailure(err error) *Failure {
	var killed *mpi.RankKilledError
	if errors.As(err, &killed) {
		return &Failure{
			Code: "RANK_KILLED", Rank: killed.Rank, Failed: []int{killed.Rank},
			Collective: string(killed.Collective), Step: -1,
			TimeUs: float64(killed.Time), Message: err.Error(),
		}
	}
	var failed *mpi.RankFailedError
	if errors.As(err, &failed) {
		return &Failure{
			Code: failed.Code, Rank: failed.Rank, Failed: failed.Failed,
			Collective: string(failed.Collective), Step: failed.Step,
			TimeUs: float64(failed.Time), Message: err.Error(),
		}
	}
	var canceled *mpi.CanceledError
	if errors.As(err, &canceled) {
		code := "canceled"
		if canceled.Timeout() {
			code = "timeout"
		}
		return &Failure{
			Code: code, Rank: canceled.Rank, Failed: []int{},
			Collective: string(canceled.Collective), Step: canceled.Step,
			TimeUs: float64(canceled.Time), Message: err.Error(),
		}
	}
	return nil
}

// Run executes one benchmark configuration and returns its per-size series.
// The run is deterministic: identical options yield identical numbers.
// The workload itself comes from the benchmark registry: the loop sizes the
// buffers from the spec's scaling, isolates each size, and calls the spec's
// body — there is no per-benchmark dispatch here.
func Run(opts Options) (*Report, error) {
	return RunContext(context.Background(), opts)
}

// RunContext is Run with cancellation: when ctx is canceled or times out,
// the simulation stops promptly and the outcome is
// classified in Report.Failure (code "canceled" or "timeout") exactly like
// a fault-plan failure — the rows completed before the cancel stay in the
// report, and the world's cross-run pools remain reusable.
func RunContext(ctx context.Context, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	spec := opts.Benchmark.spec() // non-nil: validate resolved the name
	cluster, err := topology.ByName(opts.Cluster)
	if err != nil {
		return nil, err
	}
	place, err := topology.NewPlacement(cluster, opts.Ranks, opts.PPN, topology.Block, opts.UseGPU)
	if err != nil {
		return nil, err
	}
	model, err := netmodel.New(cluster, opts.Impl)
	if err != nil {
		return nil, err
	}
	algorithms, err := opts.mpiAlgorithms()
	if err != nil {
		return nil, err
	}
	plan, err := faults.Parse(opts.Faults)
	if err != nil {
		return nil, fmt.Errorf("core: -faults: %w", err)
	}
	world, err := mpi.NewWorld(mpi.Config{
		Placement:   place,
		Model:       model,
		PyMode:      opts.Mode != ModeC,
		CarryData:   !opts.TimingOnly,
		Tuning:      opts.Tuning,
		Algorithms:  algorithms,
		DisableFold: opts.NoFold,
		Faults:      plan,
	})
	if err != nil {
		return nil, err
	}
	// The world is sweep-local: hand its slabs back for the next sweep's
	// same-sized world once this one is done.
	defer world.Release()

	sizes := stats.PowersOfTwo(opts.MinSize, opts.MaxSize)
	if len(opts.Sizes) > 0 {
		sizes = append([]int(nil), opts.Sizes...)
	}
	if len(spec.FixedSizes) > 0 {
		sizes = append([]int(nil), spec.FixedSizes...)
	}
	report := &Report{Options: opts}
	var mu sync.Mutex // guards report.Series (rank 0 appends per size)

	// Per-rank state comes from one slab: a heap-allocated ops and a fresh
	// Bench per size add three allocations per rank per run, which at
	// thousands of ranks is a visible slice of the sweep's allocation bill.
	// The slab itself is recycled across sweeps (takeRankStates) for the
	// same reason the mpi slabs are: a huge-world benchmark iteration
	// otherwise pays tens of MB of page faults and garbage per run.
	states := takeRankStates(opts.Ranks)
	defer putRankStates(states)

	err = world.RunContext(ctx, func(p *mpi.Proc) error {
		c := p.CommWorld()
		st := &states[c.Rank()]
		o := &st.o
		if err := newOps(o, opts, c); err != nil {
			return err
		}
		defer o.release()
		for _, size := range sizes {
			sf, rf := spec.buffers(c.Size())
			if err := o.setup(size, sf, rf); err != nil {
				return err
			}
			// Isolate sizes from each other: after a collective barrier the
			// ranks rewind their clocks and wire-busy state to zero, so
			// clock skew from the previous size's loop and aggregation
			// traffic cannot leak into this one. Without an active fault
			// plan each row then depends only on the configuration and the
			// size (RowsIsolated); a plan's noise and jitter draws are
			// keyed by per-rank counters that keep running from one size to
			// the next, so under a plan a row also depends on the sizes
			// before it.
			if err := o.barrier(); err != nil {
				return err
			}
			p.ResetClock()
			iters, warmup := iterCounts(opts, size)
			st.b = Bench{opts: opts, o: o, size: size, iters: iters, warmup: warmup, proc: p}
			row, err := spec.Body(&st.b)
			if err != nil {
				return fmt.Errorf("size %d: %w", size, err)
			}
			if c.Rank() == 0 {
				mu.Lock()
				report.Series.Rows = append(report.Series.Rows, row)
				mu.Unlock()
			}
		}
		return nil
	})
	if err != nil {
		// A fault-plan failure or a cancellation is a classified outcome,
		// not an abort: the report keeps the rows completed before the
		// failure and carries the structured failure row.
		if f := classifyFailure(err); f != nil {
			report.Failure = f
			report.Series.Name = seriesName(opts)
			return report, nil
		}
		return nil, err
	}
	report.Series.Name = seriesName(opts)
	return report, nil
}

// SelectedAlgorithm names the algorithm a run of o dispatches for its
// benchmark's collective at one message size. It resolves and validates
// the options as RunContext does (a caller running under Defaults applies
// them first, as a sweep does) and asks mpi.Policy.Select about the
// Selection the dispatch site builds (mpi.NewSelection). A selection
// error, such as a forced algorithm infeasible at this communicator size,
// is the error the run fails with. Benchmarks without an algorithm
// registry select nothing, and neither does pickle mode, whose collectives
// move pickled frames rather than the benchmark's message; both return an
// error.
func (o Options) SelectedAlgorithm(size int) (string, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return "", err
	}
	coll, ok := o.Benchmark.Collective()
	if !ok || o.Mode == ModePickle {
		return "", fmt.Errorf("core: %s in %s mode dispatches no selectable collective", o.Benchmark, o.Mode)
	}
	forced, err := o.mpiAlgorithms()
	if err != nil {
		return "", err
	}
	bytes := size
	if o.Mode == ModePy {
		// Py-mode buffers hold whole elements (ops.setup).
		bytes -= size % o.DType.Size()
	}
	if coll == mpi.CollReduceScatter {
		// The benchmark's size is the per-rank block; the dispatch selects
		// on the total payload.
		bytes *= o.Ranks
	}
	policy := mpi.Policy{Tuning: o.Tuning, Forced: forced}
	a, err := policy.Select(coll, mpi.NewSelection(coll, o.Ranks, bytes, o.DType))
	if err != nil {
		return "", err
	}
	return a.Name, nil
}

// RowsIsolated reports whether every row of a run of o depends only on the
// options other than Sizes and on the row's own size, so that a run over a
// subset of Sizes reports those rows bit for bit. RunContext rewinds every
// clock between sizes, which makes this hold unless the options carry an
// active fault plan (Defaults.Faults counts once applied), whose draws keep
// counting across sizes, or the benchmark has a fixed size axis that
// replaces Sizes.
func (o Options) RowsIsolated() bool {
	o = o.withDefaults()
	if spec := o.Benchmark.spec(); spec == nil || len(spec.FixedSizes) > 0 {
		return false
	}
	plan, err := faults.Parse(o.Faults)
	return err == nil && !plan.Active()
}

// rankState is one rank's benchmark-loop state; Run draws the per-sweep
// slab of them from a single-slot cross-sweep pool.
type rankState struct {
	o ops
	b Bench
}

var rankStatePool struct {
	mu   sync.Mutex
	slab []rankState
}

// takeRankStates returns a zeroed rank-state slab of length n, recycling
// the retained one when the size matches.
func takeRankStates(n int) []rankState {
	rankStatePool.mu.Lock()
	slab := rankStatePool.slab
	if len(slab) == n {
		rankStatePool.slab = nil
	} else {
		slab = nil
	}
	rankStatePool.mu.Unlock()
	if slab == nil {
		return make([]rankState, n)
	}
	clear(slab)
	return slab
}

func putRankStates(slab []rankState) {
	rankStatePool.mu.Lock()
	rankStatePool.slab = slab
	rankStatePool.mu.Unlock()
}

func seriesName(o Options) string {
	name := o.Mode.String()
	if o.Mode != ModeC {
		name += "/" + o.Buffer.String()
	}
	return name
}

// iterCounts returns the loop counts for a size, following OMB's reduced
// iteration counts for large messages.
func iterCounts(o Options, size int) (iters, warmup int) {
	if size >= o.LargeThreshold {
		return o.LargeIters, o.LargeWarmup
	}
	return o.Iters, o.Warmup
}

// fuseRowReduce selects the single-message row aggregation; the test that
// proves fusion leaves every reported number unchanged flips it to compare
// against the legacy three-reduce path.
var fuseRowReduce = true

// reduceRow aggregates the local latency across ranks: average of averages,
// global min and max. Aggregation runs on the raw runtime (outside the
// timed section, like OMB's MPI_Reduce of elapsed times) as one 3-element
// vector reduce with the fused min/sum/max operator — one message round
// where the legacy path took three. Sizes are clock-isolated (see Run), so
// without an active fault plan the aggregation protocol cannot affect any
// reported latency; the legacy path is kept only for the test asserting
// exactly that. Under a plan the aggregation's collective and messages
// advance the per-rank draw counters, so the protocol shifts later sizes'
// draws.
func reduceRow(o *ops, size int, localLat, mbps float64) (stats.Row, error) {
	c := o.c
	if !fuseRowReduce {
		return reduceRowUnfused(c, size, localLat, mbps)
	}
	self, out := o.rowBuf[:24], o.rowBuf[24:48]
	bits := math.Float64bits(localLat)
	for i := 0; i < 3; i++ {
		binary.LittleEndian.PutUint64(self[8*i:], bits)
	}
	if err := c.Reduce(self, out, mpi.Float64, mpi.OpMinSumMax, 0); err != nil {
		return stats.Row{}, err
	}
	if c.Rank() != 0 {
		return stats.Row{}, nil
	}
	vals := mpi.DecodeFloat64s(out)
	return stats.Row{
		Size:  size,
		AvgUs: vals[1] / float64(c.Size()),
		MinUs: vals[0],
		MaxUs: vals[2],
		MBps:  mbps,
	}, nil
}

// reduceRowUnfused is the legacy three-round aggregation.
func reduceRowUnfused(c *mpi.Comm, size int, localLat, mbps float64) (stats.Row, error) {
	avg := make([]byte, 8)
	minv := make([]byte, 8)
	maxv := make([]byte, 8)
	self := mpi.EncodeFloat64s([]float64{localLat})
	if err := c.Reduce(self, avg, mpi.Float64, mpi.OpSum, 0); err != nil {
		return stats.Row{}, err
	}
	if err := c.Reduce(self, minv, mpi.Float64, mpi.OpMin, 0); err != nil {
		return stats.Row{}, err
	}
	if err := c.Reduce(self, maxv, mpi.Float64, mpi.OpMax, 0); err != nil {
		return stats.Row{}, err
	}
	if c.Rank() != 0 {
		return stats.Row{}, nil
	}
	return stats.Row{
		Size:  size,
		AvgUs: mpi.DecodeFloat64s(avg)[0] / float64(c.Size()),
		MinUs: mpi.DecodeFloat64s(minv)[0],
		MaxUs: mpi.DecodeFloat64s(maxv)[0],
		MBps:  mbps,
	}, nil
}
