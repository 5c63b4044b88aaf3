package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pybuf"
	"repro/internal/stats"
)

// afterRowStock are the stock benchmarks whose copies
// TestTrafficAfterRowLeavesRowsUnchanged runs.
var afterRowStock = []Benchmark{Latency, Allreduce, Bandwidth}

var registerAfterRow sync.Once

// afterRowName names the test benchmark that runs stock's body and then
// makes more collective calls.
func afterRowName(stock Benchmark) Benchmark { return "test_after_row_" + stock }

// registerAfterRowBenchmarks registers, for each stock benchmark, a copy
// whose body runs the stock body and then one more Allreduce and Barrier
// on the raw runtime, after the stock body's ReduceRow: traffic outside
// the timed section, with its own messages, clocks and link state.
func registerAfterRowBenchmarks() {
	for _, name := range afterRowStock {
		stock := *name.spec()
		spec := stock
		spec.Name = afterRowName(name)
		spec.Aliases = nil
		spec.Group = "test"
		spec.Algo = "" // no algorithm registry: the size-subset suite skips it
		spec.Body = func(b *Bench) (stats.Row, error) {
			row, err := stock.Body(b)
			if err != nil {
				return row, err
			}
			c := b.Comm()
			self := mpi.EncodeFloat64s([]float64{row.AvgUs, float64(c.Rank())})
			if err := c.Allreduce(self, make([]byte, len(self)), mpi.Float64, mpi.OpSum); err != nil {
				return row, err
			}
			return row, c.Barrier()
		}
		RegisterBenchmark(spec)
	}
}

// TestTrafficAfterRowLeavesRowsUnchanged pins the clock isolation the row
// aggregation relies on: every message size starts from a barrier and
// ResetClock, so whatever runs after a size's timed section — ReduceRow's
// own reduce, or any further collective traffic — changes no reported
// number. Each stock benchmark and its copy with an extra Allreduce and
// Barrier after ReduceRow must report identical rows.
func TestTrafficAfterRowLeavesRowsUnchanged(t *testing.T) {
	registerAfterRow.Do(registerAfterRowBenchmarks)
	configs := []Options{
		{Benchmark: Latency, Mode: ModeC, Ranks: 2, PPN: 1,
			MinSize: 1, MaxSize: 64 * 1024, Iters: 10, Warmup: 2, LargeIters: 4, LargeWarmup: 1},
		{Benchmark: Allreduce, Mode: ModePy, Buffer: pybuf.NumPy, Ranks: 12, PPN: 4,
			MinSize: 4, MaxSize: 64 * 1024, Iters: 10, Warmup: 2, LargeIters: 4, LargeWarmup: 1},
		{Benchmark: Bandwidth, Mode: ModeC, Ranks: 2, PPN: 1, Window: 16,
			MinSize: 1024, MaxSize: 64 * 1024, Iters: 10, Warmup: 2, LargeIters: 4, LargeWarmup: 1},
	}
	for _, opts := range configs {
		stock, err := Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", opts.Benchmark, err)
		}
		after := opts
		after.Benchmark = afterRowName(opts.Benchmark)
		extra, err := Run(after)
		if err != nil {
			t.Fatalf("%s: %v", after.Benchmark, err)
		}
		if len(stock.Series.Rows) == 0 {
			t.Fatalf("%s: no rows", opts.Benchmark)
		}
		if !reflect.DeepEqual(stock.Series, extra.Series) {
			t.Errorf("%s: traffic after ReduceRow changed reported rows\nstock: %+v\nafter: %+v",
				opts.Benchmark, stock.Series, extra.Series)
		}
	}
}
