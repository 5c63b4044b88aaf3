package repro

import (
	"flag"
	"path/filepath"
	"reflect"
	"testing"

	"repro/fixture"
	"repro/internal/core"
	"repro/internal/stats"
)

// largeWorldOptions is the 256-rank large-world configuration: a
// timing-only allreduce sweep over the rendezvous sizes (16 KiB - 256 KiB),
// the shape of the paper's full-subscription experiments.
func largeWorldOptions() core.Options {
	return core.Options{
		Benchmark: core.Allreduce, Mode: core.ModeC,
		Ranks: 256, PPN: 32, TimingOnly: true,
		MinSize: 16 * 1024, MaxSize: 256 * 1024,
		Iters: 20, Warmup: 2, LargeIters: 10, LargeWarmup: 2,
	}
}

// hugeWorldOptions is the huge-world sweep configuration: a timing-only
// allreduce sweep with ranks oversubscribing Frontera's 16 nodes, matching
// the fully-subscribed pricing of the paper's largest runs.
func hugeWorldOptions(ranks int, noFold bool) core.Options {
	return core.Options{
		Benchmark: core.Allreduce, Mode: core.ModeC,
		Ranks: ranks, PPN: ranks / 16, TimingOnly: true,
		NoFold:  noFold,
		MinSize: 16 * 1024, MaxSize: 64 * 1024,
		Iters: 10, Warmup: 2, LargeIters: 5, LargeWarmup: 1,
	}
}

// TestEngineFoldSmoke1024 is the CI race-smoke gate for the fold at scale:
// 1024-rank event sweeps folded and with folding disabled must produce
// byte-identical series. The allreduce sweep folds by class; the bcast
// sweep over 1 KiB - 1 MiB runs binomial below 512 KiB and scatter_ring
// from there, both on per-rank step tables; the reduce_scatter sweep over
// its smallest block to 64 KiB runs recursive halving, by class; the
// binomial reduce, gather and scatter sweeps fold on per-rank step tables.
func TestEngineFoldSmoke1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank sweep in -short mode")
	}
	bcast := hugeWorldOptions(1024, false)
	bcast.Benchmark = core.Bcast
	bcast.MinSize, bcast.MaxSize = 1024, 1<<20
	bcast.LargeIters = 2
	rs := hugeWorldOptions(1024, false)
	rs.Benchmark = core.ReduceScatter
	rs.MinSize = 1
	sweeps := []core.Options{hugeWorldOptions(1024, false), bcast, rs}
	for _, b := range []core.Benchmark{core.Reduce, core.Gather, core.Scatter} {
		o := hugeWorldOptions(1024, false)
		o.Benchmark = b
		sweeps = append(sweeps, o)
	}
	for _, o := range sweeps {
		t.Run(string(o.Benchmark), func(t *testing.T) {
			off := o
			off.NoFold = true
			want, err := core.Run(off)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Series.Rows) != len(want.Series.Rows) {
				t.Fatalf("row count diverged: fold-off %d, folded %d",
					len(want.Series.Rows), len(got.Series.Rows))
			}
			for i, w := range want.Series.Rows {
				if got.Series.Rows[i] != w {
					t.Errorf("row %d diverged:\nfold-off %+v\nfolded   %+v", i, w, got.Series.Rows[i])
				}
			}
		})
	}
}

var update = flag.Bool("update", false,
	"record testdata/frozen/large_world_parity.json from this build instead of checking it")

// TestEngineLargeWorldParity is the CI gate behind the bench-smoke job: the
// large-world configuration must report, with folding on and off, the
// series frozen in testdata/frozen from the per-rank goroutine executor the
// runtime ran before the event loop became its only engine; the sweep is
// the shortened one that answer was recorded for. Rewrite the file with
// -update only when a reported number is meant to change.
func TestEngineLargeWorldParity(t *testing.T) {
	frozen := fixture.Open(t, filepath.Join("testdata", "frozen", "large_world_parity.json"), *update)
	for _, noFold := range []bool{false, true} {
		o := largeWorldOptions()
		o.Iters, o.Warmup, o.LargeIters, o.LargeWarmup = 4, 1, 2, 1
		o.NoFold = noFold
		rep, err := core.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Series.Rows
		var want []stats.Row
		if frozen.Check(t, "series", got, &want) && !reflect.DeepEqual(got, want) {
			t.Errorf("fold off=%v: virtual times left the frozen answer:\ngot:    %+v\nfrozen: %+v",
				noFold, got, want)
		}
	}
}
