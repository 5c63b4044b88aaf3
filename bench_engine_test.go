package repro

import (
	"flag"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/fixture"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/stats"
)

// largeWorldOptions is the 256-rank large-world configuration the perf
// trajectory regresses against: a timing-only allreduce sweep over the
// rendezvous sizes (16 KiB - 256 KiB), the shape of the paper's
// full-subscription experiments.
func largeWorldOptions() core.Options {
	return core.Options{
		Benchmark: core.Allreduce, Mode: core.ModeC,
		Ranks: 256, PPN: 32, TimingOnly: true,
		MinSize: 16 * 1024, MaxSize: 256 * 1024,
		Iters: 20, Warmup: 2, LargeIters: 10, LargeWarmup: 2,
	}
}

// BenchmarkEngineLargeWorld runs the large-world sweep once per op; ns/op
// is the end-to-end wall-clock cost of simulating the whole sweep.
func BenchmarkEngineLargeWorld(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(largeWorldOptions()); err != nil {
			b.Fatal(err)
		}
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

// reportCacheOverflows fails the benchmark if the run overflowed any of the
// process-wide schedule/step/structure caches. An overflowing sweep is
// re-compiling inside the timed region, so its ns/op measures cache
// thrashing rather than the engine — bench.sh must not record such a row
// as a baseline (it aborts loudly when this trips).
func reportCacheOverflows(b *testing.B, before int64) {
	b.Helper()
	if d := mpi.CacheOverflowCount() - before; d > 0 {
		b.Fatalf("huge-world sweep overflowed cross-world caches %d times; ns/op is not a valid baseline", d)
	}
}

// BenchmarkEngineHugeWorld is the scale the event loop reaches: 1024- to
// 262144-rank timing-only allreduce sweeps. The 64Ki and 256Ki rows are the
// folding scale targets; their wall-clock is dominated by the
// per-rank token scan and clock fanout (see README "Scaling limits").
func BenchmarkEngineHugeWorld(b *testing.B) {
	for _, ranks := range []int{1024, 4096, 16384, 65536, 262144} {
		b.Run(fmt.Sprint(ranks), func(b *testing.B) {
			b.ReportAllocs()
			before := mpi.CacheOverflowCount()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(hugeWorldOptions(ranks, false)); err != nil {
					b.Fatal(err)
				}
			}
			reportCacheOverflows(b, before)
		})
	}
}

// BenchmarkEngineHugeWorldNoFold is the same sweep with symmetry folding
// disabled — every rank executes its schedule individually. The ratio to
// the folded row is the fold's end-to-end speedup (fold_speedup_huge_world
// in the bench.sh JSON). Capped at 4096 ranks: unfolded 64Ki-rank runs are
// too slow to benchmark routinely.
func BenchmarkEngineHugeWorldNoFold(b *testing.B) {
	for _, ranks := range []int{1024, 4096} {
		b.Run(fmt.Sprint(ranks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(hugeWorldOptions(ranks, true)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEngineFoldSmoke1024 is the CI race-smoke gate for the fold at scale:
// one 1024-rank event sweep folded and one with folding disabled must
// produce byte-identical series.
func TestEngineFoldSmoke1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank sweep in -short mode")
	}
	want, err := core.Run(hugeWorldOptions(1024, true))
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Run(hugeWorldOptions(1024, false))
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
