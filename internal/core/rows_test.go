package core

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/stats"
)

// rowSizes spans every shipped selection threshold, so a sweep over it
// switches algorithm at least once for most collectives.
var rowSizes = []int{4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20}

// everyOther returns the sizes at odd positions.
func everyOther(sizes []int) []int {
	var out []int
	for i := 1; i < len(sizes); i += 2 {
		out = append(out, sizes[i])
	}
	return out
}

// rowsBySize runs opts and indexes its rows by size.
func rowsBySize(t *testing.T, opts Options) map[int]stats.Row {
	t.Helper()
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("run failed: %+v", rep.Failure)
	}
	out := make(map[int]stats.Row, len(rep.Series.Rows))
	for _, row := range rep.Series.Rows {
		out[row.Size] = row
	}
	return out
}

// checkSubsetRows requires the rows of a sweep over every other size to be
// bit-identical to the same sizes of the full sweep: the invariant that lets
// the tuner's row store simulate only the sizes it lacks.
func checkSubsetRows(t *testing.T, opts Options, full map[int]stats.Row) {
	t.Helper()
	sub := opts
	sub.Sizes = everyOther(opts.Sizes)
	for size, row := range rowsBySize(t, sub) {
		if row != full[size] {
			t.Errorf("size %d: subset sweep row %+v, full sweep row %+v", size, row, full[size])
		}
	}
}

// registryBenchmarks lists the benchmarks with an algorithm registry,
// except the fault family, which runs only under a plan.
func registryBenchmarks() []Benchmark {
	var out []Benchmark
	for _, b := range Benchmarks() {
		if _, ok := b.Collective(); ok && b.spec().Group != groupFault {
			out = append(out, b)
		}
	}
	return out
}

// TestSizeSubsetRowsMatchFullSweep pins size isolation for every benchmark
// with an algorithm registry, unforced and under each feasible forced
// algorithm, and pins SelectedAlgorithm against the runtime: forcing the
// algorithm it names leaves every unforced row bit-identical.
func TestSizeSubsetRowsMatchFullSweep(t *testing.T) {
	placements := [][2]int{{16, 1}, {64, 16}, {63, 7}}
	if testing.Short() {
		// The -race smoke runs -short; the 64- and 63-rank cells take
		// about a minute under the race detector.
		placements = placements[:1]
	}
	for _, bench := range registryBenchmarks() {
		for _, pl := range placements {
			base := Options{
				Benchmark: bench, Ranks: pl[0], PPN: pl[1], TimingOnly: true,
				Iters: 2, Warmup: 1, LargeIters: 2, LargeWarmup: 1, Sizes: rowSizes,
			}
			t.Run(fmt.Sprintf("%s/%dx%d", bench, pl[0], pl[1]), func(t *testing.T) {
				full := rowsBySize(t, base)
				checkSubsetRows(t, base, full)

				named := map[string][]int{}
				for _, size := range rowSizes {
					name, err := base.SelectedAlgorithm(size)
					if err != nil {
						t.Fatalf("size %d: %v", size, err)
					}
					named[name] = append(named[name], size)
				}
				coll, _ := bench.Collective()
				for name, sizes := range named {
					forced := base
					forced.Sizes = sizes
					forced.Algorithms = map[string]string{string(coll): name}
					for size, row := range rowsBySize(t, forced) {
						if row != full[size] {
							t.Errorf("size %d: forcing the selected %s gives %+v, unforced %+v", size, name, row, full[size])
						}
					}
				}

				variants, err := AlgorithmVariants(base)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range variants {
					forced := base
					v.Mutate(&forced)
					checkSubsetRows(t, forced, rowsBySize(t, forced))
				}
			})
		}
	}

	t.Run("data-carrying", func(t *testing.T) {
		opts := Options{
			Benchmark: Allreduce, Ranks: 8, PPN: 2,
			Iters: 2, Warmup: 1, LargeIters: 2, LargeWarmup: 1, Sizes: rowSizes[:8],
		}
		checkSubsetRows(t, opts, rowsBySize(t, opts))
	})
}

// TestSelectedAlgorithm pins what the helper resolves: -algorithm and
// -tuning-table Defaults count once applied, as they do in a run, and
// options that select nothing, or fail to, return an error.
func TestSelectedAlgorithm(t *testing.T) {
	opts := Options{Benchmark: Allgather, Ranks: 16, TimingOnly: true}
	selected := func(o Options) string {
		t.Helper()
		got, err := o.SelectedAlgorithm(1024)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := selected(opts); got != "recursive_doubling" {
		t.Errorf("allgather 1 KiB at 16 ranks selects %s, want recursive_doubling", got)
	}
	t.Run("algorithm default", func(t *testing.T) {
		d := Defaults{Algorithms: map[string]string{"allgather": "ring"}}
		if got := selected(d.Apply(opts)); got != "ring" {
			t.Errorf("-algorithm allgather=ring: selected %s", got)
		}
	})
	t.Run("tuning table", func(t *testing.T) {
		d := Defaults{TuningTable: &mpi.TuningTable{Entries: []mpi.TuningTableEntry{{
			Ranks: 16, PPN: 1,
			Policy: mpi.Policy{Forced: map[mpi.Collective]string{mpi.CollAllgather: "ring"}},
		}}}}
		if got := selected(d.Apply(opts)); got != "ring" {
			t.Errorf("-tuning-table forcing allgather=ring: selected %s", got)
		}
	})

	infeasible := Options{Benchmark: Allgather, Ranks: 6, TimingOnly: true,
		Algorithms: map[string]string{"allgather": "rd"}}
	if _, err := infeasible.SelectedAlgorithm(1024); err == nil {
		t.Error("a forced infeasible algorithm should not be selectable")
	}
	for _, o := range []Options{{Benchmark: Gather, Ranks: 4}, {Benchmark: Allreduce, Ranks: 4, Mode: ModePickle}} {
		if _, err := o.SelectedAlgorithm(1024); err == nil {
			t.Errorf("%s in mode %s should select nothing", o.Benchmark, o.Mode)
		}
	}
}

// TestSelectedAlgorithmsAgree pins the batched lookup against the one-size
// one, size by size: the same name at every size, and the same error when
// a size fails (the first failing size's, since the batch stops there).
// The sizes include ones that are not whole float32 elements, which Py mode
// rounds down, and the reduce_scatter cases select on the total payload.
func TestSelectedAlgorithmsAgree(t *testing.T) {
	sizes := []int{1, 3, 4, 6, 64, 1000, 1024, 4096, 8191, 8192, 65536, 1 << 20}
	cases := []struct {
		name    string
		o       Options
		wantErr bool
	}{
		{"c-allgather", Options{Benchmark: Allgather, Ranks: 16, TimingOnly: true}, false},
		{"c-allreduce-63x7", Options{Benchmark: Allreduce, Ranks: 63, PPN: 7, TimingOnly: true}, false},
		{"py-allreduce", Options{Benchmark: Allreduce, Mode: ModePy, Ranks: 12, PPN: 2, TimingOnly: true}, false},
		{"c-reduce_scatter", Options{Benchmark: ReduceScatter, Ranks: 8, PPN: 4, TimingOnly: true}, false},
		{"py-reduce_scatter", Options{Benchmark: ReduceScatter, Mode: ModePy, Ranks: 24, PPN: 4, TimingOnly: true}, false},
		{"forced", Options{Benchmark: Allgather, Ranks: 16, TimingOnly: true,
			Algorithms: map[string]string{"allgather": "ring"}}, false},
		{"forced-py-alltoall", Options{Benchmark: Alltoall, Mode: ModePy, Ranks: 16, PPN: 4, TimingOnly: true,
			Algorithms: map[string]string{"alltoall": "pairwise"}}, false},
		{"infeasible", Options{Benchmark: Allgather, Ranks: 6, TimingOnly: true,
			Algorithms: map[string]string{"allgather": "rd"}}, true},
		{"no-registry", Options{Benchmark: Gather, Ranks: 4}, true},
		{"pickle", Options{Benchmark: Allreduce, Ranks: 4, Mode: ModePickle}, true},
		{"invalid", Options{Benchmark: Allreduce, Ranks: 4, Iters: -1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			names, err := tc.o.SelectedAlgorithms(sizes)
			var firstErr error
			for i, size := range sizes {
				name, err1 := tc.o.SelectedAlgorithm(size)
				if err1 != nil {
					if firstErr == nil {
						firstErr = err1
					}
					continue
				}
				if err == nil && names[i] != name {
					t.Errorf("size %d: SelectedAlgorithms names %s, SelectedAlgorithm %s", size, names[i], name)
				}
			}
			if fmt.Sprint(err) != fmt.Sprint(firstErr) {
				t.Errorf("SelectedAlgorithms error %v, SelectedAlgorithm's first %v", err, firstErr)
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("error %v, want error %v", err, tc.wantErr)
			}
			if err == nil && len(names) != len(sizes) {
				t.Fatalf("%d names for %d sizes", len(names), len(sizes))
			}
			for i, name := range names {
				if forced := tc.o.Algorithms[string(tc.o.Benchmark)]; forced != "" && name != forced {
					t.Errorf("size %d: forcing %s selects %s", sizes[i], forced, name)
				}
			}
		})
	}
}

// TestRowsIsolated pins the cases where rows depend on earlier sizes.
func TestRowsIsolated(t *testing.T) {
	opts := Options{Benchmark: Allreduce, Ranks: 16, TimingOnly: true}
	if !opts.RowsIsolated() {
		t.Error("a fault-free allreduce sweep should have isolated rows")
	}
	seedOnly := opts
	seedOnly.Faults = "seed:3"
	if !seedOnly.RowsIsolated() {
		t.Error("a plan that injects nothing keeps rows isolated")
	}
	noisy := opts
	noisy.Faults = "noise:sigma=5us; seed:3"
	if noisy.RowsIsolated() {
		t.Error("a noise plan's draws run on across sizes")
	}
	if (Defaults{Faults: "jitter:link=0.2; seed:3"}).Apply(opts).RowsIsolated() {
		t.Error("an applied -faults default counts like an explicit plan")
	}
	if (Options{Benchmark: Barrier, Ranks: 4}).RowsIsolated() {
		t.Error("barrier's fixed size axis ignores Sizes")
	}
}

// TestNoisyRowsDependOnEarlierSizes pins why a fault plan disables the row
// store: under noise the same size reports a different row when the sweep
// before it differs.
func TestNoisyRowsDependOnEarlierSizes(t *testing.T) {
	opts := Options{
		Benchmark: Allreduce, Ranks: 16, TimingOnly: true, Iters: 10, Warmup: 2,
		Sizes: []int{1024, 2048, 4096}, Faults: "noise:sigma=5us; seed:3",
	}
	full := rowsBySize(t, opts)
	one := opts
	one.Sizes = []int{4096}
	if got := rowsBySize(t, one)[4096]; got == full[4096] {
		t.Errorf("noisy 4 KiB row is the same alone and after two sizes (%+v)", got)
	}
}
