package core

import (
	"reflect"
	"testing"

	"repro/internal/mpi"
	"repro/internal/stats"
)

// TestDefaultTuningTable pins the apply-a-generated-table option: a run
// whose placement matches a table entry behaves exactly as if the entry's
// thresholds and forced algorithms had been passed explicitly, explicit
// options still win, and unlisted placements keep the shipped defaults.
// Each run is a sweep variant that sets the whole options in its Mutate,
// so the table must be looked up after Mutate, at the variant's placement.
func TestDefaultTuningTable(t *testing.T) {
	tabled := Defaults{TuningTable: &mpi.TuningTable{
		Entries: []mpi.TuningTableEntry{{
			Ranks: 4, PPN: 1,
			Policy: mpi.Policy{
				Tuning: mpi.Tuning{AllreduceRabenseifnerMin: -1},
				Forced: map[mpi.Collective]string{mpi.CollAllgather: "ring"},
			},
		}},
	}}
	rows := func(d Defaults, opts Options) []stats.Row {
		t.Helper()
		sw := Sweep{Variants: []Variant{{Mutate: func(o *Options) { *o = opts }}}, Defaults: d}
		res, err := sw.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Reports[0].Series.Rows
	}

	base := Options{
		Benchmark: "allreduce", Ranks: 4, TimingOnly: true,
		Iters: 3, Warmup: 1, Sizes: []int{1024, 262144},
	}
	got := rows(tabled, base)
	explicit := base
	explicit.Tuning = mpi.Tuning{AllreduceRabenseifnerMin: -1}
	// The forced allgather entry is irrelevant to an allreduce run but the
	// table still installs it; mirror it so the comparison is exact.
	explicit.Algorithms = map[string]string{"allgather": "ring"}
	if want := rows(Defaults{}, explicit); !reflect.DeepEqual(got, want) {
		t.Errorf("tabled run differs from explicit options:\n%v\n%v", got, want)
	}

	// A negative Min threshold switches every size to Rabenseifner, so the
	// small-size row demonstrably changes when the table applies.
	if shipped := rows(Defaults{}, base); shipped[0].AvgUs == got[0].AvgUs {
		t.Error("table entry had no effect on the matching placement")
	}

	// An unlisted placement keeps the shipped defaults.
	other := base
	other.Ranks = 8
	if !reflect.DeepEqual(rows(tabled, other), rows(Defaults{}, other)) {
		t.Error("table leaked into an unlisted placement")
	}

	// Explicit options beat the table.
	override := base
	override.Tuning = mpi.Tuning{AllreduceRabenseifnerMin: 1024}
	if !reflect.DeepEqual(rows(tabled, override), rows(Defaults{}, override)) {
		t.Error("explicit Tuning should beat the table entry")
	}
}

// TestTuningTableCacheKey pins that a table entry shifts CacheKey exactly
// like the equivalent explicit options — the content address covers the
// effective configuration, however it was assembled.
func TestTuningTableCacheKey(t *testing.T) {
	base := Options{Benchmark: "allreduce", Ranks: 4, TimingOnly: true, Sizes: []int{1024}}
	plain := base.CacheKey()

	d := Defaults{TuningTable: &mpi.TuningTable{Entries: []mpi.TuningTableEntry{{
		Ranks: 4, PPN: 1,
		Policy: mpi.Policy{Tuning: mpi.Tuning{AllreduceRabenseifnerMin: -1}},
	}}}}
	tabled := d.Apply(base).CacheKey()
	if tabled == plain {
		t.Error("table entry should change the cache key")
	}

	explicit := base
	explicit.Tuning = mpi.Tuning{AllreduceRabenseifnerMin: -1}
	if explicit.CacheKey() != tabled {
		t.Error("table entry and explicit tuning should share a cache key")
	}
}
