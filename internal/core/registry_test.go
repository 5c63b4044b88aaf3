package core

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

// Tests for the benchmark registry itself: registration edge cases,
// alias resolution, and metadata-derived listings.

// nopBody is a minimal valid benchmark body for registration tests.
func nopBody(b *Bench) (stats.Row, error) { return stats.Row{}, nil }

// mustPanic asserts that f panics with a message containing every want.
func mustPanic(t *testing.T, f func(), want ...string) {
	t.Helper()
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("expected panic, got none")
		}
		msg, ok := rec.(string)
		if !ok {
			t.Fatalf("panic value %v is not a string", rec)
		}
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Errorf("panic %q misses %q", msg, w)
			}
		}
	}()
	f()
}

func TestRegisterBenchmarkDuplicatePanics(t *testing.T) {
	mustPanic(t, func() {
		RegisterBenchmark(BenchmarkSpec{
			Name: Latency, Group: "test", Body: nopBody,
		})
	}, "latency", "collides")
}

func TestRegisterBenchmarkAliasCollisionPanics(t *testing.T) {
	// A fresh name whose alias collides with a registered canonical name.
	mustPanic(t, func() {
		RegisterBenchmark(BenchmarkSpec{
			Name: "totally_new", Aliases: []string{"allreduce"},
			Group: "test", Body: nopBody,
		})
	}, "alias", "allreduce", "collides")
	// ... and with a registered alias ("lat" belongs to latency).
	mustPanic(t, func() {
		RegisterBenchmark(BenchmarkSpec{
			Name: "totally_new", Aliases: []string{"LAT"},
			Group: "test", Body: nopBody,
		})
	}, "alias", "lat", "collides")
	// A panicking registration must leave no partial state behind: the
	// colliding spec's canonical name must not resolve.
	if _, err := LookupBenchmark("totally_new"); err == nil {
		t.Error("failed registration leaked into the registry")
	}
}

func TestRegisterBenchmarkInvalidSpecPanics(t *testing.T) {
	mustPanic(t, func() {
		RegisterBenchmark(BenchmarkSpec{Group: "test", Body: nopBody})
	}, "no name")
	mustPanic(t, func() {
		RegisterBenchmark(BenchmarkSpec{Name: "bodyless", Group: "test"})
	}, "no body")
	mustPanic(t, func() {
		RegisterBenchmark(BenchmarkSpec{Name: "Not-Canonical", Group: "test", Body: nopBody})
	}, "not canonical")
	mustPanic(t, func() {
		RegisterBenchmark(BenchmarkSpec{Name: "groupless", Body: nopBody})
	}, "no group")
}

// TestUnknownBenchmarkErrorListsNames pins the error-message contract the
// closed enum used to provide: an unknown name reports every registered
// benchmark, sorted.
func TestUnknownBenchmarkErrorListsNames(t *testing.T) {
	_, err := ParseBenchmark("bogus")
	if err == nil {
		t.Fatal("bogus benchmark accepted")
	}
	msg := err.Error()
	for _, b := range Benchmarks() {
		if !strings.Contains(msg, string(b)) {
			t.Errorf("unknown-benchmark error misses registered name %q: %s", b, msg)
		}
	}
	// LookupBenchmark reports the same way.
	if _, err := LookupBenchmark("bogus"); err == nil || !strings.Contains(err.Error(), "latency") {
		t.Errorf("LookupBenchmark error should list names, got %v", err)
	}
}

func TestParseBenchmarkAliasesAndNormalization(t *testing.T) {
	cases := map[string]Benchmark{
		"latency":        Latency,
		"lat":            Latency,
		"osu_latency":    Latency,
		"bandwidth":      Bandwidth,
		"Reduce-Scatter": ReduceScatter,
		"MBW_MR":         MultiBWMR,
		"osu_mbw_mr":     MultiBWMR,
		"message_rate":   MultiBWMR,
		"multi_bw":       MultiBandwidth,
	}
	for in, want := range cases {
		got, err := ParseBenchmark(in)
		if err != nil {
			t.Errorf("ParseBenchmark(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseBenchmark(%q) = %s, want %s", in, got, want)
		}
	}
}

// TestOptionsCanonicalizeAliases pins that an alias in Options.Benchmark
// behaves exactly like the canonical name end to end.
func TestOptionsCanonicalizeAliases(t *testing.T) {
	canon, err := Run(quickOpts(Latency, ModeC))
	if err != nil {
		t.Fatal(err)
	}
	aliased, err := Run(quickOpts("lat", ModeC))
	if err != nil {
		t.Fatal(err)
	}
	if len(aliased.Series.Rows) != len(canon.Series.Rows) {
		t.Fatalf("aliased run produced %d rows, canonical %d",
			len(aliased.Series.Rows), len(canon.Series.Rows))
	}
	if aliased.Options.Benchmark != Latency {
		t.Errorf("alias not canonicalised: %q", aliased.Options.Benchmark)
	}
}

// TestBenchmarksListingMetadata pins the derived listings: every spec
// appears in Benchmarks() and DescribeBenchmarks(), Table II order is
// preserved for the built-in prefix, and the multi-pair family is present
// without any dispatch-site edit.
func TestBenchmarksListingMetadata(t *testing.T) {
	all := Benchmarks()
	idx := map[Benchmark]int{}
	for i, b := range all {
		idx[b] = i
	}
	tableII := []Benchmark{
		Latency, Bandwidth, BiBandwidth, MultiLatency,
		Allgather, Allreduce, Alltoall, Barrier, Bcast, Gather,
		ReduceScatter, Reduce, Scatter,
		Allgatherv, Alltoallv, Gatherv, Scatterv,
		IAllreduce, IBcast, IGather, IAllgather, IAlltoall,
		IReduceScatter, IScan,
	}
	for i, b := range tableII {
		at, ok := idx[b]
		if !ok {
			t.Fatalf("built-in benchmark %s missing from Benchmarks()", b)
		}
		if at != i {
			t.Errorf("benchmark %s listed at %d, want Table II position %d", b, at, i)
		}
	}
	for _, b := range []Benchmark{MultiBWMR, MultiBandwidth} {
		if _, ok := idx[b]; !ok {
			t.Errorf("multi-pair benchmark %s missing from Benchmarks()", b)
		}
	}
	listing := DescribeBenchmarks()
	for _, want := range []string{
		"point-to-point:", "blocking collectives:", "vector collectives:",
		"multi-pair point-to-point:", "mbw_mr", "multi_bw", "aliases:",
	} {
		if !strings.Contains(listing, want) {
			t.Errorf("DescribeBenchmarks misses %q:\n%s", want, listing)
		}
	}
}

// TestSpecMetadataDrivesValidation spot-checks that mode and rank rules
// come from the registry: pickle is rejected where the spec omits it,
// overlap benchmarks are C-only, and MinRanks is enforced.
func TestSpecMetadataDrivesValidation(t *testing.T) {
	spec, err := LookupBenchmark("gather")
	if err != nil {
		t.Fatal(err)
	}
	if spec.SupportsMode(ModePickle) {
		t.Error("gather spec should not support pickle")
	}
	if !spec.SupportsMode(ModePy) || !spec.SupportsMode(ModeC) {
		t.Error("gather spec should support C and Py")
	}
	if _, err := Run(quickOpts(Gather, ModePickle)); err == nil {
		t.Error("pickle gather should fail validation")
	}
	if _, err := Run(quickOpts(IAllreduce, ModePy)); err == nil {
		t.Error("Py-mode overlap benchmark should fail validation")
	}
	opts := quickOpts(Allreduce, ModeC)
	opts.Ranks, opts.PPN = 1, 1
	if _, err := Run(opts); err == nil || !strings.Contains(err.Error(), "at least 2 ranks") {
		t.Errorf("MinRanks not enforced: %v", err)
	}
}
