package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/fixture"
	"repro/internal/pybuf"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false,
	"rewrite the golden fixture and the testdata/frozen answers from this build")

// Frozen answers: the fault and multi-pair parity tests compare reports
// against answers recorded in testdata/frozen from the per-rank goroutine
// executor the runtime ran before the event loop became its only engine.
// The files are the reference, not a snapshot of the current build:
// rewrite them with -update only when a reported number is meant to
// change.

// openFrozen loads testdata/frozen/<name>.json.
func openFrozen(t *testing.T, name string) *fixture.Answers {
	t.Helper()
	return fixture.Open(t, filepath.Join("testdata", "frozen", name+".json"), *updateGolden)
}

// goldenConfigs is the fixed sweep pinned by the determinism fixture: every
// collective family, both language modes (plus pickle), eager and rendezvous
// sizes, power-of-two and folded rank counts, and a timing-only world. Any
// engine change that alters a single reported number anywhere in this matrix
// fails TestGoldenSeries.
func goldenConfigs() []Options {
	sizes := func(o Options, minS, maxS int) Options {
		o.MinSize, o.MaxSize = minS, maxS
		o.Iters, o.Warmup = 10, 2
		o.LargeIters, o.LargeWarmup = 4, 1
		return o
	}
	return []Options{
		// Point-to-point, eager through rendezvous, C and Py and pickle.
		sizes(Options{Benchmark: Latency, Mode: ModeC, Ranks: 2, PPN: 1}, 1, 64*1024),
		sizes(Options{Benchmark: Latency, Mode: ModePy, Buffer: pybuf.NumPy, Ranks: 2, PPN: 2}, 1, 64*1024),
		sizes(Options{Benchmark: Latency, Mode: ModePickle, Buffer: pybuf.NumPy, Ranks: 2, PPN: 1}, 64, 16*1024),
		sizes(Options{Benchmark: Bandwidth, Mode: ModeC, Ranks: 2, PPN: 1, Window: 16}, 1024, 128*1024),
		// Collectives: pow2 and folded groups, both modes.
		sizes(Options{Benchmark: Allreduce, Mode: ModeC, Ranks: 16, PPN: 4}, 4, 256*1024),
		sizes(Options{Benchmark: Allreduce, Mode: ModePy, Buffer: pybuf.NumPy, Ranks: 12, PPN: 4}, 4, 64*1024),
		sizes(Options{Benchmark: Allgather, Mode: ModeC, Ranks: 16, PPN: 4}, 1, 32*1024),
		sizes(Options{Benchmark: Alltoall, Mode: ModePy, Buffer: pybuf.NumPy, Ranks: 8, PPN: 4}, 1, 8*1024),
		sizes(Options{Benchmark: Bcast, Mode: ModeC, Ranks: 16, PPN: 8}, 1, 1<<20),
		sizes(Options{Benchmark: ReduceScatter, Mode: ModeC, Ranks: 12, PPN: 4}, 16, 16*1024),
		sizes(Options{Benchmark: Gather, Mode: ModeC, Ranks: 16, PPN: 4}, 1, 8*1024),
		sizes(Options{Benchmark: Scatter, Mode: ModeC, Ranks: 16, PPN: 4}, 1, 8*1024),
		sizes(Options{Benchmark: Barrier, Mode: ModeC, Ranks: 16, PPN: 4}, 1, 1),
		// Timing-only large world (payloads dropped above the carry limit).
		sizes(Options{Benchmark: Allreduce, Mode: ModeC, Ranks: 64, PPN: 8, TimingOnly: true}, 16*1024, 64*1024),
	}
}

// goldenSeries runs every golden config and returns the labelled series.
func goldenSeries(t *testing.T) []stats.Series {
	t.Helper()
	out := make([]stats.Series, 0, len(goldenConfigs()))
	for i, opts := range goldenConfigs() {
		rep, err := Run(opts)
		if err != nil {
			t.Fatalf("golden config %d (%s): %v", i, opts.Benchmark, err)
		}
		s := rep.Series
		s.Name = fmt.Sprintf("%s/%s/%dx%d", opts.Benchmark, opts.Mode, opts.Ranks, opts.PPN)
		if opts.TimingOnly {
			s.Name += "/timing-only"
		}
		out = append(out, s)
	}
	return out
}

// TestGoldenSeries asserts that the full stats.Series of the fixed sweep is
// byte-identical to the committed fixture: the engine's fast-path rewrites
// must never change a reported virtual-time number. Regenerate with
//
//	go test ./internal/core -run TestGoldenSeries -update
func TestGoldenSeries(t *testing.T) {
	got, err := json.MarshalIndent(goldenSeries(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_series.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden series diverged from %s: the engine changed a reported "+
			"virtual-time number.\nIf the change is intentional, regenerate with -update "+
			"and justify the diff in review.\ngot %d bytes, want %d bytes", path, len(got), len(want))
	}
}
