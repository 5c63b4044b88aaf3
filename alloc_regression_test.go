package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/pybuf"
)

// Steady-state allocation ceilings for the huge-world timing-only sweep.
// The PR5 baseline sat at ~437k allocations per 4096-rank run; the
// symmetry-folded engine plus the cross-world schedule and fold structure
// caches brought a warm run to ~96k (and ~25k at 1024 ranks). The ceilings
// pin those numbers with headroom for runtime jitter, so a regression that
// reverts any single pooling layer (schedule store, fold structure cache,
// arena seeds, per-rank slabs) trips the test long before the sweep gets
// slow.
var allocCeilings = []struct {
	ranks   int
	ceiling uint64
}{
	{1024, 33_000},
	{4096, 109_188}, // >=4x under the 436_752/run PR5 baseline
	// The slab pools (rank/mailbox/rank-state), the key gather at
	// collective entry and the class-indexed token memo hold a warm 16Ki
	// run to ~71k mallocs — under a fifth of the 341_444/run it recorded
	// before the gather moved ahead of schedule compilation. The
	// ceiling leaves jitter headroom while still tripping if any single
	// pool stops recycling.
	{16384, 100_000},
}

func hugeWorldRun(t *testing.T, ranks int) {
	t.Helper()
	if _, err := core.Run(hugeWorldOptions(ranks, false)); err != nil {
		t.Fatal(err)
	}
}

// TestHugeWorldAllocRegression measures the malloc count of one warm
// huge-world run against the pinned ceilings. Two untimed runs first warm
// the process-wide caches (analyzed fold structures, recycled schedules),
// which is exactly the steady state a parameter sweep lives in.
func TestHugeWorldAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	if testing.Short() {
		t.Skip("huge-world run in -short mode")
	}
	for _, tc := range allocCeilings {
		t.Run(fmt.Sprint(tc.ranks), func(t *testing.T) {
			hugeWorldRun(t, tc.ranks)
			hugeWorldRun(t, tc.ranks)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			hugeWorldRun(t, tc.ranks)
			runtime.ReadMemStats(&after)
			got := after.Mallocs - before.Mallocs
			t.Logf("%d ranks: %d allocations (ceiling %d)", tc.ranks, got, tc.ceiling)
			if got > tc.ceiling {
				t.Errorf("warm %d-rank sweep made %d allocations, ceiling %d",
					tc.ranks, got, tc.ceiling)
			}
		})
	}
}

// pickleLatencyOptions is a pickle-mode latency run of 20+2 round trips
// (44 messages) at 1 MiB.
func pickleLatencyOptions() core.Options {
	return core.Options{
		Benchmark: core.Latency, Mode: core.ModePickle, Buffer: pybuf.NumPy,
		Ranks: 2, PPN: 1, Sizes: []int{1 << 20},
		Iters: 20, Warmup: 2, LargeIters: 20, LargeWarmup: 2,
	}
}

// pickleAllocCeiling bounds the bytes a warm pickleLatencyOptions run
// allocates. Each rank keeps its 1 MiB send buffer, one receive frame and
// the communicator's send frame, ~6 MiB in all; pickling and unpickling
// into fresh storage per message cost ~137 MiB for the same run.
const pickleAllocCeiling = 8 << 20

// TestPickleLatencyAllocCeiling pins the garbage-free object path: the
// frames a pickle-mode run sends and receives reuse their storage and
// unpickled host objects alias their frames, so the allocation volume does
// not grow with the message count.
func TestPickleLatencyAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	run := func() {
		if _, err := core.Run(pickleLatencyOptions()); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm pickle latency run: %.1f MiB allocated (ceiling %d MiB)", float64(got)/(1<<20), pickleAllocCeiling>>20)
	if got > pickleAllocCeiling {
		t.Errorf("warm pickle-mode latency run allocated %d bytes, ceiling %d", got, pickleAllocCeiling)
	}
}
