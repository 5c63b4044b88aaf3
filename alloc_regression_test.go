package repro

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pybuf"
)

// Steady-state allocation ceilings for the huge-world timing-only sweep.
// Before symmetry folding a warm 4096-rank run made ~437k allocations; the
// folded engine, the key gather at collective entry, the fold structure
// cache, the slab pools (rank/mailbox/rank-state) and the class-indexed
// token memo brought it to ~17.7k (~5.8k at 1024 ranks, ~70.7k at 16Ki).
// Schedules computed round by round, with no per-rank memo, and a
// refinement whose scratch is reused took a warm run to ~4.9k, ~14.0k and
// ~55.9k. Each ceiling is 1.41 times that count, the jitter headroom the
// 16Ki row kept before, so a regression that reverts any single pooling
// layer (schedule store, fold structure cache, arena seeds, per-rank
// slabs, refinement scratch) trips the test long before the sweep gets
// slow.
var allocCeilings = []struct {
	ranks   int
	ceiling uint64
}{
	{1024, 6_900},
	{4096, 19_700},
	{16384, 79_000},
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

// coldSweepsEnv marks the child process TestColdHugeWorldSweeps starts.
const coldSweepsEnv = "REPRO_COLD_SWEEPS_CHILD"

// coldSweepsCeiling bounds the bytes the three sweeps allocate in a fresh
// process: 117.0 MB measured, 166.6 MB while every rank's slab entries held
// the staging arenas' class tables inline and the harness state two copies
// of the run's Options, 335 MB before their fold analysis stopped
// allocating per rank. It sits more than 10% under the ~175 MB heap goal
// the pacer ends at for their live set (the rank slabs and the 16Ki parked
// coroutine stacks), so the sweeps end in 2 GC cycles, or 3 when the first
// one finishes before the Proc slab is allocated; either way only the last
// cycle runs with the coroutines parked and scans their stacks.
const coldSweepsCeiling = 120_000_000

// coldStackCeiling bounds the goroutine stacks in use after the sweeps:
// under 5 KiB for each of the 16Ki parked rank coroutines. A rank that is
// not resolving a fold parks within one 4 KiB stack (67.9 MB in all); a
// frame that pushes the entry path past 4 KiB doubles every rank's stack
// (134.4 MB while startColl's prologue needed ~3.4 KiB).
const coldStackCeiling = 80_000_000

// coldSweepsOptions are the huge_world benchmark's three sweeps in its
// order: allreduce and barrier at 16Ki ranks, then bcast at 8Ki.
func coldSweepsOptions() []core.Options {
	barrier := hugeWorldOptions(16384, false)
	barrier.Benchmark = core.Barrier
	bcast := hugeWorldOptions(8192, false)
	bcast.Benchmark = core.Bcast
	return []core.Options{hugeWorldOptions(16384, false), barrier, bcast}
}

// TestColdHugeWorldSweeps runs the three huge-world sweeps in a fresh
// process on one processor, as every ombpy run and bench repetition does,
// and bounds the bytes they allocate and the stack they leave in use. The
// test binary re-runs itself as the child; the child reports TotalAlloc,
// the GC cycle count, the pacer's heap goal and StackInuse on one line.
func TestColdHugeWorldSweeps(t *testing.T) {
	if os.Getenv(coldSweepsEnv) == "1" {
		for _, o := range coldSweepsOptions() {
			if _, err := core.Run(o); err != nil {
				t.Fatal(err)
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goal := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		metrics.Read(goal)
		fmt.Printf("cold-sweeps total_alloc=%d num_gc=%d heap_goal=%d stack_inuse=%d\n",
			ms.TotalAlloc, ms.NumGC, goal[0].Value.Uint64(), ms.StackInuse)
		return
	}
	if raceEnabled {
		t.Skip("allocation volumes shift under the race detector")
	}
	if testing.Short() {
		t.Skip("16Ki-rank sweeps in -short mode")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestColdHugeWorldSweeps$", "-test.count=1")
	cmd.Env = append(os.Environ(), coldSweepsEnv+"=1", "GOMAXPROCS=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var alloc, ngc, goal, stack uint64
	_, line, _ := strings.Cut(string(out), "cold-sweeps ")
	if _, err := fmt.Sscanf(line, "total_alloc=%d num_gc=%d heap_goal=%d stack_inuse=%d", &alloc, &ngc, &goal, &stack); err != nil {
		t.Fatalf("child printed no measurement (%v):\n%s", err, out)
	}
	t.Logf("cold sweeps: %.1f MB allocated in %d GC cycles, heap goal %.1f MB (ceiling %.1f MB), stack in use %.1f MB (ceiling %.1f MB)",
		float64(alloc)/1e6, ngc, float64(goal)/1e6, float64(coldSweepsCeiling)/1e6,
		float64(stack)/1e6, float64(coldStackCeiling)/1e6)
	if alloc > coldSweepsCeiling {
		t.Errorf("cold sweeps allocated %d bytes, ceiling %d", alloc, coldSweepsCeiling)
	}
	if stack > coldStackCeiling {
		t.Errorf("cold sweeps ended with %d bytes of stack in use, ceiling %d", stack, coldStackCeiling)
	}
}
