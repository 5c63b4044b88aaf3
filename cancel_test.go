package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// waitGoroutines polls until the process goroutine count drops back to (or
// below) target+slack, failing after a deadline. Run returns after every
// rank goroutine finished, but exited goroutines are reaped asynchronously,
// so the count needs a moment to settle.
func waitGoroutines(t *testing.T, target int) {
	t.Helper()
	const slack = 10
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= target+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count stuck at %d, baseline %d: canceled run leaked goroutines",
				runtime.NumGoroutine(), target)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelPreCanceledDeterministic pins the deterministic cancel site: a
// context canceled before the run starts fails every rank at its first
// collective entry, so repeated runs report bit-identical structured
// failures.
func TestCancelPreCanceledDeterministic(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var bodies []string
	for round := 0; round < 2; round++ {
		rep, err := core.RunContext(ctx, hugeWorldOptions(4096, false))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if rep.Failure == nil {
			t.Fatalf("round %d: pre-canceled run reported no failure", round)
		}
		if rep.Failure.Code != "canceled" {
			t.Fatalf("round %d: failure code %q, want %q", round, rep.Failure.Code, "canceled")
		}
		if len(rep.Failure.Failed) != 0 {
			t.Fatalf("round %d: cancellation listed dead ranks %v; nobody died", round, rep.Failure.Failed)
		}
		body, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(body))
	}
	for i, body := range bodies[1:] {
		if body != bodies[0] {
			t.Errorf("pre-canceled failure reports diverge:\n  first: %s\n  other (%d): %s", bodies[0], i+1, body)
		}
	}
}

// TestCancelMidRunHugeWorld cancels a 4096-rank sweep mid-flight on the
// event loop and pins the whole robustness contract: the run returns promptly
// (within 250ms of the cancel), the outcome is a classified "canceled"
// failure rather than an error or a hang, no goroutines leak, and the
// world's cross-run pools stay reusable (a follow-up clean run succeeds).
func TestCancelMidRunHugeWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("huge-world run in -short mode")
	}
	t.Run("event", func(t *testing.T) {
		// Warm the pools before taking the goroutine baseline: the event
		// loop legitimately retains one recycled coroutine worker per
		// rank across runs (the pooled worker set), so a cold baseline
		// would misread that pool as a leak. One clean single-iteration
		// run populates it.
		warm := hugeWorldOptions(4096, false)
		warm.MinSize, warm.MaxSize = 16384, 16384
		warm.Iters, warm.Warmup, warm.LargeIters, warm.LargeWarmup = 1, 1, 1, 1
		if _, err := core.RunContext(context.Background(), warm); err != nil {
			t.Fatalf("warm run: %v", err)
		}
		baseline := runtime.NumGoroutine()
		// Promptness: the loop polls the latched flag on a short leash
		// (every cancelPollMask+1 events), so the
		// unwind is bounded. The bound is wall-clock and the suite runs
		// on shared machines, so a few attempts absorb scheduler noise;
		// the race detector slows everything by an order of magnitude,
		// so only classification is asserted there.
		const bound = 250 * time.Millisecond
		var elapsed time.Duration
		prompt := false
		for attempt := 0; attempt < 3 && !prompt; attempt++ {
			ctx, cancel := context.WithCancel(context.Background())
			var canceledAt time.Time
			timer := time.AfterFunc(2*time.Millisecond, func() {
				canceledAt = time.Now()
				cancel()
			})
			rep, err := core.RunContext(ctx, hugeWorldOptions(4096, false))
			returned := time.Now()
			timer.Stop()
			cancel()
			if err != nil {
				t.Fatalf("canceled run returned an error instead of a classified report: %v", err)
			}
			if rep.Failure == nil {
				t.Skip("run completed before the cancel fired; nothing to assert")
			}
			if rep.Failure.Code != "canceled" {
				t.Fatalf("failure code %q, want %q (message %q)", rep.Failure.Code, "canceled", rep.Failure.Message)
			}
			elapsed = returned.Sub(canceledAt)
			prompt = elapsed <= bound
		}
		if !prompt && !raceEnabled {
			t.Errorf("canceled 4096-rank run took %v to unwind, want <= %v", elapsed, bound)
		}
		waitGoroutines(t, baseline)

		// Pools must survive a cancel: a clean warm run right after
		// must succeed and report rows.
		small := hugeWorldOptions(64, false)
		small.PPN = 4
		clean, err := core.RunContext(context.Background(), small)
		if err != nil {
			t.Fatalf("post-cancel run failed: %v", err)
		}
		if clean.Failure != nil {
			t.Fatalf("post-cancel run inherited a failure: %+v", clean.Failure)
		}
		if len(clean.Series.Rows) == 0 {
			t.Fatal("post-cancel run reported no rows")
		}
	})
}

// TestCancelMidBatchedLoop cancels a C-mode timing-only barrier whose one
// timed loop of a million calls (~20 s) folds as a single batch, the way an
// ombserve request with a large "iters" does: the run must still return
// within 250ms of the cancel, as a classified "canceled" failure.
func TestCancelMidBatchedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("million-call loop in -short mode")
	}
	opts := hugeWorldOptions(1024, false)
	opts.Benchmark = core.Barrier
	opts.Iters, opts.Warmup = 1<<20, 0
	const bound = 250 * time.Millisecond
	var elapsed time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		canceledAt := make(chan time.Time, 1)
		timer := time.AfterFunc(100*time.Millisecond, func() {
			canceledAt <- time.Now()
			cancel()
		})
		rep, err := core.RunContext(ctx, opts)
		returned := time.Now()
		timer.Stop()
		cancel()
		if err != nil {
			t.Fatalf("canceled run returned an error instead of a classified report: %v", err)
		}
		if rep.Failure == nil || rep.Failure.Code != "canceled" {
			t.Fatalf("failure = %+v, want code %q", rep.Failure, "canceled")
		}
		if elapsed = returned.Sub(<-canceledAt); elapsed <= bound {
			break
		}
	}
	if elapsed > bound && !raceEnabled {
		t.Errorf("canceled million-call loop took %v to unwind, want <= %v", elapsed, bound)
	}
}

// TestCancelThenWarmRunStaysPooled proves a canceled huge-world run does
// not poison the slab pools or caches: warm 4096-rank runs after a cancel
// still fit under the pinned allocation ceiling of
// TestHugeWorldAllocRegression.
func TestCancelThenWarmRunStaysPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	if testing.Short() {
		t.Skip("huge-world run in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(2*time.Millisecond, cancel)
	if _, err := core.RunContext(ctx, hugeWorldOptions(4096, false)); err != nil {
		t.Fatal(err)
	}
	hugeWorldRun(t, 4096)
	hugeWorldRun(t, 4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hugeWorldRun(t, 4096)
	runtime.ReadMemStats(&after)
	got := after.Mallocs - before.Mallocs
	const ceiling = 109_188 // TestHugeWorldAllocRegression's 4096-rank pin
	t.Logf("post-cancel warm 4096-rank run: %d allocations (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("warm run after a cancel made %d allocations, ceiling %d: cancel poisoned a pool", got, ceiling)
	}
}

// TestCancelTimeoutClassification pins the timeout flavor end to end: an
// expired deadline classifies as code "timeout" and the text rendering
// leads with "# FAILED: timeout".
func TestCancelTimeoutClassification(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	rep, err := core.RunContext(ctx, core.Options{
		Benchmark: core.Latency, Mode: core.ModeC, Iters: 2, Warmup: 1, MaxSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure == nil || rep.Failure.Code != "timeout" {
		t.Fatalf("failure = %+v, want code %q", rep.Failure, "timeout")
	}
	if text := rep.Text(); !strings.Contains(text, "# FAILED: timeout") {
		t.Errorf("Text() lacks the \"# FAILED: timeout\" marker:\n%s", text)
	}
}

// TestSweepCancelStopsLaunching pins the sweep pool's cancellation
// semantics: a cancel observed mid-sweep stops the producer from handing
// out queued variants, and the partial sweep surfaces as an error naming
// how far it got. The cancel point is deterministic — variant 1's Mutate
// hook fires it — so the serial result is pinned exactly.
func TestSweepCancelStopsLaunching(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := core.Options{Benchmark: core.Latency, Mode: core.ModeC, Iters: 2, Warmup: 1, MaxSize: 4}
	variants := make([]core.Variant, 5)
	for i := range variants {
		iters := 2 + i // distinct configurations
		variants[i] = core.Variant{Name: fmt.Sprintf("v%d", i), Mutate: func(o *core.Options) {
			o.Iters = iters
			if iters == 3 { // variant 1 pulls the plug as it starts
				cancel()
			}
		}}
	}
	_, err := core.Sweep{Base: base, Variants: variants, Workers: 1}.RunContext(ctx)
	if err == nil {
		t.Fatal("partially-launched canceled sweep returned no error")
	}
	if want := "2 of 5"; !strings.Contains(err.Error(), want) {
		t.Errorf("sweep error %q does not report the launch count %q", err, want)
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Errorf("sweep error %q does not name the cancellation", err)
	}
}

// TestSweepPreCanceledParallelMatchesSerial pins that the cancel behavior
// is schedule-independent where it can be: a sweep under an
// already-canceled context reports the same error serial and parallel.
func TestSweepPreCanceledParallelMatchesSerial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := core.Options{Benchmark: core.Latency, Mode: core.ModeC, Iters: 2, Warmup: 1, MaxSize: 4}
	variants := make([]core.Variant, 4)
	for i := range variants {
		iters := 2 + i
		variants[i] = core.Variant{Name: fmt.Sprintf("v%d", i), Mutate: func(o *core.Options) { o.Iters = iters }}
	}
	var msgs []string
	for _, workers := range []int{1, 4} {
		_, err := core.Sweep{Base: base, Variants: variants, Workers: workers}.RunContext(ctx)
		if err == nil {
			t.Fatalf("workers=%d: pre-canceled sweep returned no error", workers)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("serial and parallel pre-canceled sweeps diverge:\n  serial:   %s\n  parallel: %s", msgs[0], msgs[1])
	}
}
