package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/topology"
	"repro/internal/vtime"
)

// Fold-parity suite: symmetry folding is a pure execution optimisation, so
// a folded run must report bit-identical virtual clocks to the same world
// with folding disabled — including workloads built to break the symmetry
// the fold depends on (sub-communicator halves, forced algorithm mixes,
// a straggler rank with private compute skew). Each case also pins which
// side of the fold/fallback split actually executed, so a silent "always
// fall back" regression cannot pass as parity.

// runFoldWorld runs body on a timing-only world configured by cfg (its
// placement and model are filled in) and returns every rank's final clock,
// the world's fold counters and the run's error.
func runFoldWorld(t testing.TB, ranks, ppn int, cfg Config, body func(p *Proc) error) ([]vtime.Micros, FoldStats, error) {
	t.Helper()
	place, err := topology.NewPlacement(&topology.Frontera, ranks, ppn, topology.Block, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Placement = place
	cfg.Model = netmodel.MustNew(&topology.Frontera, netmodel.MVAPICH2)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	end := make([]vtime.Micros, ranks)
	err = w.Run(func(p *Proc) error {
		if err := body(p); err != nil {
			return err
		}
		end[p.Rank()] = p.Wtime()
		return nil
	})
	return end, w.FoldStats(), err
}

// runFoldParity is runFoldWorld for bodies that must not fail.
func runFoldParity(t *testing.T, ranks, ppn int, disableFold bool, algorithms map[Collective]string, body func(p *Proc) error) ([]vtime.Micros, FoldStats) {
	t.Helper()
	end, stats, err := runFoldWorld(t, ranks, ppn, Config{DisableFold: disableFold, Algorithms: algorithms}, body)
	if err != nil {
		t.Fatalf("fold=%v: %v", !disableFold, err)
	}
	return end, stats
}

// assertFoldParity runs body two ways — per-rank execution and folded —
// and fails on any clock divergence; it returns the folded run's counters
// for the caller to pin.
func assertFoldParity(t *testing.T, ranks, ppn int, algorithms map[Collective]string, body func(p *Proc) error) FoldStats {
	t.Helper()
	want, offStats := runFoldParity(t, ranks, ppn, true, algorithms, body)
	got, stats := runFoldParity(t, ranks, ppn, false, algorithms, body)
	if offStats != (FoldStats{}) {
		t.Errorf("DisableFold world still reached the fold gather: %+v", offStats)
	}
	for r := 0; r < ranks; r++ {
		if got[r] != want[r] {
			t.Errorf("rank %d: virtual end time diverged: fold-off %v, folded %v",
				r, want[r], got[r])
		}
	}
	return stats
}

// TestFoldParitySymmetric pins the happy path: a fully symmetric world-comm
// workload must actually fold (not silently fall back) and agree with
// per-rank execution bit for bit.
func TestFoldParitySymmetric(t *testing.T) {
	for _, shape := range [][2]int{{16, 1}, {8, 4}, {64, 8}} {
		ranks, ppn := shape[0], shape[1]
		t.Run(fmt.Sprintf("%dx%d", ranks, ppn), func(t *testing.T) {
			stats := assertFoldParity(t, ranks, ppn, nil, func(p *Proc) error {
				c := p.CommWorld()
				for i := 0; i < 3; i++ {
					if err := c.AllreduceN(nil, nil, 16*1024, Float32, OpSum); err != nil {
						return err
					}
				}
				return c.Barrier()
			})
			// A fully symmetric world-comm workload must resolve every
			// invocation at class level — no per-rank schedule may have been
			// compiled, replayed or fallen back to.
			if stats.Folded == 0 || stats.Fallback+stats.Released != 0 {
				t.Errorf("symmetric workload not fully folded: %+v", stats)
			}
			// Shapes come from a probe compile on first sight or from the
			// process-wide structure cache afterwards; both count.
			if stats.ClassesCompiled+stats.StructHits == 0 {
				t.Errorf("folded run resolved no shape: %+v", stats)
			}
		})
	}
}

// TestFoldParitySplitHalves drives collectives over interleaved Split
// halves of a 63x7 world: odd size, non-power-of-two halves, and two
// communicators taking turns. The engine may fold whatever symmetry
// survives, but the clocks must match per-rank execution exactly.
func TestFoldParitySplitHalves(t *testing.T) {
	stats := assertFoldParity(t, 63, 7, nil, func(p *Proc) error {
		c := p.CommWorld()
		half, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		for _, n := range []int{1024, 16 * 1024} {
			if err := half.AllreduceN(nil, nil, n, Float32, OpSum); err != nil {
				return err
			}
			if err := half.BcastN(nil, n, 0); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	if stats.Folded+stats.Fallback+stats.Released == 0 {
		t.Errorf("split workload never reached the fold gather: %+v", stats)
	}
}

// TestFoldParityForcedMix forces a deliberately mismatched algorithm set —
// ring allgather and pairwise reduce_scatter (mod-family peer deltas)
// against recursive-doubling allreduce (xor-family) — so consecutive
// collectives flip the fold shape cache between kinds. Clocks must still
// match per-rank execution.
func TestFoldParityForcedMix(t *testing.T) {
	algorithms := map[Collective]string{
		CollAllreduce:     "recursive_doubling",
		CollAllgather:     "ring",
		CollReduceScatter: "pairwise",
	}
	stats := assertFoldParity(t, 48, 8, algorithms, func(p *Proc) error {
		c := p.CommWorld()
		for i := 0; i < 2; i++ {
			if err := c.AllreduceN(nil, nil, 16*1024, Float32, OpSum); err != nil {
				return err
			}
			if err := c.AllgatherN(nil, 4*1024, nil); err != nil {
				return err
			}
			if err := c.ReduceScatterBlockN(nil, nil, 1024, Float32, OpSum); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	// Two rounds of three collectives and the closing barrier.
	if stats.Folded != 7 || stats.Fallback+stats.Released != 0 {
		t.Errorf("forced algorithm mix not fully folded: %+v", stats)
	}
}

// TestFoldParityStraggler charges one rank private compute before each
// collective, so its clock (and only its clock) diverges from its class.
// The fold must either split that rank into its own class or fall back —
// and either way reproduce per-rank clocks exactly.
func TestFoldParityStraggler(t *testing.T) {
	stats := assertFoldParity(t, 32, 8, nil, func(p *Proc) error {
		c := p.CommWorld()
		for i := 0; i < 2; i++ {
			if c.Rank() == 13 {
				c.ChargeCompute(vtime.Micros(37 * (i + 1)))
			}
			if err := c.AllreduceN(nil, nil, 16*1024, Float32, OpSum); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	if stats.Folded+stats.Fallback == 0 {
		t.Errorf("straggler workload never reached the fold gather: %+v", stats)
	}
}

// TestFoldParityRootedFallback drives rooted collectives through the
// benchmark loop's per-size shape (barrier, clock reset, barrier, the timed
// calls, then the min/sum/max row reduce). A rooted bcast has no class
// symmetry, so it folds on a per-rank step table; with the table's step
// budget lowered below its size the same full gather ends in a shape
// fallback, once per size. A rank that leaves a rooted collective early
// and joins the next gather while its peers are still inside that
// collective is waiting, not stalled: loop frames unwind until the peers
// run, so every barrier folds and the safety valve stays shut. The clocks
// must match per-rank execution either way.
func TestFoldParityRootedFallback(t *testing.T) {
	cases := []struct {
		coll       string
		ranks, ppn int
		budget     int // foldMaxTableSteps; 0 keeps the default
		// folded and fallback are the gather outcomes over the 2 sizes:
		// 2 barriers each, plus 3 bcasts when the table folds them.
		folded, fallback int64
	}{
		{"bcast", 16, 1, 0, 10, 0},
		{"bcast", 64, 8, 0, 10, 0},
		{"bcast", 16, 1, 16, 4, 2},
		{"bcast", 64, 8, 64, 4, 2},
		{"reduce", 16, 4, 0, 4, 0},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s-%dx%d", tc.coll, tc.ranks, tc.ppn)
		if tc.budget > 0 {
			name += fmt.Sprintf("-budget%d", tc.budget)
		}
		t.Run(name, func(t *testing.T) {
			if tc.budget > 0 {
				defer func(old int) { foldMaxTableSteps = old }(foldMaxTableSteps)
				foldMaxTableSteps = tc.budget
			}
			stats := assertFoldParity(t, tc.ranks, tc.ppn, nil, func(p *Proc) error {
				c := p.CommWorld()
				row := make([]byte, 48)
				for _, n := range []int{1024, 64 * 1024} {
					if err := c.Barrier(); err != nil {
						return err
					}
					p.ResetClock()
					if err := c.Barrier(); err != nil {
						return err
					}
					for i := 0; i < 3; i++ {
						var err error
						if tc.coll == "bcast" {
							err = c.BcastN(nil, n, 0)
						} else {
							err = c.ReduceN(nil, nil, n, Float32, OpSum, 0)
						}
						if err != nil {
							return err
						}
					}
					if err := c.Reduce(row[:24], row[24:], Float64, OpMinSumMax, 0); err != nil {
						return err
					}
				}
				return nil
			})
			if stats.Released != 0 || stats.Folded != tc.folded || stats.Fallback != tc.fallback {
				t.Errorf("want %d folded, %d fallback and no release: %+v", tc.folded, tc.fallback, stats)
			}
		})
	}
}

// TestFoldParityPollingRank pins the order in which the loop breaks a
// stall against a partial gather: the gather is released before a yielded
// poller runs again. Ranks 1..7 enter a bcast while rank 0 polls for a
// message rank 1 sends only after it; served first, the poller would spin
// forever on a gather it never joins.
func TestFoldParityPollingRank(t *testing.T) {
	const ranks, n = 8, 1024
	stats := assertFoldParity(t, ranks, 4, nil, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			r, err := c.IrecvN(nil, n, 1, 7)
			if err != nil {
				return err
			}
			for {
				done, _, err := r.Test()
				if err != nil {
					return err
				}
				if done {
					break
				}
			}
			return c.BcastN(nil, n, 1)
		}
		if err := c.BcastN(nil, n, 1); err != nil {
			return err
		}
		if p.Rank() == 1 {
			return c.SendN(nil, n, 0, 7)
		}
		return nil
	})
	if stats.Released == 0 {
		t.Errorf("the polling rank's gather was never released: %+v", stats)
	}
}

// TestFoldParityNonblockingRooted drives nonblocking collectives through
// the overlap benchmark's per-size shape: barrier, clock reset, then a pure
// phase and a compute phase, each a barrier and four post/Wait rounds (the
// second charging each rank its own mean pure latency between post and
// Wait), then the min/sum/max row reduce. A nonblocking collective never
// folds, and ranks that finish it early join the next barrier's gather
// while the rest are still driving it. That is no stall, so every barrier
// must fold and nothing may be released. In the rooted igather the root
// finishes last, so the other ranks gather at the next barrier while the
// root is still in its Wait.
func TestFoldParityNonblockingRooted(t *testing.T) {
	colls := []struct {
		name string
		post func(c *Comm, n int) (*Request, error)
	}{
		{"ialltoall", func(c *Comm, n int) (*Request, error) { return c.IalltoallN(nil, n, nil) }},
		{"ireduce_scatter", func(c *Comm, n int) (*Request, error) {
			return c.IreduceScatterBlockN(nil, nil, n, Float32, OpSum)
		}},
		{"iallreduce", func(c *Comm, n int) (*Request, error) { return c.IallreduceN(nil, nil, n, Float32, OpSum) }},
		{"igather", func(c *Comm, n int) (*Request, error) { return c.IgatherN(nil, n, nil, 0) }},
	}
	for _, coll := range colls {
		for _, shape := range [][2]int{{4, 2}, {8, 4}, {16, 4}} {
			ranks, ppn := shape[0], shape[1]
			t.Run(fmt.Sprintf("%s-%dx%d", coll.name, ranks, ppn), func(t *testing.T) {
				stats := assertFoldParity(t, ranks, ppn, nil, func(p *Proc) error {
					c := p.CommWorld()
					row := make([]byte, 48)
					for _, n := range []int{8, 1024, 64 * 1024} {
						if err := c.Barrier(); err != nil {
							return err
						}
						p.ResetClock()
						var compute vtime.Micros
						for phase := 0; phase < 2; phase++ {
							if err := c.Barrier(); err != nil {
								return err
							}
							start := p.Wtime()
							for i := 0; i < 4; i++ {
								req, err := coll.post(c, n)
								if err != nil {
									return err
								}
								c.ChargeCompute(compute)
								if _, err := req.Wait(); err != nil {
									return err
								}
							}
							compute = (p.Wtime() - start) / 4
						}
						if err := c.Reduce(row[:24], row[24:], Float64, OpMinSumMax, 0); err != nil {
							return err
						}
					}
					return nil
				})
				if stats.Released != 0 || stats.Folded != 9 {
					t.Errorf("want all 9 barriers folded and no release: %+v", stats)
				}
			})
		}
	}
}

// TestFoldReleaseBlockedReceiver pins the safety valve on a stall that has
// no poller: rank 0 blocks in a receive that rank 1 satisfies only after a
// bcast, which ranks 1..7 enter first. Their gather can never complete, so
// the outermost loop frame must release it.
func TestFoldReleaseBlockedReceiver(t *testing.T) {
	const ranks, n = 8, 1024
	stats := assertFoldParity(t, ranks, 4, nil, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			if _, err := c.RecvN(nil, n, 1, 7); err != nil {
				return err
			}
			return c.BcastN(nil, n, 1)
		}
		if err := c.BcastN(nil, n, 1); err != nil {
			return err
		}
		if p.Rank() == 1 {
			return c.SendN(nil, n, 0, 7)
		}
		return nil
	})
	if stats.Released == 0 {
		t.Errorf("the blocked receiver's gather was never released: %+v", stats)
	}
}

// repeatColls are the collectives the Repeat tests time in a loop:
// barrier, allreduce, allgather, alltoall and reduce_scatter's block form
// fold by class on a power-of-two world, the rooted bcast on a per-rank
// table, and reduce, which compiles outside the gather, never does.
// FuzzFoldParity decodes its loops from the first six entries.
var repeatColls = []struct {
	name  string
	folds bool
	call  func(c *Comm, n int) error
}{
	{"barrier", true, func(c *Comm, _ int) error { return c.Barrier() }},
	{"allreduce", true, func(c *Comm, n int) error { return c.AllreduceN(nil, nil, n, Float32, OpSum) }},
	{"allgather", true, func(c *Comm, n int) error { return c.AllgatherN(nil, n, nil) }},
	{"alltoall", true, func(c *Comm, n int) error { return c.AlltoallN(nil, n, nil) }},
	{"bcast", true, func(c *Comm, n int) error { return c.BcastN(nil, n, 0) }},
	{"reduce", false, func(c *Comm, n int) error { return c.ReduceN(nil, nil, n, Float32, OpSum, 0) }},
	{"reduce_scatter", true, func(c *Comm, n int) error { return c.ReduceScatterBlockN(nil, nil, n, Float32, OpSum) }},
}

// repeatSkews are the entry states of the timed loops: every rank even
// (the structural partition), one straggler (a refined partition), and
// every rank apart (the identity partition).
var repeatSkews = []struct {
	name string
	skew func(rank int) vtime.Micros
}{
	{"even", func(int) vtime.Micros { return 0 }},
	{"straggler", func(r int) vtime.Micros {
		if r == 3 {
			return 41.3
		}
		return 0
	}},
	{"staggered", func(r int) vtime.Micros { return vtime.Micros(0.37 * float64(r)) }},
}

// repeatBody is the benchmark loop's per-size shape around one timed loop
// per size: barrier, clock reset, barrier, the rank's skew as private
// compute, the loop, then the min/sum/max row reduce. loop runs the timed
// loop and returns its elapsed sum, which the body records in
// sums[rank] per size.
func repeatBody(sizes []int, skew func(int) vtime.Micros, sums [][]vtime.Micros, loop func(c *Comm, n int) (vtime.Micros, error)) func(p *Proc) error {
	return func(p *Proc) error {
		c := p.CommWorld()
		row := make([]byte, 48)
		for _, n := range sizes {
			if err := c.Barrier(); err != nil {
				return err
			}
			p.ResetClock()
			if err := c.Barrier(); err != nil {
				return err
			}
			c.ChargeCompute(skew(p.Rank()))
			e, err := loop(c, n)
			if err != nil {
				return err
			}
			sums[p.Rank()] = append(sums[p.Rank()], e)
			if err := c.Reduce(row[:24], row[24:], Float64, OpMinSumMax, 0); err != nil {
				return err
			}
		}
		return nil
	}
}

// plainLoop is the per-call loop Comm.Repeat must reproduce bit for bit.
func plainLoop(c *Comm, warmup, iters int, call func() error) (vtime.Micros, error) {
	var e vtime.Micros
	for i := 0; i < warmup+iters; i++ {
		t0 := c.Proc().Wtime()
		if err := call(); err != nil {
			return e, err
		}
		if i >= warmup {
			e += c.Proc().Wtime() - t0
		}
	}
	return e, nil
}

// repeatRun runs repeatBody on a fresh timing-only world and returns every
// rank's end clock and per-size elapsed sums, plus the fold counters.
func repeatRun(t *testing.T, ranks, ppn int, disableFold bool, sizes []int, skew func(int) vtime.Micros, loop func(c *Comm, n int) (vtime.Micros, error)) ([]vtime.Micros, [][]vtime.Micros, FoldStats) {
	t.Helper()
	sums := make([][]vtime.Micros, ranks)
	end, stats := runFoldParity(t, ranks, ppn, disableFold, nil, repeatBody(sizes, skew, sums, loop))
	return end, sums, stats
}

// assertSameTimes fails on any bit difference in end clocks or sums.
func assertSameTimes(t *testing.T, what string, wantEnd, gotEnd []vtime.Micros, wantSums, gotSums [][]vtime.Micros) {
	t.Helper()
	for r := range wantEnd {
		if gotEnd[r] != wantEnd[r] {
			t.Errorf("%s: rank %d end clock %v, want %v", what, r, float64(gotEnd[r]), float64(wantEnd[r]))
		}
		for i := range wantSums[r] {
			if gotSums[r][i] != wantSums[r][i] {
				t.Errorf("%s: rank %d loop %d elapsed sum %v, want %v", what, r, i, float64(gotSums[r][i]), float64(wantSums[r][i]))
			}
		}
	}
}

// sameOutcomes compares the fold verdicts of two runs; the shape-cache
// counters depend on which run of the process saw a shape first.
func sameOutcomes(a, b FoldStats) bool {
	return a.Folded == b.Folded && a.Fallback == b.Fallback && a.Released == b.Released
}

// TestFoldParityRepeat pins Comm.Repeat against the per-call loop it
// replaces: per-rank elapsed sums and end clocks are bit-identical with
// folding on and off and to the per-call loop, a folding collective's loop
// counts one fold per repetition (the per-call loop's verdicts), and a
// non-folding one runs the per-call loop unchanged.
func TestFoldParityRepeat(t *testing.T) {
	sizes := []int{8, 1024, 16 * 1024}
	loops := [][2]int{{0, 1}, {0, 5}, {2, 5}, {1, 3}}
	for _, coll := range repeatColls {
		for _, shape := range [][2]int{{16, 1}, {8, 4}, {32, 8}} {
			ranks, ppn := shape[0], shape[1]
			for _, sk := range repeatSkews {
				for _, wi := range loops {
					warmup, iters := wi[0], wi[1]
					name := fmt.Sprintf("%s-%dx%d-%s-w%di%d", coll.name, ranks, ppn, sk.name, warmup, iters)
					t.Run(name, func(t *testing.T) {
						repeat := func(c *Comm, n int) (vtime.Micros, error) {
							return c.Repeat(warmup, iters, func() error { return coll.call(c, n) })
						}
						plain := func(c *Comm, n int) (vtime.Micros, error) {
							return plainLoop(c, warmup, iters, func() error { return coll.call(c, n) })
						}
						wantEnd, wantSums, offStats := repeatRun(t, ranks, ppn, true, sizes, sk.skew, repeat)
						gotEnd, gotSums, stats := repeatRun(t, ranks, ppn, false, sizes, sk.skew, repeat)
						if offStats != (FoldStats{}) {
							t.Errorf("DisableFold world still reached the fold gather: %+v", offStats)
						}
						assertSameTimes(t, "fold on vs off", wantEnd, gotEnd, wantSums, gotSums)
						plainEnd, plainSums, plainStats := repeatRun(t, ranks, ppn, false, sizes, sk.skew, plain)
						assertSameTimes(t, "Repeat vs the per-call loop", plainEnd, gotEnd, plainSums, gotSums)
						if !sameOutcomes(stats, plainStats) {
							t.Errorf("Repeat counters %+v, per-call loop %+v", stats, plainStats)
						}
						// Two barriers per size fold; a folding loop adds one
						// fold per repetition.
						want := int64(2 * len(sizes))
						if coll.folds {
							want += int64(len(sizes) * (warmup + iters))
						}
						if stats.Folded != want || stats.Released != 0 {
							t.Errorf("want %d folds and no release: %+v", want, stats)
						}
					})
				}
			}
		}
	}
}

// TestFoldParityRepeatDisagree has ranks disagree on a loop's warmup (same
// total): the first gather's keys differ, so it falls back, and the loop
// continues per call — to the numbers of the fold-off world.
func TestFoldParityRepeatDisagree(t *testing.T) {
	const ranks, ppn = 16, 4
	sizes := []int{8, 16 * 1024}
	even := repeatSkews[0].skew
	loop := func(c *Comm, n int) (vtime.Micros, error) {
		warmup := 1 + c.Rank()%2
		return c.Repeat(warmup, 6-warmup, func() error { return c.AllreduceN(nil, nil, n, Float32, OpSum) })
	}
	wantEnd, wantSums, _ := repeatRun(t, ranks, ppn, true, sizes, even, loop)
	gotEnd, gotSums, stats := repeatRun(t, ranks, ppn, false, sizes, even, loop)
	assertSameTimes(t, "fold on vs off", wantEnd, gotEnd, wantSums, gotSums)
	// Per size: the first call falls back, the other five fold one by one.
	if want := int64(len(sizes) * (2 + 5)); stats.Folded != want || stats.Fallback != int64(len(sizes)) {
		t.Errorf("want %d folds and %d fallbacks: %+v", want, len(sizes), stats)
	}
}

// TestFoldParityRepeatClassBound lowers foldMaxClasses below the refined
// partitions a straggler's loops enter with. An over-bound repetition runs
// on the identity partition instead of falling back, so no repetition of a
// batch can fall back: every one folds, the per-call loop reaches the same
// verdicts, and the numbers are the fold-off world's.
func TestFoldParityRepeatClassBound(t *testing.T) {
	const ranks, ppn, warmup, iters = 32, 8, 1, 5
	sizes := []int{8, 16 * 1024}
	straggler := repeatSkews[1].skew
	defer func(old int) { foldMaxClasses = old }(foldMaxClasses)
	foldMaxClasses = 1
	for _, coll := range repeatColls {
		if !coll.folds {
			continue
		}
		t.Run(coll.name, func(t *testing.T) {
			repeat := func(c *Comm, n int) (vtime.Micros, error) {
				return c.Repeat(warmup, iters, func() error { return coll.call(c, n) })
			}
			plain := func(c *Comm, n int) (vtime.Micros, error) {
				return plainLoop(c, warmup, iters, func() error { return coll.call(c, n) })
			}
			wantEnd, wantSums, _ := repeatRun(t, ranks, ppn, true, sizes, straggler, repeat)
			gotEnd, gotSums, stats := repeatRun(t, ranks, ppn, false, sizes, straggler, repeat)
			assertSameTimes(t, "fold on vs off", wantEnd, gotEnd, wantSums, gotSums)
			plainEnd, plainSums, plainStats := repeatRun(t, ranks, ppn, false, sizes, straggler, plain)
			assertSameTimes(t, "Repeat vs the per-call loop", plainEnd, gotEnd, plainSums, gotSums)
			if want := int64(len(sizes) * (2 + warmup + iters)); stats.Folded != want || stats.Fallback != 0 ||
				!sameOutcomes(stats, plainStats) {
				t.Errorf("want %d folds and no fallback, as the per-call loop: %+v, per-call %+v", want, stats, plainStats)
			}
		})
	}
}

// perRankCase is one TestFoldParityPerRank workload.
type perRankCase struct {
	name       string
	ranks, ppn int
	algos      map[Collective]string
	py         bool
	call       func(c *Comm, n int) error
}

// perRankCases are shapes with no class symmetry, which fold on a per-rank
// step table: a rooted bcast under either algorithm at the first, second
// and last root, on power-of-two and other worlds; recursive doubling,
// Rabenseifner and pairwise exchange on a non-power-of-two world, whose
// fold ranks send and receive alone; and one Py-mode bcast.
func perRankCases() []perRankCase {
	var cases []perRankCase
	for _, algo := range []string{"binomial", "scatter_ring"} {
		for _, shape := range [][2]int{{16, 1}, {8, 4}, {21, 7}} {
			ranks, ppn := shape[0], shape[1]
			for _, root := range []int{0, 1, ranks - 1} {
				cases = append(cases, perRankCase{
					name:  fmt.Sprintf("bcast-%s-root%d-%dx%d", algo, root, ranks, ppn),
					ranks: ranks, ppn: ppn,
					algos: map[Collective]string{CollBcast: algo},
					call:  func(c *Comm, n int) error { return c.BcastN(nil, n, root) },
				})
			}
		}
	}
	for _, algo := range []string{"recursive_doubling", "rabenseifner"} {
		cases = append(cases, perRankCase{
			name: "allreduce-" + algo + "-63x7", ranks: 63, ppn: 7,
			algos: map[Collective]string{CollAllreduce: algo},
			call:  func(c *Comm, n int) error { return c.AllreduceN(nil, nil, n, Float32, OpSum) },
		})
	}
	return append(cases,
		perRankCase{
			name: "alltoall-pairwise-63x7", ranks: 63, ppn: 7,
			algos: map[Collective]string{CollAlltoall: "pairwise"},
			call:  func(c *Comm, n int) error { return c.AlltoallN(nil, n, nil) },
		},
		perRankCase{
			name: "bcast-py-root1-63x7", ranks: 63, ppn: 7, py: true,
			call: func(c *Comm, n int) error { return c.BcastN(nil, n, 1) },
		})
}

// TestFoldParityPerRank pins the per-rank table path: every perRankCases
// shape, timed by the benchmark loop's per-size shape from each
// repeatSkews entry state at 8 B to 64 KiB (both sides of the eager
// limit), as a per-call loop and as a Comm.Repeat loop with warmup, must
// fold every call — no fallback, no release — and match the fold-off
// world's end clocks and loop sums bit for bit.
func TestFoldParityPerRank(t *testing.T) {
	const warmup, iters = 1, 3
	sizes := []int{8, 1024, 16 * 1024, 64 * 1024}
	loops := []struct {
		name string
		run  func(c *Comm, call func() error) (vtime.Micros, error)
	}{
		{"calls", func(c *Comm, call func() error) (vtime.Micros, error) {
			return plainLoop(c, warmup, iters, call)
		}},
		{"repeat", func(c *Comm, call func() error) (vtime.Micros, error) {
			return c.Repeat(warmup, iters, call)
		}},
	}
	for _, tc := range perRankCases() {
		for _, sk := range repeatSkews {
			for _, lp := range loops {
				t.Run(fmt.Sprintf("%s-%s-%s", tc.name, sk.name, lp.name), func(t *testing.T) {
					loop := func(c *Comm, n int) (vtime.Micros, error) {
						return lp.run(c, func() error { return tc.call(c, n) })
					}
					run := func(disableFold bool) ([]vtime.Micros, [][]vtime.Micros, FoldStats) {
						sums := make([][]vtime.Micros, tc.ranks)
						cfg := Config{DisableFold: disableFold, Algorithms: tc.algos, PyMode: tc.py}
						end, stats, err := runFoldWorld(t, tc.ranks, tc.ppn, cfg, repeatBody(sizes, sk.skew, sums, loop))
						if err != nil {
							t.Fatalf("fold=%v: %v", !disableFold, err)
						}
						return end, sums, stats
					}
					wantEnd, wantSums, _ := run(true)
					gotEnd, gotSums, stats := run(false)
					assertSameTimes(t, "fold on vs off", wantEnd, gotEnd, wantSums, gotSums)
					// Two barriers per size, then every call of the loop.
					want := int64(len(sizes) * (2 + warmup + iters))
					if stats.Folded != want || stats.Fallback != 0 || stats.Released != 0 {
						t.Errorf("want %d folds, no fallback and no release: %+v", want, stats)
					}
				})
			}
		}
	}
}

// TestRepeatCancelMidBatch cancels a batched loop while its gather runs
// the repetitions back to back on the resolver's stack, where no rank
// reaches a collective entry to notice: the batch must stop at its next
// repetition instead of running its ~20 s to the end, every rank must fail
// with a CanceledError, and the world must then run a clean loop to the
// numbers of a fresh world.
func TestRepeatCancelMidBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock bound on a 1024-rank world in -short mode")
	}
	const ranks, ppn, reps = 1024, 64, 1 << 20
	place, err := topology.NewPlacement(&topology.Frontera, ranks, ppn, topology.Block, false)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(Config{Placement: place, Model: netmodel.MustNew(&topology.Frontera, netmodel.MVAPICH2)})
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock bound on a shared machine: a few attempts absorb
	// scheduler noise.
	const bound = 250 * time.Millisecond
	var elapsed time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		canceledAt := make(chan time.Time, 1)
		var once sync.Once
		before := w.FoldStats().Folded
		err := w.RunContext(ctx, func(p *Proc) error {
			c := p.CommWorld()
			if err := c.Barrier(); err != nil {
				return err
			}
			// The first rank past the barrier arms the cancel; the others
			// join the loop's gather well within the delay.
			once.Do(func() {
				time.AfterFunc(50*time.Millisecond, func() {
					canceledAt <- time.Now()
					cancel()
				})
			})
			_, err := c.Repeat(0, reps, c.Barrier)
			return err
		})
		returned := time.Now()
		cancel()
		var ce *CanceledError
		if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled batch returned %v, want a CanceledError", err)
		}
		if ce.Collective != collBarrier {
			t.Errorf("cancel site %q, want the batched barrier", ce.Collective)
		}
		// One fold for the first barrier, then the repetitions run.
		done := w.FoldStats().Folded - before - 1
		if done <= 0 || done >= reps {
			t.Fatalf("batch ran %d of %d repetitions, want it cut mid-way", done, reps)
		}
		elapsed = returned.Sub(<-canceledAt)
		t.Logf("batch cut after %d of %d repetitions; run returned %v after the cancel", done, reps, elapsed)
		if elapsed <= bound {
			break
		}
	}
	if elapsed > bound {
		t.Errorf("canceled batch took %v to unwind, want <= %v", elapsed, bound)
	}

	body := func(sums []vtime.Micros) func(p *Proc) error {
		return func(p *Proc) error {
			c := p.CommWorld()
			e, err := c.Repeat(1, 3, c.Barrier)
			sums[p.Rank()] = e
			return err
		}
	}
	got := make([]vtime.Micros, ranks)
	if err := w.Run(body(got)); err != nil {
		t.Fatalf("run after the cancel: %v", err)
	}
	want := make([]vtime.Micros, ranks)
	runFoldParity(t, ranks, ppn, false, nil, body(want))
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("rank %d: loop sum after the cancel %v, fresh world %v", r, float64(got[r]), float64(want[r]))
		}
	}
}

// FuzzFoldParity is the fold on/off differential: a random program of
// collectives, clock resets, one-rank compute skews and timed loops, run by
// every rank of a timing-only world on 1-16 Frontera nodes, must end with
// the same per-rank clocks and loop sums, and fail or succeed alike, with
// folding on and off. nodes' low four bits pick the node count; when its
// high bit is set, bits 4-5 force a bcast algorithm (none, binomial,
// scatter_ring) or, at 3, swap reduce_scatter's block form in for the
// reduce and igather steps and the reduce loops, and bit 6 runs the world
// in Py mode. Each (op, arg) byte pair of prog is one step, up to 32 steps;
// arg picks the size from 8 B, 1 KiB, 16 KiB and 64 KiB (low two bits) and
// the root or the skewed rank (the rest). An op byte of 0x80 or more is a
// Comm.Repeat loop: its low seven bits pick the collective (of
// repeatColls' first six), the warmup (0-2) and the timed calls (1-4).
func FuzzFoldParity(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{0, 0, 1, 2, 2, 5, 3, 9, 4, 0})
	f.Add(uint8(3), uint8(3), []byte{5, 0, 0, 0, 8, 1, 0, 0, 9, 2, 0, 0, 4, 0})
	f.Add(uint8(15), uint8(5), []byte{6, 13, 1, 3, 7, 1, 10, 0, 11, 6, 0, 0})
	f.Add(uint8(6), uint8(4), []byte{0, 0, 5, 0, 0, 0, 8, 3, 8, 3, 8, 3, 8, 3, 4, 0})
	f.Add(uint8(3), uint8(1), []byte{0, 0, 0x80 + 25, 2, 6, 12, 0x80 + 43, 3, 0x80 + 4, 1, 4, 0})
	f.Fuzz(func(t *testing.T, nodes, ppnSel uint8, prog []byte) {
		ppn := []int{1, 2, 3, 4, 7, 8}[int(ppnSel)%6]
		ranks := ppn * (1 + int(nodes)%16)
		var cfg Config
		rs := false
		if nodes&0x80 != 0 {
			if algo := []string{"", "binomial", "scatter_ring", ""}[nodes>>4&3]; algo != "" {
				cfg.Algorithms = map[Collective]string{CollBcast: algo}
			}
			rs = nodes>>4&3 == 3
			cfg.PyMode = nodes&0x40 != 0
		}
		off := cfg
		off.DisableFold = true
		if len(prog) > 64 {
			prog = prog[:64]
		}
		sizes := [4]int{8, 1024, 16 * 1024, 64 * 1024}
		body := func(sums [][]vtime.Micros) func(p *Proc) error {
			return func(p *Proc) error {
				c := p.CommWorld()
				row := make([]byte, 48)
				for i := 0; i+1 < len(prog); i += 2 {
					op, arg := prog[i]%12, int(prog[i+1])
					n, peer := sizes[arg&3], (arg>>2)%ranks
					if sel := int(prog[i]); sel >= 0x80 {
						sel -= 0x80
						coll := repeatColls[sel%6]
						if rs && coll.name == "reduce" {
							coll = repeatColls[6]
						}
						e, err := c.Repeat(sel/6%3, 1+sel/18%4, func() error { return coll.call(c, n) })
						if err != nil {
							return err
						}
						sums[p.Rank()] = append(sums[p.Rank()], e)
						continue
					}
					var req *Request
					var err error
					switch op {
					case 0:
						err = c.Barrier()
					case 1:
						err = c.AllreduceN(nil, nil, n, Float32, OpSum)
					case 2:
						err = c.BcastN(nil, n, peer)
					case 3:
						if rs {
							err = c.ReduceScatterBlockN(nil, nil, n, Float32, OpSum)
						} else {
							err = c.ReduceN(nil, nil, n, Float32, OpSum, peer)
						}
					case 4:
						err = c.Reduce(row[:24], row[24:], Float64, OpMinSumMax, peer)
					case 5:
						p.ResetClock()
					case 6:
						if p.Rank() == peer {
							c.ChargeCompute(vtime.Micros(1 + arg))
						}
					case 7:
						err = c.AllgatherN(nil, n, nil)
					case 8:
						if rs {
							req, err = c.IreduceScatterBlockN(nil, nil, n, Float32, OpSum)
						} else {
							req, err = c.IgatherN(nil, n, nil, peer)
						}
					case 9:
						req, err = c.IalltoallN(nil, n, nil)
					case 10:
						req, err = c.IallreduceN(nil, nil, n, Float32, OpSum)
					case 11:
						req, err = c.IbcastN(nil, n, peer)
					}
					if err == nil && req != nil {
						_, err = req.Wait()
					}
					if err != nil {
						return err
					}
				}
				return nil
			}
		}
		offSums, sums := make([][]vtime.Micros, ranks), make([][]vtime.Micros, ranks)
		want, offStats, offErr := runFoldWorld(t, ranks, ppn, off, body(offSums))
		got, _, err := runFoldWorld(t, ranks, ppn, cfg, body(sums))
		if offStats != (FoldStats{}) {
			t.Errorf("DisableFold world still reached the fold gather: %+v", offStats)
		}
		if (err != nil) != (offErr != nil) {
			t.Fatalf("%dx%d: fold-off error %v, folded error %v", ranks, ppn, offErr, err)
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("%dx%d rank %d: virtual end time diverged: fold-off %v, folded %v",
					ranks, ppn, r, want[r], got[r])
			}
			if len(sums[r]) != len(offSums[r]) {
				t.Fatalf("%dx%d rank %d: %d loops folded, %d fold-off", ranks, ppn, r, len(sums[r]), len(offSums[r]))
			}
			for i := range offSums[r] {
				if sums[r][i] != offSums[r][i] {
					t.Fatalf("%dx%d rank %d: loop %d elapsed sum diverged: fold-off %v, folded %v",
						ranks, ppn, r, i, float64(offSums[r][i]), float64(sums[r][i]))
				}
			}
		}
	})
}
