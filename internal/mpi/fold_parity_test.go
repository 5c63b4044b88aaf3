package mpi

import (
	"fmt"
	"testing"

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

// runFoldParity runs body on an event-engine world and returns every
// rank's final clock plus the world's fold counters.
func runFoldParity(t *testing.T, ranks, ppn int, disableFold bool, algorithms map[Collective]string, body func(p *Proc) error) ([]vtime.Micros, FoldStats) {
	t.Helper()
	place, err := topology.NewPlacement(&topology.Frontera, ranks, ppn, topology.Block, false)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(Config{
		Placement:   place,
		Model:       netmodel.MustNew(&topology.Frontera, netmodel.MVAPICH2),
		CarryData:   false,
		DisableFold: disableFold,
		Algorithms:  algorithms,
	})
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
	if err != nil {
		t.Fatalf("fold=%v: %v", !disableFold, err)
	}
	return end, w.FoldStats()
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
// ring allgather (mod-family peer deltas) against recursive-doubling
// allreduce (xor-family) — so consecutive collectives flip the fold shape
// cache between kinds. Clocks must still match per-rank execution.
func TestFoldParityForcedMix(t *testing.T) {
	algorithms := map[Collective]string{
		CollAllreduce: "recursive_doubling",
		CollAllgather: "ring",
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
		}
		return c.Barrier()
	})
	if stats.Folded == 0 {
		t.Errorf("forced algorithm mix never folded: %+v", stats)
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
// calls, then the min/sum/max row reduce). Rooted schedules are not
// uniform across ranks, so their gathers end in a shape fallback or — when
// the root leaves early — a partial gather released by the safety valve.
// The clocks must still match per-rank execution, and both fallback paths
// must actually have run.
func TestFoldParityRootedFallback(t *testing.T) {
	cases := []struct {
		coll       string
		ranks, ppn int
	}{
		{"bcast", 16, 1},
		{"bcast", 64, 8},
		{"reduce", 16, 4},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-%dx%d", tc.coll, tc.ranks, tc.ppn), func(t *testing.T) {
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
			if stats.Released == 0 {
				t.Errorf("safety valve never released a stalled gather: %+v", stats)
			}
			if tc.coll == "bcast" && stats.Fallback == 0 {
				t.Errorf("bcast never fell back from a full gather: %+v", stats)
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
