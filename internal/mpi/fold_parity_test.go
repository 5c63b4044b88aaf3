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

// runFoldWorld runs body on a timing-only world and returns every rank's
// final clock, the world's fold counters and the run's error.
func runFoldWorld(t testing.TB, ranks, ppn int, disableFold bool, algorithms map[Collective]string, body func(p *Proc) error) ([]vtime.Micros, FoldStats, error) {
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
	return end, w.FoldStats(), err
}

// runFoldParity is runFoldWorld for bodies that must not fail.
func runFoldParity(t *testing.T, ranks, ppn int, disableFold bool, algorithms map[Collective]string, body func(p *Proc) error) ([]vtime.Micros, FoldStats) {
	t.Helper()
	end, stats, err := runFoldWorld(t, ranks, ppn, disableFold, algorithms, body)
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
// uniform across ranks, so a full gather of one ends in a shape fallback.
// A rank that leaves a rooted collective early and joins the next gather
// while its peers are still inside that collective is waiting, not
// stalled: loop frames unwind until the peers run, so every barrier folds
// and the safety valve stays shut. The clocks must still match per-rank
// execution.
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
			if stats.Released != 0 || stats.Folded != 4 {
				t.Errorf("want all 4 barriers folded and no release: %+v", stats)
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

// FuzzFoldParity is the fold on/off differential: a random program of
// collectives, clock resets and one-rank compute skews, run by every rank
// of a timing-only world on 1-16 Frontera nodes, must end with the same
// per-rank clocks, and fail or succeed alike, with folding on and off.
// Each (op, arg) byte pair of prog is one step, up to 32 steps; arg picks
// the size from 8 B, 1 KiB, 16 KiB and 64 KiB (low two bits) and the root
// or the skewed rank (the rest).
func FuzzFoldParity(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{0, 0, 1, 2, 2, 5, 3, 9, 4, 0})
	f.Add(uint8(3), uint8(3), []byte{5, 0, 0, 0, 8, 1, 0, 0, 9, 2, 0, 0, 4, 0})
	f.Add(uint8(15), uint8(5), []byte{6, 13, 1, 3, 7, 1, 10, 0, 11, 6, 0, 0})
	f.Add(uint8(6), uint8(4), []byte{0, 0, 5, 0, 0, 0, 8, 3, 8, 3, 8, 3, 8, 3, 4, 0})
	f.Fuzz(func(t *testing.T, nodes, ppnSel uint8, prog []byte) {
		ppn := []int{1, 2, 3, 4, 7, 8}[int(ppnSel)%6]
		ranks := ppn * (1 + int(nodes)%16)
		if len(prog) > 64 {
			prog = prog[:64]
		}
		sizes := [4]int{8, 1024, 16 * 1024, 64 * 1024}
		body := func(p *Proc) error {
			c := p.CommWorld()
			row := make([]byte, 48)
			for i := 0; i+1 < len(prog); i += 2 {
				op, arg := prog[i]%12, int(prog[i+1])
				n, peer := sizes[arg&3], (arg>>2)%ranks
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
					err = c.ReduceN(nil, nil, n, Float32, OpSum, peer)
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
					req, err = c.IgatherN(nil, n, nil, peer)
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
		want, offStats, offErr := runFoldWorld(t, ranks, ppn, true, nil, body)
		got, _, err := runFoldWorld(t, ranks, ppn, false, nil, body)
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
		}
	})
}
