package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/topology"
	"repro/internal/vtime"
)

// collSizes exercises every algorithm branch: tiny (eager, recursive
// doubling / Bruck), medium, and large (rendezvous, ring / Rabenseifner /
// pairwise).
var collSizes = []int{8, 1024, 64 * 1024, 512 * 1024}

// collCases exercises power-of-two and non-power-of-two groups, single- and
// multi-node placements.
type collCase struct{ n, ppn int }

var collCases = []collCase{{2, 2}, {4, 4}, {5, 5}, {8, 4}, {13, 7}, {16, 4}}

func forAllWorlds(t *testing.T, fn func(t *testing.T, cc collCase)) {
	t.Helper()
	for _, cc := range collCases {
		cc := cc
		t.Run(fmt.Sprintf("p%d_ppn%d", cc.n, cc.ppn), func(t *testing.T) { fn(t, cc) })
	}
}

func TestBarrierSynchronises(t *testing.T) {
	forAllWorlds(t, func(t *testing.T, cc collCase) {
		w := testWorld(t, cc.n, cc.ppn)
		err := w.Run(func(pr *Proc) error {
			c := pr.CommWorld()
			// Skew the ranks; the barrier must pull everyone past the
			// latest entry time.
			pr.AdvanceClock(vtime.Micros(pr.Rank()) * 10)
			if err := c.Barrier(); err != nil {
				return err
			}
			latest := vtime.Micros(cc.n-1) * 10
			if pr.Wtime() < latest {
				return fmt.Errorf("rank %d exited barrier at %v, before slowest entry %v",
					pr.Rank(), pr.Wtime(), latest)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBcastAllSizes(t *testing.T) {
	forAllWorlds(t, func(t *testing.T, cc collCase) {
		for _, n := range collSizes {
			w := testWorld(t, cc.n, cc.ppn)
			root := (cc.n - 1) / 2
			err := w.Run(func(pr *Proc) error {
				c := pr.CommWorld()
				buf := make([]byte, n)
				if pr.Rank() == root {
					copy(buf, pattern(root, n))
				}
				if err := c.Bcast(buf, root); err != nil {
					return err
				}
				if !bytes.Equal(buf, pattern(root, n)) {
					return fmt.Errorf("rank %d: bcast payload wrong for n=%d", pr.Rank(), n)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	})
}

func TestReduceSumFloat64(t *testing.T) {
	forAllWorlds(t, func(t *testing.T, cc collCase) {
		for _, elems := range []int{1, 128, 8192, 65536} {
			w := testWorld(t, cc.n, cc.ppn)
			root := cc.n - 1
			err := w.Run(func(pr *Proc) error {
				c := pr.CommWorld()
				vals := make([]float64, elems)
				for i := range vals {
					vals[i] = float64(pr.Rank()+1) * float64(i+1)
				}
				sbuf := EncodeFloat64s(vals)
				rbuf := make([]byte, len(sbuf))
				if err := c.Reduce(sbuf, rbuf, Float64, OpSum, root); err != nil {
					return err
				}
				if pr.Rank() != root {
					return nil
				}
				got := DecodeFloat64s(rbuf)
				sumRanks := float64(cc.n*(cc.n+1)) / 2
				for i, g := range got {
					want := sumRanks * float64(i+1)
					if g != want {
						return fmt.Errorf("elem %d: got %v want %v", i, g, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("elems=%d: %v", elems, err)
			}
		}
	})
}

func TestAllreduceMatchesReduceBcast(t *testing.T) {
	forAllWorlds(t, func(t *testing.T, cc collCase) {
		for _, n := range collSizes {
			w := testWorld(t, cc.n, cc.ppn)
			elems := n / 8
			if elems == 0 {
				elems = 1
			}
			err := w.Run(func(pr *Proc) error {
				c := pr.CommWorld()
				vals := make([]float64, elems)
				for i := range vals {
					vals[i] = float64(pr.Rank()) + float64(i%17)
				}
				sbuf := EncodeFloat64s(vals)
				got := make([]byte, len(sbuf))
				if err := c.Allreduce(sbuf, got, Float64, OpSum); err != nil {
					return err
				}
				// Reference: Reduce to 0 then Bcast.
				ref := make([]byte, len(sbuf))
				if err := c.Reduce(sbuf, ref, Float64, OpSum, 0); err != nil {
					return err
				}
				if err := c.Bcast(ref, 0); err != nil {
					return err
				}
				if !bytes.Equal(got, ref) {
					return fmt.Errorf("rank %d n=%d: allreduce != reduce+bcast", pr.Rank(), n)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	})
}

func TestAllreduceOps(t *testing.T) {
	w := testWorld(t, 5, 5)
	for _, op := range []Op{OpSum, OpProd, OpMin, OpMax} {
		err := w.Run(func(pr *Proc) error {
			c := pr.CommWorld()
			vals := []int32{int32(pr.Rank() + 1), int32(10 - pr.Rank()), -int32(pr.Rank())}
			rbuf := make([]byte, 12)
			if err := c.Allreduce(EncodeInt32s(vals), rbuf, Int32, op); err != nil {
				return err
			}
			got := DecodeInt32s(rbuf)
			var want [3]int32
			for i := 0; i < 3; i++ {
				acc := []int32{1, int32(10 - 0), 0}[i]
				acc = [3]int32{1, 10, 0}[i]
				for r := 1; r < 5; r++ {
					v := []int32{int32(r + 1), int32(10 - r), -int32(r)}[i]
					switch op {
					case OpSum:
						acc += v
					case OpProd:
						acc *= v
					case OpMin:
						if v < acc {
							acc = v
						}
					case OpMax:
						if v > acc {
							acc = v
						}
					}
				}
				want[i] = acc
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("op %v elem %d: got %d want %d", op, i, got[i], want[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("op %v: %v", op, err)
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	forAllWorlds(t, func(t *testing.T, cc collCase) {
		for _, n := range []int{16, 4096, 128 * 1024} {
			w := testWorld(t, cc.n, cc.ppn)
			root := cc.n / 2
			err := w.Run(func(pr *Proc) error {
				c := pr.CommWorld()
				mine := pattern(pr.Rank(), n)
				var gathered []byte
				if pr.Rank() == root {
					gathered = make([]byte, cc.n*n)
				}
				if err := c.Gather(mine, gathered, root); err != nil {
					return err
				}
				if pr.Rank() == root {
					for r := 0; r < cc.n; r++ {
						if !bytes.Equal(gathered[r*n:(r+1)*n], pattern(r, n)) {
							return fmt.Errorf("gather block %d wrong", r)
						}
					}
				}
				// Scatter it back; every rank must get its own block.
				back := make([]byte, n)
				if err := c.Scatter(gathered, back, root); err != nil {
					return err
				}
				if !bytes.Equal(back, mine) {
					return fmt.Errorf("rank %d: scatter returned wrong block", pr.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	})
}

func TestAllgatherAllAlgorithms(t *testing.T) {
	forAllWorlds(t, func(t *testing.T, cc collCase) {
		for _, n := range []int{4, 512, 8192, 64 * 1024} { // RD, Bruck, ring
			w := testWorld(t, cc.n, cc.ppn)
			err := w.Run(func(pr *Proc) error {
				c := pr.CommWorld()
				rbuf := make([]byte, cc.n*n)
				if err := c.Allgather(pattern(pr.Rank(), n), rbuf); err != nil {
					return err
				}
				for r := 0; r < cc.n; r++ {
					if !bytes.Equal(rbuf[r*n:(r+1)*n], pattern(r, n)) {
						return fmt.Errorf("rank %d: block %d wrong (n=%d)", pr.Rank(), r, n)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	})
}

func TestAlltoallBothAlgorithms(t *testing.T) {
	forAllWorlds(t, func(t *testing.T, cc collCase) {
		for _, n := range []int{8, 900, 4096} { // Bruck and pairwise
			w := testWorld(t, cc.n, cc.ppn)
			err := w.Run(func(pr *Proc) error {
				c := pr.CommWorld()
				// Block for destination d from rank r encodes (r, d).
				sbuf := make([]byte, cc.n*n)
				for d := 0; d < cc.n; d++ {
					blk := sbuf[d*n : (d+1)*n]
					for i := range blk {
						blk[i] = byte((pr.Rank()*31 + d*7 + i) % 249)
					}
				}
				rbuf := make([]byte, cc.n*n)
				if err := c.Alltoall(sbuf, rbuf); err != nil {
					return err
				}
				for r := 0; r < cc.n; r++ {
					blk := rbuf[r*n : (r+1)*n]
					for i := range blk {
						want := byte((r*31 + pr.Rank()*7 + i) % 249)
						if blk[i] != want {
							return fmt.Errorf("rank %d n=%d: block from %d byte %d: got %d want %d",
								pr.Rank(), n, r, i, blk[i], want)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	})
}

func TestReduceScatterBlock(t *testing.T) {
	forAllWorlds(t, func(t *testing.T, cc collCase) {
		for _, elems := range []int{1, 64, 4096} {
			w := testWorld(t, cc.n, cc.ppn)
			n := elems * 8
			err := w.Run(func(pr *Proc) error {
				c := pr.CommWorld()
				vals := make([]float64, cc.n*elems)
				for i := range vals {
					vals[i] = float64(pr.Rank()+1) + float64(i)
				}
				rbuf := make([]byte, n)
				if err := c.ReduceScatterBlock(EncodeFloat64s(vals), rbuf, Float64, OpSum); err != nil {
					return err
				}
				got := DecodeFloat64s(rbuf)
				sumRanks := float64(cc.n*(cc.n+1)) / 2
				for i, g := range got {
					idx := pr.Rank()*elems + i
					want := sumRanks + float64(cc.n)*float64(idx)
					if g != want {
						return fmt.Errorf("rank %d elem %d: got %v want %v", pr.Rank(), i, g, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("elems=%d: %v", elems, err)
			}
		}
	})
}

// reduceScatterBlockForms runs the block form blocking and as a
// nonblocking post plus Wait.
var reduceScatterBlockForms = []struct {
	name string
	call func(c *Comm, sbuf, rbuf []byte, n int) error
}{
	{"blocking", func(c *Comm, sbuf, rbuf []byte, n int) error {
		return c.ReduceScatterBlockN(sbuf, rbuf, n, Float32, OpSum)
	}},
	{"nonblocking", func(c *Comm, sbuf, rbuf []byte, n int) error {
		req, err := c.IreduceScatterBlockN(sbuf, rbuf, n, Float32, OpSum)
		if err != nil {
			return err
		}
		_, err = req.Wait()
		return err
	}},
}

// TestReduceScatterBlockRefusals pins the block form's argument checks on
// a 4-rank world: every rank gets the same refusal, and a zero block
// succeeds.
func TestReduceScatterBlockRefusals(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		sLen, rLen int // buffer lengths; 0 passes nil
		want       string
	}{
		{"unaligned", 6, 0, 0, "mpi: ReduceScatter block 6 not a multiple of float32"},
		// The block form carries no count vector, so a negative block is
		// named as the block, not as the count[0] it once expanded into.
		{"negative", -4, 0, 0, "mpi: ReduceScatter block -4 invalid for float32"},
		{"short-send", 4, 12, 0, "mpi: ReduceScatter send buffer 12 < 16"},
		{"short-recv", 4, 0, 2, "mpi: ReduceScatter recv buffer 2 < 4"},
		{"zero-block", 0, 0, 0, ""},
	}
	buf := func(n int) []byte {
		if n == 0 {
			return nil
		}
		return make([]byte, n)
	}
	for _, form := range reduceScatterBlockForms {
		for _, tc := range cases {
			t.Run(form.name+"-"+tc.name, func(t *testing.T) {
				errs := make([]error, 4)
				err := testWorld(t, 4, 4).Run(func(pr *Proc) error {
					errs[pr.Rank()] = form.call(pr.CommWorld(), buf(tc.sLen), buf(tc.rLen), tc.n)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for r, err := range errs {
					got := ""
					if err != nil {
						got = err.Error()
					}
					if got != tc.want {
						t.Errorf("rank %d: error %q, want %q", r, got, tc.want)
					}
				}
			})
		}
	}
}

// TestReduceScatterVectorRefusals pins the vector form's count checks: a
// nil count vector is a length mismatch, never the block form's zero block.
func TestReduceScatterVectorRefusals(t *testing.T) {
	cases := []struct {
		name   string
		counts []int
		want   string
	}{
		{"nil", nil, "mpi: ReduceScatter counts length 0 != 4 ranks"},
		{"short", []int{4, 4}, "mpi: ReduceScatter counts length 2 != 4 ranks"},
		{"negative", []int{4, -4, 4, 4}, "mpi: ReduceScatter count[1]=-4 invalid for float32"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := make([]error, 8) // blocking, then nonblocking, per rank
			err := testWorld(t, 4, 4).Run(func(pr *Proc) error {
				c := pr.CommWorld()
				errs[pr.Rank()] = c.ReduceScatter(nil, nil, tc.counts, Float32, OpSum)
				_, errs[4+pr.Rank()] = c.IreduceScatter(nil, nil, tc.counts, Float32, OpSum)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, err := range errs {
				if err == nil || err.Error() != tc.want {
					t.Errorf("rank %d call %d: error %v, want %q", i%4, i/4, err, tc.want)
				}
			}
		})
	}
}

// TestReduceScatterBlockOneRank pins the single-rank block form, which
// copies sbuf's block to rbuf.
func TestReduceScatterBlockOneRank(t *testing.T) {
	for _, form := range reduceScatterBlockForms {
		t.Run(form.name, func(t *testing.T) {
			err := testWorld(t, 1, 1).Run(func(pr *Proc) error {
				sbuf, rbuf := pattern(0, 16), make([]byte, 16)
				if err := form.call(pr.CommWorld(), sbuf, rbuf, 16); err != nil {
					return err
				}
				if !bytes.Equal(rbuf, sbuf) {
					return fmt.Errorf("rbuf %v, want sbuf %v", rbuf, sbuf)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVectorCollectives(t *testing.T) {
	forAllWorlds(t, func(t *testing.T, cc collCase) {
		w := testWorld(t, cc.n, cc.ppn)
		err := w.Run(func(pr *Proc) error {
			c := pr.CommWorld()
			p := cc.n
			counts := make([]int, p)
			for r := range counts {
				counts[r] = 8 * (r + 1) // variable block sizes
			}
			total := 0
			for _, cnt := range counts {
				total += cnt
			}

			// Gatherv to root 0.
			mine := pattern(pr.Rank(), counts[pr.Rank()])
			var gathered []byte
			if pr.Rank() == 0 {
				gathered = make([]byte, total)
			}
			if pr.Rank() == 0 {
				if err := c.Gatherv(mine, len(mine), gathered, counts, nil, 0); err != nil {
					return err
				}
				off := 0
				for r := 0; r < p; r++ {
					if !bytes.Equal(gathered[off:off+counts[r]], pattern(r, counts[r])) {
						return fmt.Errorf("gatherv block %d wrong", r)
					}
					off += counts[r]
				}
			} else {
				if err := c.Gatherv(mine, len(mine), nil, nil, nil, 0); err != nil {
					return err
				}
			}

			// Scatterv back.
			back := make([]byte, counts[pr.Rank()])
			if pr.Rank() == 0 {
				if err := c.Scatterv(gathered, counts, nil, back, len(back), 0); err != nil {
					return err
				}
			} else {
				if err := c.Scatterv(nil, counts, nil, back, len(back), 0); err != nil {
					return err
				}
			}
			if !bytes.Equal(back, mine) {
				return fmt.Errorf("rank %d: scatterv returned wrong block", pr.Rank())
			}

			// Allgatherv.
			all := make([]byte, total)
			if err := c.Allgatherv(mine, all, counts, nil); err != nil {
				return err
			}
			off := 0
			for r := 0; r < p; r++ {
				if !bytes.Equal(all[off:off+counts[r]], pattern(r, counts[r])) {
					return fmt.Errorf("rank %d: allgatherv block %d wrong", pr.Rank(), r)
				}
				off += counts[r]
			}

			// Alltoallv with symmetric counts: rank r sends 4*(r+d+1) bytes
			// to rank d (same value both directions, so rcounts derivable).
			scounts := make([]int, p)
			rcounts := make([]int, p)
			for d := 0; d < p; d++ {
				scounts[d] = 4 * (pr.Rank() + d + 1)
				rcounts[d] = 4 * (d + pr.Rank() + 1)
			}
			stotal, rtotal := 0, 0
			for d := 0; d < p; d++ {
				stotal += scounts[d]
				rtotal += rcounts[d]
			}
			sbuf := make([]byte, stotal)
			off = 0
			for d := 0; d < p; d++ {
				blk := sbuf[off : off+scounts[d]]
				for i := range blk {
					blk[i] = byte((pr.Rank()*13 + d*5 + i) % 247)
				}
				off += scounts[d]
			}
			rbuf := make([]byte, rtotal)
			if err := c.Alltoallv(sbuf, scounts, nil, rbuf, rcounts, nil); err != nil {
				return err
			}
			off = 0
			for r := 0; r < p; r++ {
				blk := rbuf[off : off+rcounts[r]]
				for i := range blk {
					want := byte((r*13 + pr.Rank()*5 + i) % 247)
					if blk[i] != want {
						return fmt.Errorf("rank %d: alltoallv from %d byte %d: got %d want %d",
							pr.Rank(), r, i, blk[i], want)
					}
				}
				off += rcounts[r]
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestCommSplitAndDup(t *testing.T) {
	w := testWorld(t, 8, 4)
	err := w.Run(func(pr *Proc) error {
		c := pr.CommWorld()
		// Split into even/odd groups, keyed by reverse rank.
		color := pr.Rank() % 2
		sub, err := c.Split(color, -pr.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 4 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		// Reverse key ordering: world rank 6 (color 0) is sub rank 0.
		wantRank := (6-pr.Rank())/2 + 0
		if color == 1 {
			wantRank = (7 - pr.Rank()) / 2
		}
		if sub.Rank() != wantRank {
			return fmt.Errorf("world %d: sub rank %d, want %d", pr.Rank(), sub.Rank(), wantRank)
		}
		// A collective on the subgroup must only see subgroup data.
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(pr.Rank()))
		all := make([]byte, 8*sub.Size())
		if err := sub.Allgather(buf[:], all); err != nil {
			return err
		}
		for i := 0; i < sub.Size(); i++ {
			got := int(binary.LittleEndian.Uint64(all[8*i:]))
			if got%2 != color {
				return fmt.Errorf("subgroup %d contains world rank %d", color, got)
			}
		}
		// Dup must give a working communicator with identical shape.
		dup, err := c.Dup()
		if err != nil {
			return err
		}
		if dup.Rank() != c.Rank() || dup.Size() != c.Size() {
			return fmt.Errorf("dup shape %d/%d", dup.Rank(), dup.Size())
		}
		return dup.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTimingOnlyWorldMatchesDataWorld(t *testing.T) {
	// Virtual time must be identical whether payloads move or not.
	measure := func(carry bool) vtime.Micros {
		place, err := topologyPlacement(16, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld(Config{
			Placement: place,
			Model:     fronteraModelForTest(),
			CarryData: carry,
		})
		if err != nil {
			t.Fatal(err)
		}
		var elapsed vtime.Micros
		err = w.Run(func(pr *Proc) error {
			c := pr.CommWorld()
			n := 128 * 1024
			var sb, rb []byte
			if carry {
				sb = pattern(pr.Rank(), n)
				rb = make([]byte, n)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			start := pr.Wtime()
			if err := c.AllreduceN(sb, rb, n, Float64, OpSum); err != nil {
				return err
			}
			if pr.Rank() == 0 {
				elapsed = pr.Wtime() - start
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	withData := measure(true)
	timingOnly := measure(false)
	if withData != timingOnly {
		t.Fatalf("timing-only world diverges: %v vs %v", timingOnly, withData)
	}
	if withData <= 0 {
		t.Fatal("allreduce took no virtual time")
	}
}

func topologyPlacement(n, ppn int) (*topology.Placement, error) {
	return topology.NewPlacement(&topology.Frontera, n, ppn, topology.Block, false)
}

func fronteraModelForTest() *netmodel.Model {
	return netmodel.MustNew(&topology.Frontera, netmodel.MVAPICH2)
}

func TestAllreduceSizeValidation(t *testing.T) {
	w := testWorld(t, 2, 2)
	err := w.Run(func(pr *Proc) error {
		c := pr.CommWorld()
		if err := c.AllreduceN(nil, nil, 7, Float64, OpSum); err == nil {
			return fmt.Errorf("7 bytes of float64 should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
