package mpi

// Property-based equivalence tests: every optimised collective must produce
// exactly the bytes a trivially-correct linear reference produces, for
// randomized communicator sizes, message sizes, roots and payloads.

import (
	"bytes"
	"math/rand"
	"testing"
)

// refEnv runs body on a fresh world and collects each rank's output buffer.
func refEnv(t *testing.T, p, ppn int, body func(c *Comm, out *[][]byte) error) [][]byte {
	t.Helper()
	outs := make([][]byte, p)
	w := testWorld(t, p, ppn)
	err := w.Run(func(pr *Proc) error {
		return body(pr.CommWorld(), &outs)
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// linear reference implementations built on Send/Recv only.

func refBcast(c *Comm, buf []byte, root int) error {
	if c.Rank() == root {
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			if err := c.Send(buf, r, 42); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := c.Recv(buf, root, 42)
	return err
}

func refAllreduce(c *Comm, sbuf, rbuf []byte, dt DType, op Op) error {
	// Gather everything to rank 0, reduce locally in rank order, bcast.
	p := c.Size()
	if c.Rank() == 0 {
		acc := make([]byte, len(sbuf))
		copy(acc, sbuf)
		tmp := make([]byte, len(sbuf))
		for r := 1; r < p; r++ {
			if _, err := c.Recv(tmp, r, 43); err != nil {
				return err
			}
			if err := reduceInto(acc, tmp, dt, op); err != nil {
				return err
			}
		}
		copy(rbuf, acc)
	} else {
		if err := c.Send(sbuf, 0, 43); err != nil {
			return err
		}
	}
	return refBcast(c, rbuf, 0)
}

func refAllgather(c *Comm, sbuf, rbuf []byte) error {
	p := c.Size()
	n := len(sbuf)
	copy(rbuf[c.Rank()*n:(c.Rank()+1)*n], sbuf)
	// Everyone sends to everyone (linear, tag-disambiguated by sender). The
	// sends are nonblocking so rendezvous-sized blocks cannot deadlock.
	var reqs []*Request
	for r := 0; r < p; r++ {
		if r == c.Rank() {
			continue
		}
		req, err := c.Isend(sbuf, r, 44)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	for r := 0; r < p; r++ {
		if r == c.Rank() {
			continue
		}
		if _, err := c.Recv(rbuf[r*n:(r+1)*n], r, 44); err != nil {
			return err
		}
	}
	return Waitall(reqs)
}

func refAlltoall(c *Comm, sbuf []byte, n int, rbuf []byte) error {
	p := c.Size()
	copy(rbuf[c.Rank()*n:(c.Rank()+1)*n], sbuf[c.Rank()*n:(c.Rank()+1)*n])
	var reqs []*Request
	for r := 0; r < p; r++ {
		if r == c.Rank() {
			continue
		}
		req, err := c.Isend(sbuf[r*n:(r+1)*n], r, 45)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	for r := 0; r < p; r++ {
		if r == c.Rank() {
			continue
		}
		if _, err := c.Recv(rbuf[r*n:(r+1)*n], r, 45); err != nil {
			return err
		}
	}
	return Waitall(reqs)
}

// refReduceScatterBlock reduces the whole vector linearly, then keeps this
// rank's block.
func refReduceScatterBlock(c *Comm, sbuf, rbuf []byte, dt DType, op Op) error {
	full := make([]byte, len(sbuf))
	if err := refAllreduce(c, sbuf, full, dt, op); err != nil {
		return err
	}
	n := len(rbuf)
	copy(rbuf, full[c.Rank()*n:(c.Rank()+1)*n])
	return nil
}

// refScan passes the running prefix down the rank chain: rank r receives
// op(sbuf_0..sbuf_{r-1}) from r-1, folds in its own contribution and
// forwards the result. With exclusive set, rbuf gets the received prefix
// instead (and stays untouched on rank 0).
func refScan(c *Comm, sbuf, rbuf []byte, dt DType, op Op, exclusive bool) error {
	acc := append([]byte(nil), sbuf...)
	if r := c.Rank(); r > 0 {
		prefix := make([]byte, len(sbuf))
		if _, err := c.Recv(prefix, r-1, 46); err != nil {
			return err
		}
		if exclusive {
			copy(rbuf, prefix)
		}
		if err := reduceInto(acc, prefix, dt, op); err != nil {
			return err
		}
	}
	if !exclusive {
		copy(rbuf, acc)
	}
	if r := c.Rank(); r+1 < c.Size() {
		return c.Send(acc, r+1, 46)
	}
	return nil
}

// randomized cases: sizes chosen to straddle every algorithm threshold.

type refCase struct {
	p, ppn, elems int
	root          int
	seed          int64
}

func refCases(rng *rand.Rand, count int) []refCase {
	sizes := []int{1, 3, 17, 256, 1024, 4096, 8192, 65536}
	var out []refCase
	for i := 0; i < count; i++ {
		p := 2 + rng.Intn(12) // 2..13 ranks: pof2 and non-pof2
		out = append(out, refCase{
			p:     p,
			ppn:   1 + rng.Intn(p),
			elems: sizes[rng.Intn(len(sizes))],
			root:  rng.Intn(p),
			seed:  rng.Int63(),
		})
	}
	return out
}

func randFloats(seed int64, rank, elems int) []float64 {
	rng := rand.New(rand.NewSource(seed + int64(rank)*7919))
	vals := make([]float64, elems)
	for i := range vals {
		vals[i] = float64(rng.Intn(1000)) / 4 // dyadic: exact fp addition order-independence not needed (ref uses rank order too)
	}
	return vals
}

func TestBcastMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, tc := range refCases(rng, 12) {
		n := tc.elems
		fast := refEnv(t, tc.p, tc.ppn, func(c *Comm, out *[][]byte) error {
			buf := make([]byte, n)
			if c.Rank() == tc.root {
				copy(buf, pattern(int(tc.seed%251), n))
			}
			if err := c.Bcast(buf, tc.root); err != nil {
				return err
			}
			(*out)[c.Rank()] = buf
			return nil
		})
		slow := refEnv(t, tc.p, tc.ppn, func(c *Comm, out *[][]byte) error {
			buf := make([]byte, n)
			if c.Rank() == tc.root {
				copy(buf, pattern(int(tc.seed%251), n))
			}
			if err := refBcast(c, buf, tc.root); err != nil {
				return err
			}
			(*out)[c.Rank()] = buf
			return nil
		})
		for r := range fast {
			if !bytes.Equal(fast[r], slow[r]) {
				t.Fatalf("case %d (%+v): rank %d bcast mismatch", i, tc, r)
			}
		}
	}
}

func TestAllreduceMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i, tc := range refCases(rng, 10) {
		run := func(impl func(c *Comm, s, r []byte) error) [][]byte {
			return refEnv(t, tc.p, tc.ppn, func(c *Comm, out *[][]byte) error {
				sbuf := EncodeFloat64s(randFloats(tc.seed, c.Rank(), tc.elems))
				rbuf := make([]byte, len(sbuf))
				if err := impl(c, sbuf, rbuf); err != nil {
					return err
				}
				(*out)[c.Rank()] = rbuf
				return nil
			})
		}
		fast := run(func(c *Comm, s, r []byte) error { return c.Allreduce(s, r, Float64, OpSum) })
		slow := run(func(c *Comm, s, r []byte) error { return refAllreduce(c, s, r, Float64, OpSum) })
		// Compare as floats with tolerance: the optimised algorithms reduce
		// in a different association order than the linear reference.
		for r := range fast {
			fv, sv := DecodeFloat64s(fast[r]), DecodeFloat64s(slow[r])
			for j := range fv {
				diff := fv[j] - sv[j]
				if diff < 0 {
					diff = -diff
				}
				if diff > 1e-9*(1+sv[j]) {
					t.Fatalf("case %d (%+v): rank %d elem %d: %v vs %v", i, tc, r, j, fv[j], sv[j])
				}
			}
		}
	}
}

func TestAllgatherMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i, tc := range refCases(rng, 10) {
		n := tc.elems
		run := func(impl func(c *Comm, s, r []byte) error) [][]byte {
			return refEnv(t, tc.p, tc.ppn, func(c *Comm, out *[][]byte) error {
				sbuf := pattern(c.Rank()+int(tc.seed%97), n)
				rbuf := make([]byte, tc.p*n)
				if err := impl(c, sbuf, rbuf); err != nil {
					return err
				}
				(*out)[c.Rank()] = rbuf
				return nil
			})
		}
		fast := run(func(c *Comm, s, r []byte) error { return c.Allgather(s, r) })
		slow := run(refAllgather)
		for r := range fast {
			if !bytes.Equal(fast[r], slow[r]) {
				t.Fatalf("case %d (%+v): rank %d allgather mismatch", i, tc, r)
			}
		}
	}
}

func TestAlltoallMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i, tc := range refCases(rng, 8) {
		n := tc.elems
		run := func(impl func(c *Comm, s []byte, n int, r []byte) error) [][]byte {
			return refEnv(t, tc.p, tc.ppn, func(c *Comm, out *[][]byte) error {
				sbuf := make([]byte, tc.p*n)
				for d := 0; d < tc.p; d++ {
					copy(sbuf[d*n:(d+1)*n], pattern(c.Rank()*31+d+int(tc.seed%89), n))
				}
				rbuf := make([]byte, tc.p*n)
				if err := impl(c, sbuf, n, rbuf); err != nil {
					return err
				}
				(*out)[c.Rank()] = rbuf
				return nil
			})
		}
		fast := run(func(c *Comm, s []byte, n int, r []byte) error { return c.AlltoallN(s, n, r) })
		slow := run(refAlltoall)
		for r := range fast {
			if !bytes.Equal(fast[r], slow[r]) {
				t.Fatalf("case %d (%+v): rank %d alltoall mismatch", i, tc, r)
			}
		}
	}
}

// TestReduceScatterMatchesReduceThenScatter checks the fused collective
// against its two-step definition, randomized.
func TestReduceScatterMatchesReduceThenScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i, tc := range refCases(rng, 8) {
		elems := tc.elems
		n := elems * 8
		fused := refEnv(t, tc.p, tc.ppn, func(c *Comm, out *[][]byte) error {
			sbuf := EncodeFloat64s(randFloats(tc.seed, c.Rank(), tc.p*elems))
			rbuf := make([]byte, n)
			if err := c.ReduceScatterBlock(sbuf, rbuf, Float64, OpSum); err != nil {
				return err
			}
			(*out)[c.Rank()] = rbuf
			return nil
		})
		twoStep := refEnv(t, tc.p, tc.ppn, func(c *Comm, out *[][]byte) error {
			sbuf := EncodeFloat64s(randFloats(tc.seed, c.Rank(), tc.p*elems))
			full := make([]byte, tc.p*n)
			if err := c.Reduce(sbuf, full, Float64, OpSum, 0); err != nil {
				return err
			}
			rbuf := make([]byte, n)
			if err := c.Scatter(full, rbuf, 0); err != nil {
				return err
			}
			(*out)[c.Rank()] = rbuf
			return nil
		})
		for r := range fused {
			fv, sv := DecodeFloat64s(fused[r]), DecodeFloat64s(twoStep[r])
			for j := range fv {
				diff := fv[j] - sv[j]
				if diff < 0 {
					diff = -diff
				}
				if diff > 1e-9*(1+sv[j]) {
					t.Fatalf("case %d (%+v): rank %d elem %d: %v vs %v", i, tc, r, j, fv[j], sv[j])
				}
			}
		}
	}
}

// TestGatherBcastComposition sanity-checks composed collectives with a
// printf-style oracle: gather at a random root then broadcast must give
// every rank the full rank-ordered concatenation.
func TestGatherBcastComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i, tc := range refCases(rng, 8) {
		n := tc.elems
		outs := refEnv(t, tc.p, tc.ppn, func(c *Comm, out *[][]byte) error {
			all := make([]byte, tc.p*n)
			if err := c.Gather(pattern(c.Rank(), n), all, tc.root); err != nil {
				return err
			}
			if err := c.Bcast(all, tc.root); err != nil {
				return err
			}
			(*out)[c.Rank()] = all
			return nil
		})
		for r, all := range outs {
			for src := 0; src < tc.p; src++ {
				if !bytes.Equal(all[src*n:(src+1)*n], pattern(src, n)) {
					t.Fatalf("case %d (%+v): rank %d block %d wrong", i, tc, r, src)
				}
			}
		}
	}
}
