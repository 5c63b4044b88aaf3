package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/faults"
)

// A rendezvous message borrows its sender's buffer: the receiver copies
// straight out of it before reporting completion. A schedule that writes a
// posted buffer before its waitSend, or a borrowed slice that leaks into a
// mailbox payload pool, therefore corrupts bytes. The tests below force
// every registered algorithm, plus Scan, Exscan and the nonblocking forms,
// through payloads on both sides of the 16 KiB eager limit and compare
// every byte with the linear references of reference_test.go.

// dyadicFloat32s returns n bytes of float32 quarters in [0, 64): sums of a
// few thousand of them are exact, so every association order reduces to
// the same bytes and results compare byte for byte.
func dyadicFloat32s(seed, n int) []byte {
	b := make([]byte, n)
	for off := 0; off+4 <= n; off += 4 {
		k := (seed*131 + off/4*7 + 13) % 256
		binary.LittleEndian.PutUint32(b[off:], math.Float32bits(float32(k)/4))
	}
	return b
}

// borrowCase is one collective under test: run executes it on a world
// (forced to alg when set), ref is the linear reference. Both get the
// per-rank size n and return the rank's result buffer.
type borrowCase struct {
	coll Collective // "" when the collective has no algorithm registry
	run  func(c *Comm, n int) ([]byte, error)
	ref  func(c *Comm, n int) ([]byte, error)
}

// waitReq completes a nonblocking collective.
func waitReq(req *Request, err error) error {
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

// alignedBlock is the per-destination block of an n-byte send buffer split
// p ways, rounded down to whole float32 elements.
func alignedBlock(n, p int) int { return (n / p) &^ 3 }

func borrowCases() map[string]borrowCase {
	bcastIn := func(c *Comm, n int) []byte {
		if c.Rank() == c.Size()-1 {
			return dyadicFloat32s(99, n)
		}
		return make([]byte, n)
	}
	allreduce := func(nb bool) borrowCase {
		return borrowCase{coll: CollAllreduce,
			run: func(c *Comm, n int) ([]byte, error) {
				rbuf := make([]byte, n)
				sbuf := dyadicFloat32s(c.Rank(), n)
				if nb {
					return rbuf, waitReq(c.Iallreduce(sbuf, rbuf, Float32, OpSum))
				}
				return rbuf, c.Allreduce(sbuf, rbuf, Float32, OpSum)
			},
			ref: func(c *Comm, n int) ([]byte, error) {
				rbuf := make([]byte, n)
				return rbuf, refAllreduce(c, dyadicFloat32s(c.Rank(), n), rbuf, Float32, OpSum)
			}}
	}
	bcast := func(nb bool) borrowCase {
		return borrowCase{coll: CollBcast,
			run: func(c *Comm, n int) ([]byte, error) {
				buf := bcastIn(c, n)
				if nb {
					return buf, waitReq(c.Ibcast(buf, c.Size()-1))
				}
				return buf, c.Bcast(buf, c.Size()-1)
			},
			ref: func(c *Comm, n int) ([]byte, error) {
				buf := bcastIn(c, n)
				return buf, refBcast(c, buf, c.Size()-1)
			}}
	}
	allgather := func(nb bool) borrowCase {
		return borrowCase{coll: CollAllgather,
			run: func(c *Comm, n int) ([]byte, error) {
				rbuf := make([]byte, c.Size()*n)
				sbuf := dyadicFloat32s(c.Rank(), n)
				if nb {
					return rbuf, waitReq(c.Iallgather(sbuf, rbuf))
				}
				return rbuf, c.Allgather(sbuf, rbuf)
			},
			ref: func(c *Comm, n int) ([]byte, error) {
				rbuf := make([]byte, c.Size()*n)
				return rbuf, refAllgather(c, dyadicFloat32s(c.Rank(), n), rbuf)
			}}
	}
	alltoall := func(nb bool) borrowCase {
		return borrowCase{coll: CollAlltoall,
			run: func(c *Comm, n int) ([]byte, error) {
				blk := alignedBlock(n, c.Size())
				sbuf := dyadicFloat32s(c.Rank(), c.Size()*blk)
				rbuf := make([]byte, len(sbuf))
				if nb {
					return rbuf, waitReq(c.Ialltoall(sbuf, rbuf))
				}
				return rbuf, c.Alltoall(sbuf, rbuf)
			},
			ref: func(c *Comm, n int) ([]byte, error) {
				blk := alignedBlock(n, c.Size())
				sbuf := dyadicFloat32s(c.Rank(), c.Size()*blk)
				rbuf := make([]byte, len(sbuf))
				return rbuf, refAlltoall(c, sbuf, blk, rbuf)
			}}
	}
	reduceScatter := func(nb bool) borrowCase {
		return borrowCase{coll: CollReduceScatter,
			run: func(c *Comm, n int) ([]byte, error) {
				blk := alignedBlock(n, c.Size())
				sbuf := dyadicFloat32s(c.Rank(), c.Size()*blk)
				rbuf := make([]byte, blk)
				if nb {
					return rbuf, waitReq(c.IreduceScatterBlock(sbuf, rbuf, Float32, OpSum))
				}
				return rbuf, c.ReduceScatterBlock(sbuf, rbuf, Float32, OpSum)
			},
			ref: func(c *Comm, n int) ([]byte, error) {
				blk := alignedBlock(n, c.Size())
				rbuf := make([]byte, blk)
				return rbuf, refReduceScatterBlock(c, dyadicFloat32s(c.Rank(), c.Size()*blk), rbuf, Float32, OpSum)
			}}
	}
	scan := func(nb, exclusive bool) borrowCase {
		return borrowCase{
			run: func(c *Comm, n int) ([]byte, error) {
				rbuf := bytes.Repeat([]byte{0xa5}, n) // Exscan leaves rank 0's untouched
				sbuf := dyadicFloat32s(c.Rank(), n)
				switch {
				case exclusive:
					return rbuf, c.Exscan(sbuf, rbuf, Float32, OpSum)
				case nb:
					return rbuf, waitReq(c.Iscan(sbuf, rbuf, Float32, OpSum))
				}
				return rbuf, c.Scan(sbuf, rbuf, Float32, OpSum)
			},
			ref: func(c *Comm, n int) ([]byte, error) {
				rbuf := bytes.Repeat([]byte{0xa5}, n)
				return rbuf, refScan(c, dyadicFloat32s(c.Rank(), n), rbuf, Float32, OpSum, exclusive)
			}}
	}
	return map[string]borrowCase{
		"bcast": bcast(false), "ibcast": bcast(true),
		"allreduce": allreduce(false), "iallreduce": allreduce(true),
		"allgather": allgather(false), "iallgather": allgather(true),
		"alltoall": alltoall(false), "ialltoall": alltoall(true),
		"reduce_scatter": reduceScatter(false), "ireduce_scatter": reduceScatter(true),
		"scan": scan(false, false), "iscan": scan(true, false), "exscan": scan(false, true),
	}
}

// TestBorrowedBufferCollectivesMatchReference runs every algorithm of every
// collective on CarryData worlds at 5x1, 8x4 and 13x7 and requires the
// reference bytes on every rank. A last case alternates the two
// partitioning algorithms on one world, so ranks building schedules on the
// world communicator and on Split halves of different sizes keep moving the
// world's one block-partition slot between keys.
func TestBorrowedBufferCollectivesMatchReference(t *testing.T) {
	for _, world := range [][2]int{{5, 1}, {8, 4}, {13, 7}} {
		p, ppn := world[0], world[1]
		for _, n := range []int{8 << 10, 64 << 10, 256 << 10} {
			for name, bc := range borrowCases() {
				want, _ := collRun(t, p, ppn, nil, func(c *Comm, _ int) ([]byte, error) { return bc.ref(c, n) })
				algs := []string{""}
				if bc.coll != "" {
					algs = nil
					for _, a := range Algorithms(bc.coll) {
						if a.FeasibleFor(Selection{CommSize: p}) {
							algs = append(algs, a.Name)
						}
					}
				}
				for _, alg := range algs {
					var forced map[Collective]string
					if alg != "" {
						forced = map[Collective]string{bc.coll: alg}
					}
					got, _ := collRun(t, p, ppn, forced, func(c *Comm, _ int) ([]byte, error) { return bc.run(c, n) })
					for r := range got {
						if !bytes.Equal(got[r], want[r]) {
							t.Fatalf("%dx%d %d KiB %s %s: rank %d differs from the linear reference",
								p, ppn, n>>10, name, alg, r)
						}
					}
				}
			}
		}
	}

	cases := borrowCases()
	interleaved := func(ref bool) func(c *Comm, _ int) ([]byte, error) {
		return func(c *Comm, _ int) ([]byte, error) {
			half, err := c.Split(c.Rank()%2, c.Rank())
			if err != nil {
				return nil, err
			}
			var out []byte
			for _, comm := range []*Comm{c, half} {
				for _, n := range []int{24 << 10, 40 << 10} {
					for _, name := range []string{"allreduce", "bcast"} {
						run := cases[name].run
						if ref {
							run = cases[name].ref
						}
						b, err := run(comm, n)
						if err != nil {
							return nil, err
						}
						out = append(out, b...)
					}
				}
			}
			return out, nil
		}
	}
	forced := map[Collective]string{CollAllreduce: "rabenseifner", CollBcast: "scatter_ring"}
	want, _ := collRun(t, 13, 7, nil, interleaved(true))
	got, _ := collRun(t, 13, 7, forced, interleaved(false))
	for r := range got {
		if !bytes.Equal(got[r], want[r]) {
			t.Fatalf("13x7 interleaved rabenseifner/scatter_ring: rank %d differs from the linear reference", r)
		}
	}
}

// TestRendezvousBufferNeverPooled pins that a borrowed send buffer never
// enters the receiver's payload pool. Rank 0 sends buffer A (16 KiB, a
// rendezvous message) and, once that send has completed and rank 1 has
// made another receive (the point where consumed envelopes are recycled),
// sends a same-class eager message from buffer B and then overwrites A, as
// MPI allows. Had A been pooled, the eager message would have been staged
// into it and rank 1 would read the overwrite instead of B.
func TestRendezvousBufferNeverPooled(t *testing.T) {
	const big, eager = 16 << 10, 16000
	const (
		tagBig = iota + 1
		tagSync
		tagAck
		tagEager
		tagGo
	)
	a0, b0, junk := pattern(1, big), pattern(2, eager), pattern(3, big)
	var got1, got2 []byte
	w := testWorld(t, 2, 1)
	err := w.Run(func(pr *Proc) error {
		c := pr.CommWorld()
		if c.Rank() == 0 {
			a := append([]byte(nil), a0...)
			if err := c.Send(a, 1, tagBig); err != nil {
				return err
			}
			if err := c.Send([]byte{1}, 1, tagSync); err != nil {
				return err
			}
			if _, err := c.Recv(make([]byte, 1), 1, tagAck); err != nil {
				return err
			}
			if err := c.Send(append([]byte(nil), b0...), 1, tagEager); err != nil {
				return err
			}
			copy(a, junk)
			return c.Send([]byte{1}, 1, tagGo)
		}
		got1, got2 = make([]byte, big), make([]byte, eager)
		if _, err := c.Recv(got1, 0, tagBig); err != nil {
			return err
		}
		if _, err := c.Recv(make([]byte, 1), 0, tagSync); err != nil {
			return err
		}
		if err := c.Send([]byte{1}, 0, tagAck); err != nil {
			return err
		}
		if _, err := c.Recv(make([]byte, 1), 0, tagGo); err != nil {
			return err
		}
		_, err := c.Recv(got2, 0, tagEager)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, a0) {
		t.Error("rendezvous message corrupted")
	}
	if !bytes.Equal(got2, b0) {
		t.Errorf("eager message corrupted: got %x..., want %x...", got2[:8], b0[:8])
	}
}

// TestAbandonedRendezvousWithData kills a rank partway through
// payload-carrying collectives at rendezvous sizes on the goroutine engine.
// Survivors abandon the handshakes of their failed sends and then
// overwrite those buffers, which a failed send hands back to its caller.
// Every rank must still end with a structured error, and under -race no
// receiver may read a buffer while its sender writes it.
func TestAbandonedRendezvousWithData(t *testing.T) {
	const p, victim, n = 8, 3, 64 << 10
	for _, coll := range []Collective{CollBcast, CollAllreduce, CollAllgather, CollAlltoall, CollReduceScatter} {
		plan, err := faults.Parse(fmt.Sprintf("kill:rank=%d,after=1:%s", victim, coll))
		if err != nil {
			t.Fatal(err)
		}
		base := testWorld(t, p, 2)
		w, err := NewWorld(Config{Placement: base.cfg.Placement, Model: base.cfg.Model, CarryData: true, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, p)
		err = w.Run(func(pr *Proc) error {
			c := pr.CommWorld()
			sbuf := dyadicFloat32s(pr.Rank(), p*n)
			rbuf := make([]byte, p*n)
			for i := 0; i < 4 && errs[pr.Rank()] == nil; i++ {
				var err error
				switch coll {
				case CollBcast:
					err = c.Bcast(sbuf[:n], 0)
				case CollAllreduce:
					err = c.Allreduce(sbuf[:n], rbuf[:n], Float32, OpSum)
				case CollAllgather:
					err = c.Allgather(sbuf[:n], rbuf)
				case CollAlltoall:
					err = c.Alltoall(sbuf, rbuf)
				case CollReduceScatter:
					err = c.ReduceScatterBlock(sbuf, rbuf[:n], Float32, OpSum)
				}
				if err == nil {
					err = c.Barrier()
				}
				errs[pr.Rank()] = err
				for j := range sbuf {
					sbuf[j]++
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", coll, err)
		}
		for r, e := range errs {
			var killed *RankKilledError
			var failed *RankFailedError
			if r == victim && !errors.As(e, &killed) || r != victim && !errors.As(e, &failed) {
				t.Errorf("%s: rank %d ended with %v, want a structured fault error", coll, r, e)
			}
		}
	}
}
