package mpi4py

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pybuf"
	"repro/internal/vtime"
)

func TestScanThroughBinding(t *testing.T) {
	const p = 5
	w := pyWorld(t, p, p)
	err := w.Run(func(pr *mpi.Proc) error {
		c, err := Wrap(pr.CommWorld())
		if err != nil {
			return err
		}
		in := pybuf.NewNumPy(mpi.Float64, 3)
		for i := 0; i < 3; i++ {
			pybuf.SetFloat64(in, i, float64(pr.Rank()+1))
		}
		out := pybuf.NewNumPy(mpi.Float64, 3)
		if err := c.Scan(in, out, mpi.OpSum); err != nil {
			return err
		}
		r := pr.Rank()
		want := float64((r + 1) * (r + 2) / 2)
		for i := 0; i < 3; i++ {
			if got := pybuf.GetFloat64(out, i); got != want {
				return fmt.Errorf("rank %d elem %d: got %v want %v", r, i, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExscanThroughBinding(t *testing.T) {
	const p = 4
	w := pyWorld(t, p, p)
	err := w.Run(func(pr *mpi.Proc) error {
		c, err := Wrap(pr.CommWorld())
		if err != nil {
			return err
		}
		in := pybuf.NewNumPy(mpi.Int64, 1)
		copy(in.Raw(), encodeInt64(int64(pr.Rank()+1)))
		out := pybuf.NewNumPy(mpi.Int64, 1)
		if err := c.Exscan(in, out, mpi.OpSum); err != nil {
			return err
		}
		if pr.Rank() == 0 {
			return nil // undefined on rank 0
		}
		r := int64(pr.Rank())
		if got := decodeInt64(out.Raw()); got != r*(r+1)/2 {
			return fmt.Errorf("rank %d: got %d want %d", pr.Rank(), got, r*(r+1)/2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func encodeInt64(v int64) []byte {
	out := make([]byte, 8)
	for i := 0; i < 8; i++ {
		out[i] = byte(v >> (8 * i))
	}
	return out
}

func decodeInt64(b []byte) int64 {
	var v int64
	for i := 0; i < 8; i++ {
		v |= int64(b[i]) << (8 * i)
	}
	return v
}

func TestSendrecvThroughBinding(t *testing.T) {
	w := pyWorld(t, 2, 2)
	err := w.Run(func(pr *mpi.Proc) error {
		c, err := Wrap(pr.CommWorld())
		if err != nil {
			return err
		}
		peer := 1 - pr.Rank()
		s := pybuf.NewNumPy(mpi.Uint8, 32)
		pybuf.FillPattern(s, pr.Rank())
		r := pybuf.NewNumPy(mpi.Uint8, 32)
		if _, err := c.Sendrecv(s, peer, 4, r, peer, 4); err != nil {
			return err
		}
		want := pybuf.NewNumPy(mpi.Uint8, 32)
		pybuf.FillPattern(want, peer)
		if !pybuf.Equal(r, want) {
			return fmt.Errorf("rank %d: exchange corrupted", pr.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVectorSpecsRun(t *testing.T) {
	// Every vector collective must run over storage-less pybuf.Sized
	// buffers, advance the clock, and cost what it costs over real
	// buffers.
	const p, n = 4, 512
	measure := func(sized bool) vtime.Micros {
		w := pyWorld(t, p, p)
		var elapsed vtime.Micros
		err := w.Run(func(pr *mpi.Proc) error {
			c, err := Wrap(pr.CommWorld())
			if err != nil {
				return err
			}
			buf := func(count int) pybuf.Buffer {
				if sized {
					return pybuf.Sized(pybuf.NumPy, mpi.Uint8, count)
				}
				return pybuf.NewNumPy(mpi.Uint8, count)
			}
			one, all := buf(n), buf(p*n)
			counts := []int{n, n, n, n}
			before := pr.Wtime()
			if err := c.Gatherv(one, all, counts, 0); err != nil {
				return err
			}
			if err := c.Scatterv(all, counts, one, 0); err != nil {
				return err
			}
			if err := c.Allgatherv(one, all, counts); err != nil {
				return err
			}
			if err := c.Alltoallv(all, counts, buf(p*n), counts); err != nil {
				return err
			}
			if pr.Wtime() <= before {
				return fmt.Errorf("vector collectives advanced no time")
			}
			if pr.Rank() == 0 {
				elapsed = pr.Wtime() - before
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if buf, sized := measure(false), measure(true); buf != sized {
		t.Fatalf("sized timing %v != buffer timing %v", sized, buf)
	}
}
