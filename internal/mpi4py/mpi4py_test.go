package mpi4py

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/pybuf"
	"repro/internal/topology"
	"repro/internal/vtime"
)

// pyWorld builds a PyMode world of n ranks on Frontera.
func pyWorld(t *testing.T, n, ppn int) *mpi.World {
	t.Helper()
	place, err := topology.NewPlacement(&topology.Frontera, n, ppn, topology.Block, false)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(mpi.Config{
		Placement: place,
		Model:     netmodel.MustNew(&topology.Frontera, netmodel.MVAPICH2),
		PyMode:    true,
		CarryData: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWrapRequiresPyMode(t *testing.T) {
	place, _ := topology.NewPlacement(&topology.Frontera, 2, 2, topology.Block, false)
	w, err := mpi.NewWorld(mpi.Config{
		Placement: place,
		Model:     netmodel.MustNew(&topology.Frontera, netmodel.MVAPICH2),
		CarryData: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		if _, err := Wrap(p.CommWorld()); err == nil {
			return errors.New("Wrap should fail on a non-PyMode world")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvBuffers(t *testing.T) {
	w := pyWorld(t, 2, 2)
	err := w.Run(func(p *mpi.Proc) error {
		c, err := Wrap(p.CommWorld())
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			buf := pybuf.NewNumPy(mpi.Float64, 16)
			for i := 0; i < 16; i++ {
				pybuf.SetFloat64(buf, i, float64(i)*2)
			}
			return c.Send(buf, 1, 5)
		}
		buf := pybuf.NewNumPy(mpi.Float64, 16)
		st, err := c.Recv(buf, 0, 5)
		if err != nil {
			return err
		}
		if st.Count != 128 {
			return fmt.Errorf("status count %d", st.Count)
		}
		for i := 0; i < 16; i++ {
			if got := pybuf.GetFloat64(buf, i); got != float64(i)*2 {
				return fmt.Errorf("elem %d = %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStagingChargesTime(t *testing.T) {
	w := pyWorld(t, 2, 2)
	err := w.Run(func(p *mpi.Proc) error {
		c, err := Wrap(p.CommWorld())
		if err != nil {
			return err
		}
		before := p.Wtime()
		buf := pybuf.NewNumPy(mpi.Float64, 4)
		if p.Rank() == 0 {
			if err := c.Send(buf, 1, 1); err != nil {
				return err
			}
		} else {
			if _, err := c.Recv(buf, 0, 1); err != nil {
				return err
			}
		}
		sp := profile(pybuf.NumPy, PtPt)
		min := sp.Misc // every call charges at least misc + one prep
		if p.Wtime()-before < min {
			return fmt.Errorf("staging did not advance the clock: %v", p.Wtime()-before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProfilerAttribution(t *testing.T) {
	prof := NewProfiler()
	w := pyWorld(t, 4, 4)
	err := w.Run(func(p *mpi.Proc) error {
		c, err := Wrap(p.CommWorld(), WithProfiler(prof))
		if err != nil {
			return err
		}
		s := pybuf.NewNumPy(mpi.Float64, 8)
		r := pybuf.NewNumPy(mpi.Float64, 8)
		return c.Allreduce(s, r, mpi.OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := prof.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot entries: %d", len(snap))
	}
	b := snap[0]
	if b.Library != pybuf.NumPy || b.Bytes != 64 {
		t.Errorf("breakdown key %v/%d", b.Library, b.Bytes)
	}
	sp := profile(pybuf.NumPy, Collective)
	if got := b.PerPhase[PhaseSendPrep]; got != sp.SendPrep {
		t.Errorf("send-prep %v, want %v", got, sp.SendPrep)
	}
	if got := b.PerPhase[PhaseRecvPrep]; got != sp.RecvPrep {
		t.Errorf("recv-prep %v, want %v", got, sp.RecvPrep)
	}
	if b.Total() <= 0 || b.Fraction(PhaseRecvPrep) <= 0 {
		t.Error("breakdown totals wrong")
	}
	prof.Reset()
	if len(prof.Snapshot()) != 0 {
		t.Error("Reset should clear samples")
	}
}

func TestGPUNumbaCostlierThanCuPy(t *testing.T) {
	// Direct staging comparison without a full benchmark run.
	for _, class := range []OpClass{PtPt, Collective} {
		cupy := profile(pybuf.CuPy, class)
		numba := profile(pybuf.Numba, class)
		cTot := cupy.Misc + cupy.SendPrep + cupy.RecvPrep
		nTot := numba.Misc + numba.SendPrep + numba.RecvPrep
		if nTot <= cTot {
			t.Errorf("class %v: Numba staging %v should exceed CuPy %v", class, nTot, cTot)
		}
	}
}

func TestCAIResolutionPath(t *testing.T) {
	place, err := topology.NewPlacement(&topology.Bridges2, 2, 2, topology.Block, true)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(mpi.Config{
		Placement: place,
		Model:     netmodel.MustNew(&topology.Bridges2, netmodel.MVAPICH2),
		PyMode:    true,
		CarryData: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		gpu := device.NewGPU(p.Rank(), 0)
		reg := device.NewRegistry([]*device.GPU{gpu})
		c, err := Wrap(p.CommWorld(), WithRegistry(reg))
		if err != nil {
			return err
		}
		buf, err := pybuf.NewGPUArray(pybuf.CuPy, gpu, mpi.Float32, 32)
		if err != nil {
			return err
		}
		defer buf.Free()
		if p.Rank() == 0 {
			pybuf.FillPattern(buf, 11)
			return c.Send(buf, 1, 9)
		}
		if _, err := c.Recv(buf, 0, 9); err != nil {
			return err
		}
		want, _ := pybuf.NewGPUArray(pybuf.CuPy, gpu, mpi.Float32, 32)
		defer want.Free()
		pybuf.FillPattern(want, 11)
		if !pybuf.Equal(buf, want) {
			return errors.New("GPU payload corrupted through CAI path")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestObjectRoundTripAndCost(t *testing.T) {
	w := pyWorld(t, 2, 2)
	err := w.Run(func(p *mpi.Proc) error {
		c, err := Wrap(p.CommWorld())
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			arr := pybuf.NewNumPy(mpi.Int32, 5)
			copy(arr.Raw(), mpi.EncodeInt32s([]int32{1, -2, 3, -4, 5}))
			return c.SendObject(arr, 1, 2)
		}
		before := p.Wtime()
		obj, st, err := c.RecvObject(nil, 0, 2, nil)
		if err != nil {
			return err
		}
		if st.Count <= 20 { // frame > payload
			return fmt.Errorf("frame size %d", st.Count)
		}
		got := mpi.DecodeInt32s(obj.Raw())
		for i, want := range []int32{1, -2, 3, -4, 5} {
			if got[i] != want {
				return fmt.Errorf("elem %d = %d", i, got[i])
			}
		}
		if p.Wtime() == before {
			return errors.New("unpickling should cost time")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastObject(t *testing.T) {
	w := pyWorld(t, 5, 5)
	err := w.Run(func(p *mpi.Proc) error {
		c, err := Wrap(p.CommWorld())
		if err != nil {
			return err
		}
		var in pybuf.Buffer
		if p.Rank() == 2 {
			in = pybuf.NewNumPy(mpi.Float64, 3)
			for i := 0; i < 3; i++ {
				pybuf.SetFloat64(in, i, float64(i)+0.5)
			}
		}
		out, err := c.BcastObject(in, 2, nil)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if got := pybuf.GetFloat64(out, i); got != float64(i)+0.5 {
				return fmt.Errorf("rank %d elem %d = %v", p.Rank(), i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceObject(t *testing.T) {
	const p = 6
	w := pyWorld(t, p, 6)
	err := w.Run(func(pr *mpi.Proc) error {
		c, err := Wrap(pr.CommWorld())
		if err != nil {
			return err
		}
		in := pybuf.NewNumPy(mpi.Float64, 4)
		for i := 0; i < 4; i++ {
			pybuf.SetFloat64(in, i, float64(pr.Rank()+1))
		}
		out, err := c.AllreduceObject(in, mpi.OpSum, nil)
		if err != nil {
			return err
		}
		want := float64(p*(p+1)) / 2
		for i := 0; i < 4; i++ {
			if got := pybuf.GetFloat64(out, i); got != want {
				return fmt.Errorf("rank %d elem %d = %v, want %v", pr.Rank(), i, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpecMatchesBufferTiming(t *testing.T) {
	// An allreduce over storage-less pybuf.Sized buffers must cost exactly
	// what the one over real buffers does (same staging, same schedule).
	measure := func(sized bool) vtime.Micros {
		w := pyWorld(t, 4, 4)
		var elapsed vtime.Micros
		err := w.Run(func(p *mpi.Proc) error {
			c, err := Wrap(p.CommWorld())
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			start := p.Wtime()
			s, r := pybuf.NewNumPy(mpi.Float64, 128), pybuf.NewNumPy(mpi.Float64, 128)
			if sized {
				s, r = pybuf.Sized(pybuf.NumPy, mpi.Float64, 128), pybuf.Sized(pybuf.NumPy, mpi.Float64, 128)
			}
			if err := c.Allreduce(s, r, mpi.OpSum); err != nil {
				return err
			}
			if p.Rank() == 0 {
				elapsed = p.Wtime() - start
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

// TestAlltoallNeedsEqualBlocks pins that Alltoall refuses a send buffer
// that does not split into one equal block per rank, real or sized, since
// it passes the runtime an explicit block size.
func TestAlltoallNeedsEqualBlocks(t *testing.T) {
	const p = 4
	for _, sized := range []bool{false, true} {
		w := pyWorld(t, p, p)
		err := w.Run(func(pr *mpi.Proc) error {
			c, err := Wrap(pr.CommWorld())
			if err != nil {
				return err
			}
			s, r := pybuf.NewNumPy(mpi.Uint8, 4*p+2), pybuf.NewNumPy(mpi.Uint8, 4*p+2)
			if sized {
				s, r = pybuf.Sized(pybuf.NumPy, mpi.Uint8, 4*p+2), pybuf.Sized(pybuf.NumPy, mpi.Uint8, 4*p+2)
			}
			err = c.Alltoall(s, r)
			if err == nil || !strings.Contains(err.Error(), "not divisible by 4 ranks") {
				return fmt.Errorf("rank %d: Alltoall of %d bytes = %v, want a divisibility error", pr.Rank(), s.NBytes(), err)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("sized=%v: %v", sized, err)
		}
	}
}

func TestPhaseAndClassStrings(t *testing.T) {
	if PhaseMisc.String() != "misc" || PhaseSendPrep.String() != "send-prep" || PhaseRecvPrep.String() != "recv-prep" {
		t.Error("phase strings wrong")
	}
}
