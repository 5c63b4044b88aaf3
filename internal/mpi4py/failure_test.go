package mpi4py

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/pickle"
	"repro/internal/pybuf"
	"repro/internal/topology"
	"repro/internal/vtime"
)

// dumpsForTest pickles a buffer with the communicator's cost model.
func dumpsForTest(b pybuf.Buffer, c *Comm) ([]byte, vtime.Micros, error) {
	return pickle.Dumps(nil, b, c.pickleCosts)
}

// Failure injection: the binding layer must surface substrate failures
// (freed device memory, exhausted GPUs, corrupted pickle frames) as errors
// on the offending rank without wedging the world.

func TestSendFreedGPUBufferFails(t *testing.T) {
	place, err := topology.NewPlacement(&topology.Bridges2, 2, 2, topology.Block, true)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(mpi.Config{
		Placement: place,
		Model:     netmodel.MustNew(&topology.Bridges2, netmodel.MVAPICH2),
		PyMode:    true, CarryData: true,
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
		if p.Rank() != 0 {
			return nil // rank 0 fails before any traffic; no one blocks
		}
		buf, err := pybuf.NewGPUArray(pybuf.CuPy, gpu, mpi.Float32, 8)
		if err != nil {
			return err
		}
		if err := buf.Free(); err != nil {
			return err
		}
		// The CAI pointer now dangles; staging must fail cleanly.
		sendErr := c.Send(buf, 1, 1)
		if sendErr == nil {
			return errors.New("Send of a freed GPU buffer should fail")
		}
		if !strings.Contains(sendErr.Error(), "CAI") {
			return errors.New("error should identify the CAI resolution: " + sendErr.Error())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGPUExhaustionSurfacesAsError(t *testing.T) {
	gpu := device.NewGPU(0, 1024) // 1 KiB device
	if _, err := pybuf.NewGPUArray(pybuf.CuPy, gpu, mpi.Float64, 64); err != nil {
		t.Fatalf("first allocation should fit: %v", err)
	}
	_, err := pybuf.NewGPUArray(pybuf.Numba, gpu, mpi.Float64, 128)
	var oom *device.ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
}

func TestRecvObjectRejectsGarbageFrame(t *testing.T) {
	w := pyWorld(t, 2, 2)
	err := w.Run(func(p *mpi.Proc) error {
		c, err := Wrap(p.CommWorld())
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			// Raw bytes that are not a pickle frame.
			return c.raw.Send([]byte("definitely not a frame"), 1, 3)
		}
		if _, _, err := c.RecvObject(nil, 0, 3, nil); err == nil {
			return errors.New("garbage frame should fail to unpickle")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedObjectFrameFails(t *testing.T) {
	w := pyWorld(t, 2, 2)
	err := w.Run(func(p *mpi.Proc) error {
		c, err := Wrap(p.CommWorld())
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			// A frame whose header promises more payload than it carries.
			buf := pybuf.NewNumPy(mpi.Float64, 8)
			frame, _, err := dumpsForTest(buf, c)
			if err != nil {
				return err
			}
			return c.raw.Send(frame[:len(frame)-16], 1, 4)
		}
		if _, _, err := c.RecvObject(nil, 0, 4, nil); err == nil {
			return errors.New("truncated frame should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
