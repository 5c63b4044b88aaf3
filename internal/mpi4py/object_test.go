package mpi4py

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/mpi"
	"repro/internal/pybuf"
)

// TestObjectCollectivesFreeDeviceMemory pins that the object collectives
// release every intermediate device object: once the caller frees the
// result it was handed, each rank's device usage is back at its baseline,
// for every GPU library.
func TestObjectCollectivesFreeDeviceMemory(t *testing.T) {
	const p, count = 4, 1024
	for _, lib := range pybuf.GPULibraries() {
		t.Run(lib.String(), func(t *testing.T) {
			w := pyWorld(t, p, p)
			err := w.Run(func(pr *mpi.Proc) error {
				c, err := Wrap(pr.CommWorld())
				if err != nil {
					return err
				}
				gpu := device.NewGPU(pr.Rank(), 0)
				in, err := pybuf.NewGPUArray(lib, gpu, mpi.Float32, count)
				if err != nil {
					return err
				}
				defer in.Free()
				pybuf.FillPattern(in, pr.Rank())
				baseline := gpu.MemUsed()
				check := func(op string, out pybuf.Buffer) error {
					if out != in {
						if err := out.(pybuf.DeviceBuffer).Free(); err != nil {
							return err
						}
					}
					if used := gpu.MemUsed(); used != baseline {
						return fmt.Errorf("rank %d: %d device bytes in use after %s, baseline %d", pr.Rank(), used, op, baseline)
					}
					return nil
				}
				out, err := c.AllreduceObject(in, mpi.OpSum, gpu)
				if err != nil {
					return err
				}
				if err := check("AllreduceObject", out); err != nil {
					return err
				}
				var root pybuf.Buffer
				if pr.Rank() == 1 {
					root = in
				}
				if out, err = c.BcastObject(root, 1, gpu); err != nil {
					return err
				}
				return check("BcastObject", out)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHostObjectsSurviveLaterSends pins the aliasing rule of the object
// path: a host object returned by RecvObject(nil, ...) or by a non-root
// BcastObject aliases a frame nobody else writes, so it keeps its bytes
// while the same communicators go on pickling and sending other objects
// through their reused send frames. Rounds alternate eager and rendezvous
// sizes.
func TestHostObjectsSurviveLaterSends(t *testing.T) {
	w := pyWorld(t, 3, 3)
	err := w.Run(func(pr *mpi.Proc) error {
		c, err := Wrap(pr.CommWorld())
		if err != nil {
			return err
		}
		object := func(round, seed int) pybuf.Buffer {
			count := 512 // 4 KiB: eager
			if round%2 == 1 {
				count = 64 << 10 // 512 KiB: rendezvous
			}
			b := pybuf.NewNumPy(mpi.Float64, count)
			pybuf.FillPattern(b, 10*round+seed)
			return b
		}
		var held, want []pybuf.Buffer
		for round := 0; round < 4; round++ {
			// A chain 0 -> 1 -> 2: rank 1 receives, then sends on the
			// same communicator.
			if rank := pr.Rank(); rank < 2 {
				if err := c.SendObject(object(round, rank), rank+1, round); err != nil {
					return err
				}
			}
			if rank := pr.Rank(); rank > 0 {
				obj, _, err := c.RecvObject(nil, rank-1, round, nil)
				if err != nil {
					return err
				}
				held, want = append(held, obj), append(want, object(round, rank-1))
			}
			var root pybuf.Buffer
			if pr.Rank() == 0 {
				root = object(round, 5)
			}
			obj, err := c.BcastObject(root, 0, nil)
			if err != nil {
				return err
			}
			if pr.Rank() != 0 {
				held, want = append(held, obj), append(want, object(round, 5))
			}
		}
		for i, obj := range held {
			if !pybuf.Equal(obj, want[i]) {
				return fmt.Errorf("rank %d: object %d changed after later sends", pr.Rank(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
