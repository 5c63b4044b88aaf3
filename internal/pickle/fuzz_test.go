package pickle

import (
	"bytes"
	"testing"

	"repro/internal/device"
	"repro/internal/mpi"
	"repro/internal/pybuf"
)

// FuzzLoads feeds arbitrary frames to Loads. It must never panic, and an
// accepted object must be self-consistent (NBytes is Count elements of its
// DType) and pickle back to exactly the frame prefix it was read from.
// GPU-library frames load onto a small device, so forged counts fail as
// allocations instead of exhausting host memory. The committed corpus
// (testdata/fuzz/FuzzLoads) holds the count-overflow frames.
func FuzzLoads(f *testing.F) {
	costs := DefaultCosts()
	for _, tc := range []struct {
		lib   pybuf.Library
		dt    mpi.DType
		count int
	}{
		{pybuf.Bytearray, mpi.Uint8, 5},
		{pybuf.NumPy, mpi.Float64, 3},
		{pybuf.NumPy, mpi.Int32, 0},
		{pybuf.CuPy, mpi.Float32, 2},
	} {
		gpu := device.NewGPU(0, 0)
		in, err := pybuf.New(tc.lib, gpu, tc.dt, tc.count)
		if err != nil {
			f.Fatal(err)
		}
		pybuf.FillPattern(in, tc.count)
		frame, _, err := Dumps(nil, in, costs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		gpu := device.NewGPU(0, 1<<16)
		obj, _, err := Loads(frame, gpu, costs)
		if err != nil {
			return
		}
		if obj.NBytes() != obj.Count()*obj.DType().Size() {
			t.Fatalf("object of %d %v elements holds %d bytes", obj.Count(), obj.DType(), obj.NBytes())
		}
		n := obj.NBytes()
		again, _, err := Dumps(nil, obj, costs)
		if err != nil {
			t.Fatalf("re-pickling an accepted object: %v", err)
		}
		if !bytes.Equal(again, frame[:FrameSize(n)]) {
			t.Fatalf("re-pickled frame\n%x\ndiffers from the accepted prefix\n%x", again, frame[:FrameSize(n)])
		}
		if db, ok := obj.(pybuf.DeviceBuffer); ok {
			if err := db.Free(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
