package pickle

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/mpi"
	"repro/internal/pybuf"
)

func TestHostRoundTrip(t *testing.T) {
	costs := DefaultCosts()
	for _, tc := range []struct {
		lib   pybuf.Library
		dt    mpi.DType
		count int
	}{
		{pybuf.Bytearray, mpi.Uint8, 100},
		{pybuf.NumPy, mpi.Float64, 33},
		{pybuf.NumPy, mpi.Int32, 0},
	} {
		in, err := pybuf.New(tc.lib, nil, tc.dt, tc.count)
		if err != nil {
			t.Fatal(err)
		}
		pybuf.FillPattern(in, 7)
		frame, dCost, err := Dumps(nil, in, costs)
		if err != nil {
			t.Fatal(err)
		}
		if dCost <= 0 {
			t.Error("dumps must cost time")
		}
		if len(frame) != FrameSize(in.NBytes()) {
			t.Errorf("frame %d bytes, want %d", len(frame), FrameSize(in.NBytes()))
		}
		out, lCost, err := Loads(frame, nil, costs)
		if err != nil {
			t.Fatal(err)
		}
		if lCost <= 0 {
			t.Error("loads must cost time")
		}
		if out.Library() != tc.lib || out.DType() != tc.dt || out.Count() != tc.count {
			t.Errorf("metadata lost: %v %v %d", out.Library(), out.DType(), out.Count())
		}
		if !pybuf.Equal(in, out) {
			t.Error("payload corrupted")
		}
	}
}

func TestGPURoundTripIncludesCopies(t *testing.T) {
	gpu := device.NewGPU(0, 0)
	costs := DefaultCosts()
	in, err := pybuf.NewGPUArray(pybuf.CuPy, gpu, mpi.Float64, 128)
	if err != nil {
		t.Fatal(err)
	}
	pybuf.FillPattern(in, 9)
	frame, dCost, err := Dumps(nil, in, costs)
	if err != nil {
		t.Fatal(err)
	}
	// The D2H copy alpha alone exceeds the serializer's base cost.
	if float64(dCost) < 9.0 {
		t.Errorf("dumps of a GPU buffer should include the D2H copy, cost %v", dCost)
	}
	out, lCost, err := Loads(frame, gpu, costs)
	if err != nil {
		t.Fatal(err)
	}
	if float64(lCost) < 9.0 {
		t.Errorf("loads of a GPU buffer should include the H2D copy, cost %v", lCost)
	}
	if !pybuf.Equal(in, out) {
		t.Error("GPU payload corrupted")
	}
	if _, _, err := Loads(frame, nil, costs); err == nil {
		t.Error("loading a GPU frame without a GPU must fail")
	}
}

func TestCostCliff(t *testing.T) {
	costs := DefaultCosts()
	below := costs.call(costs.CliffBytes)
	above := costs.call(2 * costs.CliffBytes)
	linear := below + (below - costs.call(0)) // what pure linearity would give
	if above <= linear {
		t.Errorf("cost past the cliff (%v) should exceed the linear projection (%v, below=%v)",
			above, linear, below)
	}
}

func TestCostMonotoneProperty(t *testing.T) {
	costs := DefaultCosts()
	prop := func(a, b uint32) bool {
		na, nb := int(a%(8<<20)), int(b%(8<<20))
		if na > nb {
			na, nb = nb, na
		}
		return costs.call(na) <= costs.call(nb)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMalformedFrames(t *testing.T) {
	costs := DefaultCosts()
	good, _, err := Dumps(nil, pybuf.NewNumPy(mpi.Float64, 4), costs)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"short":        good[:8],
		"bad magic":    append([]byte("XXXX"), good[4:]...),
		"bad version":  mutate(good, 4, 99),
		"bad library":  mutate(good, 5, 200),
		"bad dtype":    mutate(good, 6, 200),
		"bad reserved": mutate(good, 7, 1),
		"truncated":    good[:len(good)-8],
		// Counts whose byte size overflows int: 2^61+1 float64s wrap to 8
		// bytes (which this 24-byte frame holds), 2^61 float32s to a
		// negative length.
		"count overflow float64": forged(pybuf.NumPy, mpi.Float64, 1<<61+1, 8),
		"count overflow float32": forged(pybuf.NumPy, mpi.Float32, 1<<61, 8),
	}
	for name, frame := range cases {
		if _, _, err := Loads(frame, nil, costs); err == nil {
			t.Errorf("%s frame should fail to load", name)
		}
	}
	// Header accessor agrees with Dumps.
	lib, dt, count, err := Header(good)
	if err != nil {
		t.Fatal(err)
	}
	if lib != pybuf.NumPy || dt != mpi.Float64 || count != 4 {
		t.Errorf("header %v %v %d", lib, dt, count)
	}
}

// forged builds a frame whose header claims count elements of dt but which
// carries payload zero bytes.
func forged(lib pybuf.Library, dt mpi.DType, count uint64, payload int) []byte {
	frame := make([]byte, FrameSize(payload))
	copy(frame, magic[:])
	frame[4], frame[5], frame[6] = version, byte(lib), byte(dt)
	binary.LittleEndian.PutUint64(frame[8:], count)
	return frame
}

func mutate(in []byte, at int, v byte) []byte {
	out := bytes.Clone(in)
	out[at] = v
	return out
}

func TestFrameSizeInverse(t *testing.T) {
	for _, n := range []int{0, 1, 4096, 1 << 20} {
		if PayloadSize(FrameSize(n)) != n {
			t.Errorf("FrameSize/PayloadSize not inverse at %d", n)
		}
	}
}

// TestHostLoadsAliasesFrame pins the zero-copy contract: a host object is
// a view of the frame's payload, capped at the payload so it cannot grow
// into whatever follows it in the frame.
func TestHostLoadsAliasesFrame(t *testing.T) {
	in := pybuf.NewNumPy(mpi.Int32, 6)
	pybuf.FillPattern(in, 3)
	frame, _, err := Dumps(nil, in, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	frame = append(frame, 0xee)
	out, _, err := Loads(frame, nil, DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	if raw := out.Raw(); len(raw) != in.NBytes() || cap(raw) != in.NBytes() {
		t.Fatalf("object len %d cap %d, want both %d", len(raw), cap(raw), in.NBytes())
	}
	frame[FrameSize(0)] ^= 0xff
	if out.Raw()[0] != frame[FrameSize(0)] {
		t.Error("a host object must alias its frame's payload")
	}
}

// TestDumpsIntoReusedStorage pins that a frame written over older storage
// (a longer frame, or one of another library and dtype) is byte-identical
// to a fresh one, header reserved byte included, and that storage with
// enough capacity is reused rather than reallocated.
func TestDumpsIntoReusedStorage(t *testing.T) {
	costs := DefaultCosts()
	gpu := device.NewGPU(0, 0)
	long, err := pybuf.New(pybuf.NumPy, nil, mpi.Float64, 64)
	if err != nil {
		t.Fatal(err)
	}
	pybuf.FillPattern(long, 5)
	dev, err := pybuf.New(pybuf.Numba, gpu, mpi.Int64, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.(pybuf.DeviceBuffer).Free()
	pybuf.FillPattern(dev, 6)
	for _, older := range []pybuf.Buffer{long, dev} {
		for _, tc := range []struct {
			lib   pybuf.Library
			dt    mpi.DType
			count int
		}{
			{pybuf.Bytearray, mpi.Uint8, 37},
			{pybuf.NumPy, mpi.Float32, 11},
			{pybuf.CuPy, mpi.Int32, 5},
			{pybuf.NumPy, mpi.Int64, 0},
		} {
			in, err := pybuf.New(tc.lib, gpu, tc.dt, tc.count)
			if err != nil {
				t.Fatal(err)
			}
			pybuf.FillPattern(in, tc.count)
			want, wantCost, err := Dumps(nil, in, costs)
			if err != nil {
				t.Fatal(err)
			}
			storage, _, err := Dumps(make([]byte, 0, 1024), older, costs)
			if err != nil {
				t.Fatal(err)
			}
			storage[7] = 0xaa // a stale reserved byte must not survive
			got, gotCost, err := Dumps(storage, in, costs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || gotCost != wantCost {
				t.Errorf("%v %v over a %v frame: reused frame differs from a fresh one", tc.lib, tc.dt, older.Library())
			}
			if &got[0] != &storage[:1][0] {
				t.Errorf("%v %v: Dumps reallocated storage with capacity %d", tc.lib, tc.dt, cap(storage))
			}
			if db, ok := in.(pybuf.DeviceBuffer); ok {
				db.Free()
			}
		}
	}
	if small, _, err := Dumps(make([]byte, 4), long, costs); err != nil || len(small) != FrameSize(long.NBytes()) {
		t.Errorf("Dumps into too-small storage: %d bytes, %v", len(small), err)
	}
}
