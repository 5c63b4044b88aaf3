package pybuf

import (
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/mpi"
)

func TestParseLibrary(t *testing.T) {
	for _, name := range []string{"bytearray", "numpy", "cupy", "pycuda", "numba"} {
		lib, err := ParseLibrary(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lib.String() != name {
			t.Errorf("round trip %q -> %q", name, lib.String())
		}
	}
	if _, err := ParseLibrary("torch"); err == nil {
		t.Error("unknown library should fail")
	}
}

func TestOnGPU(t *testing.T) {
	gpuSet := map[Library]bool{CuPy: true, PyCUDA: true, Numba: true}
	for _, lib := range Libraries() {
		if lib.OnGPU() != gpuSet[lib] {
			t.Errorf("%v.OnGPU() = %v", lib, lib.OnGPU())
		}
	}
	if len(GPULibraries()) != 3 {
		t.Error("three GPU libraries expected")
	}
}

func TestHostBuffers(t *testing.T) {
	ba := NewBytearrayBuf(32)
	if ba.Library() != Bytearray || ba.DType() != mpi.Uint8 || ba.NBytes() != 32 || ba.Count() != 32 {
		t.Errorf("bytearray %v %v %d %d", ba.Library(), ba.DType(), ba.NBytes(), ba.Count())
	}
	np := NewNumPy(mpi.Float64, 10)
	if np.Library() != NumPy || np.NBytes() != 80 || np.Count() != 10 {
		t.Errorf("numpy %v %d %d", np.Library(), np.NBytes(), np.Count())
	}
	// Raw aliases the storage.
	np.Raw()[0] = 0xff
	if np.Raw()[0] != 0xff {
		t.Error("Raw must alias the buffer")
	}
}

func TestGPUBuffersAndCAI(t *testing.T) {
	gpu := device.NewGPU(0, 0)
	for _, lib := range GPULibraries() {
		b, err := NewGPUArray(lib, gpu, mpi.Float32, 16)
		if err != nil {
			t.Fatalf("%v: %v", lib, err)
		}
		if b.Library() != lib || b.NBytes() != 64 {
			t.Errorf("%v: %d bytes", lib, b.NBytes())
		}
		ai := b.CAI()
		if ai.Typestr != "<f4" || ai.Shape[0] != 16 || ai.Data == 0 {
			t.Errorf("%v CAI %+v", lib, ai)
		}
		if b.Alloc().Ptr() != ai.Data {
			t.Error("CAI pointer must match the allocation")
		}
		if err := b.Free(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewGPUArray(NumPy, gpu, mpi.Float32, 1); err == nil {
		t.Error("NumPy is not a GPU library")
	}
}

func TestNewDispatch(t *testing.T) {
	gpu := device.NewGPU(0, 0)
	if _, err := New(Bytearray, nil, mpi.Float64, 4); err == nil {
		t.Error("bytearray must be uint8")
	}
	if _, err := New(CuPy, nil, mpi.Float64, 4); err == nil {
		t.Error("GPU library without GPU must fail")
	}
	b, err := New(CuPy, gpu, mpi.Float64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(DeviceBuffer); !ok {
		t.Error("CuPy buffer should implement DeviceBuffer")
	}
	h, err := New(NumPy, nil, mpi.Int32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.(DeviceBuffer); ok {
		t.Error("NumPy buffer is not a DeviceBuffer")
	}
}

func TestView(t *testing.T) {
	data := make([]byte, 24)
	v, err := View(NumPy, mpi.Float64, data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Library() != NumPy || v.DType() != mpi.Float64 || v.Count() != 3 || v.NBytes() != 24 {
		t.Errorf("view %v %v %d %d", v.Library(), v.DType(), v.Count(), v.NBytes())
	}
	data[0] = 0x7f
	if v.Raw()[0] != 0x7f {
		t.Error("a view must alias its bytes")
	}
	for name, err := range map[string]error{
		"GPU library":     func() error { _, err := View(CuPy, mpi.Float64, data); return err }(),
		"bytearray dtype": func() error { _, err := View(Bytearray, mpi.Int32, data); return err }(),
		"partial element": func() error { _, err := View(NumPy, mpi.Float64, data[:20]); return err }(),
		"unknown library": func() error { _, err := View(Library(9), mpi.Uint8, data); return err }(),
	} {
		if err == nil {
			t.Errorf("%s: View should fail", name)
		}
	}
}

func TestTypestrRoundTrip(t *testing.T) {
	for _, dt := range []mpi.DType{mpi.Uint8, mpi.Int32, mpi.Int64, mpi.Float32, mpi.Float64} {
		ts := typestr(dt)
		back, err := DTypeFromTypestr(ts)
		if err != nil {
			t.Fatalf("%v: %v", dt, err)
		}
		if back != dt {
			t.Errorf("%v -> %q -> %v", dt, ts, back)
		}
	}
	if _, err := DTypeFromTypestr("<c16"); err == nil {
		t.Error("unknown typestr should fail")
	}
}

func TestFillPatternAndEqual(t *testing.T) {
	a := NewNumPy(mpi.Uint8, 64)
	b := NewNumPy(mpi.Uint8, 64)
	FillPattern(a, 3)
	FillPattern(b, 3)
	if !Equal(a, b) {
		t.Error("same seed should be equal")
	}
	FillPattern(b, 4)
	if Equal(a, b) {
		t.Error("different seeds should differ")
	}
	if Equal(a, NewNumPy(mpi.Uint8, 32)) {
		t.Error("different lengths are not equal")
	}
}

// TestFillPatternMatchesFormula pins the period-copy fill to the per-byte
// formula it replaces, at lengths around one and two periods and with
// negative seeds (a negative-residue prefix of varying length) included.
func TestFillPatternMatchesFormula(t *testing.T) {
	for _, seed := range []int{-1000, -5, -3, -1, 0, 1, 7, 250, 251} {
		for _, n := range []int{0, 1, 250, 251, 252, 502, 503, 100000} {
			b := NewBytearrayBuf(n)
			FillPattern(b, seed)
			for i, got := range b.Raw() {
				if want := byte((seed*131 + i*7 + 13) % 251); got != want {
					t.Fatalf("seed %d len %d: byte %d = %d, want %d", seed, n, i, got, want)
				}
			}
		}
	}
}

func TestFloat64Accessors(t *testing.T) {
	b := NewNumPy(mpi.Float64, 8)
	prop := func(i uint8, v float64) bool {
		idx := int(i) % 8
		SetFloat64(b, idx, v)
		return GetFloat64(b, idx) == v || v != v // NaN compares false
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64AccessorsPanicOnWrongDType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SetFloat64(NewNumPy(mpi.Int32, 4), 0, 1)
}
