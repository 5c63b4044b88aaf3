// Package pybuf implements the Python buffer libraries the paper benchmarks
// as mpi4py communication buffers: built-in bytearrays, NumPy arrays on the
// host, and the three GPU-aware array libraries (CuPy, PyCUDA, Numba) that
// expose device memory through the CUDA Array Interface. Buffers are real:
// host buffers are byte slices, GPU buffers own simulated device
// allocations, and the binding layer extracts raw storage exactly the way
// mpi4py's Cython staging phase does. The one exception is Sized, a buffer
// of a given size without storage, for timing-only runs.
package pybuf

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/mpi"
)

// Library identifies the Python library providing a buffer.
type Library int

// The buffer libraries of the paper's Table I.
const (
	Bytearray Library = iota
	NumPy
	CuPy
	PyCUDA
	Numba
)

// String implements fmt.Stringer.
func (l Library) String() string {
	switch l {
	case Bytearray:
		return "bytearray"
	case NumPy:
		return "numpy"
	case CuPy:
		return "cupy"
	case PyCUDA:
		return "pycuda"
	case Numba:
		return "numba"
	default:
		return fmt.Sprintf("Library(%d)", int(l))
	}
}

// ParseLibrary resolves a library by name.
func ParseLibrary(s string) (Library, error) {
	switch s {
	case "bytearray":
		return Bytearray, nil
	case "numpy":
		return NumPy, nil
	case "cupy":
		return CuPy, nil
	case "pycuda":
		return PyCUDA, nil
	case "numba":
		return Numba, nil
	default:
		return 0, fmt.Errorf("pybuf: unknown buffer library %q", s)
	}
}

// MarshalText implements encoding.TextMarshaler with the String name.
func (l Library) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler through ParseLibrary;
// the empty string is Bytearray, the zero value, as an omitted buffer is.
func (l *Library) UnmarshalText(text []byte) (err error) {
	*l = Bytearray
	if len(text) > 0 {
		*l, err = ParseLibrary(string(text))
	}
	return err
}

// OnGPU reports whether the library holds device memory.
func (l Library) OnGPU() bool { return l == CuPy || l == PyCUDA || l == Numba }

// Libraries lists all supported libraries in declaration order.
func Libraries() []Library { return []Library{Bytearray, NumPy, CuPy, PyCUDA, Numba} }

// GPULibraries lists the GPU-aware libraries.
func GPULibraries() []Library { return []Library{CuPy, PyCUDA, Numba} }

// Buffer is the common interface of all communication buffers.
type Buffer interface {
	// Library identifies the providing library.
	Library() Library
	// DType is the element type.
	DType() mpi.DType
	// Count is the number of elements.
	Count() int
	// NBytes is the total size in bytes.
	NBytes() int
	// Raw exposes the backing storage the binding layer hands to MPI:
	// host memory for CPU buffers, device memory (CUDA-aware path) for GPU
	// buffers. Mutating it mutates the buffer.
	Raw() []byte
}

// DeviceBuffer is implemented by GPU-resident buffers.
type DeviceBuffer interface {
	Buffer
	// CAI returns the CUDA Array Interface descriptor (the attribute
	// mpi4py reads to obtain the device pointer).
	CAI() device.ArrayInterface
	// Alloc returns the underlying device allocation.
	Alloc() *device.Allocation
	// Free releases the device memory.
	Free() error
}

// typestr renders a dtype as a CAI/NumPy type string.
func typestr(dt mpi.DType) string {
	switch dt {
	case mpi.Uint8:
		return "|u1"
	case mpi.Int32:
		return "<i4"
	case mpi.Int64:
		return "<i8"
	case mpi.Float32:
		return "<f4"
	case mpi.Float64:
		return "<f8"
	default:
		return "|V1"
	}
}

// DTypeFromTypestr inverts typestr.
func DTypeFromTypestr(ts string) (mpi.DType, error) {
	switch ts {
	case "|u1":
		return mpi.Uint8, nil
	case "<i4":
		return mpi.Int32, nil
	case "<i8":
		return mpi.Int64, nil
	case "<f4":
		return mpi.Float32, nil
	case "<f8":
		return mpi.Float64, nil
	default:
		return 0, fmt.Errorf("pybuf: unknown typestr %q", ts)
	}
}

// hostBuffer backs Bytearray and NumPy, and the storage-less buffers of
// every library that Sized returns.
type hostBuffer struct {
	lib   Library
	dt    mpi.DType
	count int
	data  []byte
}

// NewBytearrayBuf allocates a built-in bytearray of n bytes.
func NewBytearrayBuf(n int) Buffer {
	return &hostBuffer{lib: Bytearray, dt: mpi.Uint8, count: n, data: make([]byte, n)}
}

// NewNumPy allocates a NumPy array of count elements of dt.
func NewNumPy(dt mpi.DType, count int) Buffer {
	return &hostBuffer{lib: NumPy, dt: dt, count: count, data: make([]byte, count*dt.Size())}
}

func (h *hostBuffer) Library() Library { return h.lib }
func (h *hostBuffer) DType() mpi.DType { return h.dt }
func (h *hostBuffer) Count() int       { return h.count }
func (h *hostBuffer) NBytes() int      { return h.count * h.dt.Size() }
func (h *hostBuffer) Raw() []byte      { return h.data }

// Sized returns a buffer of count elements of dt from lib that has no
// storage: Raw is nil, and NBytes is count*dt.Size(). Timing-only runs
// hand these to the binding layer, which stages and sends them through
// the same calls as real buffers while the runtime moves sizes only.
func Sized(lib Library, dt mpi.DType, count int) Buffer {
	return &hostBuffer{lib: lib, dt: dt, count: count}
}

// gpuBuffer backs CuPy, PyCUDA and Numba arrays.
type gpuBuffer struct {
	lib   Library
	dt    mpi.DType
	count int
	alloc *device.Allocation
}

// NewGPUArray allocates a device array of count elements of dt through lib
// (one of CuPy, PyCUDA, Numba) on gpu.
func NewGPUArray(lib Library, gpu *device.GPU, dt mpi.DType, count int) (DeviceBuffer, error) {
	if !lib.OnGPU() {
		return nil, fmt.Errorf("pybuf: %v is not a GPU library", lib)
	}
	alloc, err := gpu.Malloc(count * dt.Size())
	if err != nil {
		return nil, fmt.Errorf("pybuf: %v allocation: %w", lib, err)
	}
	return &gpuBuffer{lib: lib, dt: dt, count: count, alloc: alloc}, nil
}

func (g *gpuBuffer) Library() Library { return g.lib }
func (g *gpuBuffer) DType() mpi.DType { return g.dt }
func (g *gpuBuffer) Count() int       { return g.count }
func (g *gpuBuffer) NBytes() int      { return g.alloc.Size() }
func (g *gpuBuffer) Raw() []byte      { return g.alloc.Bytes() }
func (g *gpuBuffer) Free() error      { return g.alloc.Free() }

func (g *gpuBuffer) Alloc() *device.Allocation { return g.alloc }

func (g *gpuBuffer) CAI() device.ArrayInterface {
	return device.NewArrayInterface(g.alloc, g.count, typestr(g.dt))
}

// New allocates a buffer of count elements of dt from lib; gpu is required
// for the GPU libraries and ignored otherwise.
func New(lib Library, gpu *device.GPU, dt mpi.DType, count int) (Buffer, error) {
	switch lib {
	case Bytearray, NumPy:
		return View(lib, dt, make([]byte, count*dt.Size()))
	case CuPy, PyCUDA, Numba:
		if gpu == nil {
			return nil, fmt.Errorf("pybuf: %v requires a GPU", lib)
		}
		return NewGPUArray(lib, gpu, dt, count)
	default:
		return nil, fmt.Errorf("pybuf: unknown library %v", lib)
	}
}

// View returns a host buffer of lib and dt over data without copying it:
// the buffer aliases data, so writes through either are seen by both.
// lib must be a host library, and data a whole number of dt elements.
func View(lib Library, dt mpi.DType, data []byte) (Buffer, error) {
	switch {
	case lib != Bytearray && lib != NumPy:
		return nil, fmt.Errorf("pybuf: %v is not a host library", lib)
	case lib == Bytearray && dt != mpi.Uint8:
		return nil, fmt.Errorf("pybuf: bytearray buffers are uint8, got %v", dt)
	case len(data)%dt.Size() != 0:
		return nil, fmt.Errorf("pybuf: %d bytes are not a whole number of %v elements", len(data), dt)
	}
	return &hostBuffer{lib: lib, dt: dt, count: len(data) / dt.Size(), data: data}, nil
}

// patternPeriod is the period of FillPattern's byte sequence.
const patternPeriod = 251

// FillPattern writes a deterministic seed-dependent pattern: byte i is
// (seed*131 + 7*i + 13) % 251, with Go's truncated %. Once the sum is
// non-negative the sequence repeats every 251 bytes, so one period is
// computed and then doubled with copy; only the prefix where the sum is
// still negative (a negative seed) takes the formula directly, since its
// residues are negative too and do not repeat.
func FillPattern(b Buffer, seed int) {
	raw := b.Raw()
	x := seed*131 + 13
	i := 0
	for ; i < len(raw) && x < 0; i++ {
		raw[i] = byte(x % patternPeriod)
		x += 7
	}
	period := raw[i:min(len(raw), i+patternPeriod)]
	r := x % patternPeriod
	for j := range period {
		period[j] = byte(r)
		if r += 7; r >= patternPeriod {
			r -= patternPeriod
		}
	}
	for filled := i + len(period); filled < len(raw); {
		filled += copy(raw[filled:], raw[i:filled])
	}
}

// Equal reports whether two buffers hold identical bytes.
func Equal(a, b Buffer) bool {
	ra, rb := a.Raw(), b.Raw()
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// SetFloat64 stores v at element i of a float64 buffer.
func SetFloat64(b Buffer, i int, v float64) {
	if b.DType() != mpi.Float64 {
		panic(fmt.Sprintf("pybuf: SetFloat64 on %v buffer", b.DType()))
	}
	binary.LittleEndian.PutUint64(b.Raw()[8*i:], math.Float64bits(v))
}

// GetFloat64 loads element i of a float64 buffer.
func GetFloat64(b Buffer, i int) float64 {
	if b.DType() != mpi.Float64 {
		panic(fmt.Sprintf("pybuf: GetFloat64 on %v buffer", b.DType()))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b.Raw()[8*i:]))
}
