package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// DType identifies an element datatype for typed collectives and reductions.
type DType int

// Supported datatypes.
const (
	Uint8 DType = iota
	Int32
	Int64
	Float32
	Float64
)

// Size returns the element size in bytes.
func (d DType) Size() int {
	switch d {
	case Uint8:
		return 1
	case Int32, Float32:
		return 4
	case Int64, Float64:
		return 8
	default:
		panic(fmt.Sprintf("mpi: unknown DType(%d)", int(d)))
	}
}

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case Uint8:
		return "uint8"
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	default:
		return fmt.Sprintf("DType(%d)", int(d))
	}
}

// ParseDType resolves a datatype by name.
func ParseDType(s string) (DType, error) {
	switch s {
	case "uint8", "u8", "byte", "char":
		return Uint8, nil
	case "int32", "i32":
		return Int32, nil
	case "int64", "i64":
		return Int64, nil
	case "float32", "f32":
		return Float32, nil
	case "float64", "f64", "double":
		return Float64, nil
	default:
		return 0, fmt.Errorf("mpi: unknown datatype %q", s)
	}
}

// MarshalText implements encoding.TextMarshaler with the String name.
func (d DType) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler through ParseDType; the
// empty string is Uint8, the zero value, as an omitted dtype is.
func (d *DType) UnmarshalText(text []byte) (err error) {
	*d = Uint8
	if len(text) > 0 {
		*d, err = ParseDType(string(text))
	}
	return err
}

// Op identifies a reduction operation.
type Op int

// Supported reduction operations.
const (
	OpSum Op = iota
	OpProd
	OpMin
	OpMax
	OpBAnd
	OpBOr
	OpBXor
	OpLAnd
	OpLOr
	// OpMinSumMax reduces a float vector of consecutive (min, sum, max)
	// triples: element 3k takes the minimum, 3k+1 the sum, 3k+2 the
	// maximum. It fuses the three aggregation reductions of a benchmark row
	// into one message round; buffers must hold whole triples and be
	// reduced as whole vectors (no windowed algorithms).
	OpMinSumMax
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpProd:
		return "prod"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpBAnd:
		return "band"
	case OpBOr:
		return "bor"
	case OpBXor:
		return "bxor"
	case OpLAnd:
		return "land"
	case OpLOr:
		return "lor"
	case OpMinSumMax:
		return "min_sum_max"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// ReduceBuffers computes dst[i] = op(dst[i], src[i]) element-wise over byte
// buffers interpreted as dt; it exposes the runtime's local reduction
// kernels for callers (like the binding layer's object reductions) that
// combine buffers outside a collective.
func ReduceBuffers(dst, src []byte, dt DType, op Op) error {
	return reduceInto(dst, src, dt, op)
}

// reduceInto computes dst[i] = op(dst[i], src[i]) elementwise over byte
// buffers interpreted as dt. Both buffers must hold a whole number of
// elements of dt and have equal length.
func reduceInto(dst, src []byte, dt DType, op Op) error {
	if len(dst) != len(src) {
		return fmt.Errorf("mpi: reduce buffer length mismatch %d vs %d", len(dst), len(src))
	}
	es := dt.Size()
	if len(dst)%es != 0 {
		return fmt.Errorf("mpi: reduce buffer length %d not a multiple of %s size %d", len(dst), dt, es)
	}
	switch dt {
	case Uint8:
		return reduceUint8(dst, src, op)
	case Int32:
		return reduceInt(dst, src, op, 4)
	case Int64:
		return reduceInt(dst, src, op, 8)
	case Float32:
		if op == OpSum && sumTyped[float32](dst, src) {
			return nil
		}
		return reduceFloat(dst, src, op, 4)
	case Float64:
		if op == OpSum && sumTyped[float64](dst, src) {
			return nil
		}
		return reduceFloat(dst, src, op, 8)
	default:
		return fmt.Errorf("mpi: reduce on unknown datatype %v", dt)
	}
}

// hostLittleEndian reports whether the host's native byte order is the
// wire order of reduction buffers, so a typed view reads the same values
// the encoding/binary loop decodes.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// sumTyped adds src into dst through typed views and reports whether it
// ran; it declines (leaving dst untouched) unless both buffers are
// element-aligned on a little-endian host, and the caller then takes the
// generic loop. Float sums carry essentially all reduced bytes, so they are
// the one (dtype, op) pair with a typed loop. The result is bit-identical
// to the generic loop: for float64 the operation is the same, and a
// float32 sum computed in float64 and rounded once equals the natively
// rounded float32 sum, because double rounding is innocuous for + when
// 53 >= 2*24+2 (Figueroa, 1995). The one difference is which NaN payload
// wins when both operands are NaN.
func sumTyped[T float32 | float64](dst, src []byte) bool {
	es := int(unsafe.Sizeof(T(0)))
	if !hostLittleEndian || len(dst) == 0 || len(src) != len(dst) ||
		uintptr(unsafe.Pointer(&dst[0]))%uintptr(es) != 0 ||
		uintptr(unsafe.Pointer(&src[0]))%uintptr(es) != 0 {
		return false
	}
	d := unsafe.Slice((*T)(unsafe.Pointer(&dst[0])), len(dst)/es)
	s := unsafe.Slice((*T)(unsafe.Pointer(&src[0])), len(d))
	for i := range d {
		d[i] += s[i]
	}
	return true
}

func reduceUint8(dst, src []byte, op Op) error {
	for i := range dst {
		a, b := dst[i], src[i]
		switch op {
		case OpSum:
			dst[i] = a + b
		case OpProd:
			dst[i] = a * b
		case OpMin:
			if b < a {
				dst[i] = b
			}
		case OpMax:
			if b > a {
				dst[i] = b
			}
		case OpBAnd:
			dst[i] = a & b
		case OpBOr:
			dst[i] = a | b
		case OpBXor:
			dst[i] = a ^ b
		case OpLAnd:
			dst[i] = boolByte(a != 0 && b != 0)
		case OpLOr:
			dst[i] = boolByte(a != 0 || b != 0)
		default:
			return fmt.Errorf("mpi: op %v unsupported for uint8", op)
		}
	}
	return nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func reduceInt(dst, src []byte, op Op, width int) error {
	for off := 0; off < len(dst); off += width {
		var a, b int64
		if width == 4 {
			a = int64(int32(binary.LittleEndian.Uint32(dst[off:])))
			b = int64(int32(binary.LittleEndian.Uint32(src[off:])))
		} else {
			a = int64(binary.LittleEndian.Uint64(dst[off:]))
			b = int64(binary.LittleEndian.Uint64(src[off:]))
		}
		var r int64
		switch op {
		case OpSum:
			r = a + b
		case OpProd:
			r = a * b
		case OpMin:
			r = a
			if b < a {
				r = b
			}
		case OpMax:
			r = a
			if b > a {
				r = b
			}
		case OpBAnd:
			r = a & b
		case OpBOr:
			r = a | b
		case OpBXor:
			r = a ^ b
		case OpLAnd:
			r = int64(boolByte(a != 0 && b != 0))
		case OpLOr:
			r = int64(boolByte(a != 0 || b != 0))
		default:
			return fmt.Errorf("mpi: op %v unsupported for integers", op)
		}
		if width == 4 {
			binary.LittleEndian.PutUint32(dst[off:], uint32(int32(r)))
		} else {
			binary.LittleEndian.PutUint64(dst[off:], uint64(r))
		}
	}
	return nil
}

func reduceFloat(dst, src []byte, op Op, width int) error {
	if op == OpMinSumMax && (len(dst)/width)%3 != 0 {
		return fmt.Errorf("mpi: op %v needs whole (min, sum, max) triples, got %d elements", op, len(dst)/width)
	}
	for off := 0; off < len(dst); off += width {
		var a, b float64
		if width == 4 {
			a = float64(math.Float32frombits(binary.LittleEndian.Uint32(dst[off:])))
			b = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[off:])))
		} else {
			a = math.Float64frombits(binary.LittleEndian.Uint64(dst[off:]))
			b = math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))
		}
		var r float64
		switch op {
		case OpSum:
			r = a + b
		case OpProd:
			r = a * b
		case OpMin:
			r = math.Min(a, b)
		case OpMax:
			r = math.Max(a, b)
		case OpMinSumMax:
			switch (off / width) % 3 {
			case 0:
				r = math.Min(a, b)
			case 1:
				r = a + b
			default:
				r = math.Max(a, b)
			}
		case OpLAnd:
			r = float64(boolByte(a != 0 && b != 0))
		case OpLOr:
			r = float64(boolByte(a != 0 || b != 0))
		default:
			return fmt.Errorf("mpi: op %v unsupported for floats", op)
		}
		if width == 4 {
			binary.LittleEndian.PutUint32(dst[off:], math.Float32bits(float32(r)))
		} else {
			binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(r))
		}
	}
	return nil
}

// EncodeFloat64s packs a float64 slice into a little-endian byte buffer;
// helper for tests and examples.
func EncodeFloat64s(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// DecodeFloat64s unpacks a little-endian byte buffer into float64s.
func DecodeFloat64s(buf []byte) []float64 {
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out
}

// EncodeInt32s packs an int32 slice into a little-endian byte buffer.
func EncodeInt32s(vals []int32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

// DecodeInt32s unpacks a little-endian byte buffer into int32s.
func DecodeInt32s(buf []byte) []int32 {
	out := make([]int32, len(buf)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out
}
