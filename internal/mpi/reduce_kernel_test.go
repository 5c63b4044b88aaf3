package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// The typed float-sum loop (sumTyped) is checked differentially against the
// generic encoding/binary loop: the same bytes are reduced once from
// element-aligned buffers, where reduceInto may take the typed loop, and
// once at a 1-byte offset, which forces the generic one.

// alignedBytes returns an 8-byte-aligned copy of b.
func alignedBytes(b []byte) []byte {
	back := make([]uint64, len(b)/8+1)
	out := unsafe.Slice((*byte)(unsafe.Pointer(&back[0])), len(b))
	copy(out, b)
	return out
}

// offsetBytes returns a copy of b whose first byte sits at 1 mod 8, so no
// typed view of it is element-aligned.
func offsetBytes(b []byte) []byte {
	back := make([]uint64, len(b)/8+2)
	out := unsafe.Slice((*byte)(unsafe.Pointer(&back[0])), len(b)+1)[1:]
	copy(out, b)
	return out
}

// isNaNAt reports whether the float element of dt at byte offset off is NaN.
func isNaNAt(b []byte, off int, dt DType) bool {
	if dt == Float32 {
		return math.IsNaN(float64(math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))))
	}
	return math.IsNaN(math.Float64frombits(binary.LittleEndian.Uint64(b[off:])))
}

// checkReduceParity reduces src into dst aligned and at an offset and
// requires equal errors and byte-identical results — except that a float
// element whose operands are both NaN only has to come out as a NaN (which
// NaN payload wins depends on operand order, not on the loop).
func checkReduceParity(t *testing.T, dt DType, op Op, dst, src []byte) {
	t.Helper()
	ad, as := alignedBytes(dst), alignedBytes(src)
	od, os := offsetBytes(dst), offsetBytes(src)
	errA := reduceInto(ad, as, dt, op)
	errO := reduceInto(od, os, dt, op)
	if fmt.Sprint(errA) != fmt.Sprint(errO) {
		t.Fatalf("%v %v: aligned error %v, offset error %v", dt, op, errA, errO)
	}
	es := dt.Size()
	for off := 0; off < len(ad); off += es {
		end := min(off+es, len(ad))
		if string(ad[off:end]) == string(od[off:end]) {
			continue
		}
		if (dt == Float32 || dt == Float64) && end-off == es && off+es <= len(src) &&
			isNaNAt(dst, off, dt) && isNaNAt(src, off, dt) &&
			isNaNAt(ad, off, dt) && isNaNAt(od, off, dt) {
			continue
		}
		t.Fatalf("%v %v len %d/%d: byte offset %d: aligned % x, offset % x (operands % x, % x)",
			dt, op, len(dst), len(src), off, ad[off:end], od[off:end],
			dst[off:end], src[off:min(end, len(src))])
	}
}

// specialFloats are the values the kernels must agree on beyond ordinary
// numbers: NaN payloads (quiet and signaling, both signs), signed zeros,
// infinities, subnormals, and operands whose float32 sum overflows.
var specialFloats = []float64{
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000abcdef),
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.MaxFloat32, -math.MaxFloat32, math.MaxFloat64, 1, -1, 0.1, 1e-40,
}

var specialFloat32Bits = []uint32{
	0x7fc00001, 0x7f800001, 0xffc12345, 0x00000001, 0x807fffff, 0x7f7fffff,
}

// randomOperands draws n elements of dt, mixing random bit patterns,
// ordinary values and specialFloats.
func randomOperands(rng *rand.Rand, dt DType, n int) []byte {
	es := dt.Size()
	b := make([]byte, n*es)
	for off := 0; off < len(b); off += es {
		switch k := rng.Intn(4); {
		case dt == Float32 && k == 0:
			binary.LittleEndian.PutUint32(b[off:], specialFloat32Bits[rng.Intn(len(specialFloat32Bits))])
		case dt == Float32 && k == 1:
			binary.LittleEndian.PutUint32(b[off:], math.Float32bits(float32(specialFloats[rng.Intn(len(specialFloats))])))
		case dt == Float32 && k == 2:
			binary.LittleEndian.PutUint32(b[off:], math.Float32bits(float32(rng.NormFloat64()*1e3)))
		case dt == Float64 && k == 1:
			binary.LittleEndian.PutUint64(b[off:], math.Float64bits(specialFloats[rng.Intn(len(specialFloats))]))
		case dt == Float64 && k == 2:
			binary.LittleEndian.PutUint64(b[off:], math.Float64bits(rng.NormFloat64()*1e3))
		default:
			rng.Read(b[off : off+es])
		}
	}
	return b
}

// TestReduceIntoTypedParity runs every (dtype, op) pair over random
// lengths and operands, plus the length and triple error cases.
func TestReduceIntoTypedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for dt := Uint8; dt <= Float64; dt++ {
		for op := OpSum; op <= OpMinSumMax; op++ {
			for trial := 0; trial < 40; trial++ {
				n := rng.Intn(300)
				if trial == 0 {
					n = 64 << 10 / dt.Size() // a full 64 KiB reduction
				}
				if op == OpMinSumMax && trial%2 == 0 {
					n -= n % 3
				}
				checkReduceParity(t, dt, op, randomOperands(rng, dt, n), randomOperands(rng, dt, n))
			}
			a, b := randomOperands(rng, dt, 6), randomOperands(rng, dt, 9)
			checkReduceParity(t, dt, op, a, b)                // length mismatch
			checkReduceParity(t, dt, op, a[:len(a)-1], a[1:]) // not whole elements (except uint8)
		}
	}
}

// TestSumTypedAlignment pins when the typed loop runs: only the float sums,
// only for element-aligned buffers, and never at a 1-byte offset — so the
// parity tests above really compare two different loops.
func TestSumTypedAlignment(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("typed loop is disabled on big-endian hosts")
	}
	buf := make([]byte, 64)
	if !sumTyped[float32](alignedBytes(buf), alignedBytes(buf)) || !sumTyped[float64](alignedBytes(buf), alignedBytes(buf)) {
		t.Error("typed loop declined aligned buffers")
	}
	if sumTyped[float32](offsetBytes(buf), alignedBytes(buf)) || sumTyped[float64](alignedBytes(buf), offsetBytes(buf)) {
		t.Error("typed loop accepted a misaligned buffer")
	}
	if sumTyped[float32](nil, nil) {
		t.Error("typed loop accepted empty buffers")
	}
}

// FuzzReduceInto is the differential check over fuzzer-chosen operands. The
// high bit of dt keeps the two operand lengths as drawn (exercising the
// length errors); otherwise both are cut to the shorter one.
func FuzzReduceInto(f *testing.F) {
	f32 := func(bits ...uint32) []byte {
		b := make([]byte, 4*len(bits))
		for i, v := range bits {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	nan32 := f32(0x7fc00001, 0x7f800001, 0xffc12345, 0x7fc00000, 0x3f800000, 0x7fc00002)
	edge32 := f32(0x80000000, 0x00000000, 0x7f800000, 0xff800000, 0x00000001, 0x807fffff)
	over32 := f32(0x7f7fffff, 0xff7fffff, 0x7f7fffff, 0x00800000, 0x80800000, 0x3f800000)
	nan64 := EncodeFloat64s([]float64{math.NaN(), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8000000abcdef)})
	edge64 := EncodeFloat64s([]float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.MaxFloat64})
	for _, dt := range []DType{Float32, Float64} {
		for _, op := range []Op{OpSum, OpMinSumMax, OpMin, OpMax, OpProd} {
			if dt == Float32 {
				f.Add(uint8(dt), uint8(op), nan32, edge32)
				f.Add(uint8(dt), uint8(op), over32, over32)
				f.Add(uint8(dt), uint8(op), nan32, nan32)
			} else {
				f.Add(uint8(dt), uint8(op), nan64, edge64[:len(nan64)])
				f.Add(uint8(dt), uint8(op), edge64, edge64)
			}
		}
	}
	f.Add(uint8(Int32), uint8(OpSum), []byte{1, 2, 3, 4}, []byte{5, 6, 7, 8})
	f.Add(uint8(Uint8)|0x80, uint8(OpBXor), []byte{1, 2, 3}, []byte{4, 5})
	f.Fuzz(func(t *testing.T, dt, op uint8, a, b []byte) {
		if dt&0x80 == 0 {
			n := min(len(a), len(b))
			a, b = a[:n], b[:n]
		}
		checkReduceParity(t, DType((dt&0x7f)%uint8(Float64+1)), Op(op%uint8(OpMinSumMax+1)), a, b)
	})
}
