// Package pickle implements the object-serialization path of mpi4py's
// lower-case communication methods (send, recv, allreduce, ...): a framed
// binary serializer over pybuf buffers plus a calibrated cost model. The
// paper's Figures 30-33 compare this path against direct buffers; the
// observed behaviour -- about a microsecond of extra latency for small
// messages, divergence past 64 KiB up to ~1.5 ms -- comes from the extra
// serialize/copy/deserialize work, which this package really performs.
package pickle

import (
	"encoding/binary"
	"fmt"

	"repro/internal/device"
	"repro/internal/mpi"
	"repro/internal/pybuf"
	"repro/internal/vtime"
)

// Frame layout: magic(4) version(1) library(1) dtype(1) reserved(1, zero)
// count(8) payload(count*dtypeSize).
const (
	headerLen = 16
	version   = 2
)

var magic = [4]byte{'O', 'P', 'K', 'L'}

// Costs is the calibrated serializer cost model.
type Costs struct {
	// PerCall is the fixed dispatch + object-graph walk cost of one dumps
	// or loads call.
	PerCall vtime.Micros
	// PerByte is the streaming cost of encoding or decoding one byte.
	PerByte float64
	// CliffBytes is the payload size past which the serialized copy stops
	// fitting the reuse pools and pays CliffPerByte extra (the >64 KiB
	// divergence of Figure 31).
	CliffBytes   int
	CliffPerByte float64
}

// DefaultCosts matches the paper's pickle measurements on Frontera.
func DefaultCosts() Costs {
	return Costs{
		PerCall:      0.45,
		PerByte:      1.05e-4,
		CliffBytes:   64 * 1024,
		CliffPerByte: 7.0e-5,
	}
}

// call prices one Dumps or Loads of n payload bytes, before any device
// copy.
func (c Costs) call(n int) vtime.Micros {
	t := c.PerCall + vtime.Micros(float64(n)*c.PerByte)
	if n > c.CliffBytes {
		t += vtime.Micros(float64(n-c.CliffBytes) * c.CliffPerByte)
	}
	return t
}

// Dumps serializes a buffer into a frame and returns it with the virtual
// cost. The frame is written into dst's storage when cap(dst) holds it,
// so a caller that keeps its last frame pickles without allocating; a nil
// or too-small dst gets a fresh slice. Either way every byte of the frame
// is written, so it does not depend on what dst held. GPU buffers are
// copied device-to-host first (that is what pickling a CuPy/Numba array
// does), and that copy's cost is included.
func Dumps(dst []byte, b pybuf.Buffer, costs Costs) ([]byte, vtime.Micros, error) {
	n := b.NBytes()
	out := dst[:0]
	if cap(out) < headerLen+n {
		out = make([]byte, headerLen+n)
	}
	out = out[:headerLen+n]
	copy(out[0:4], magic[:])
	out[4] = version
	out[5] = byte(b.Library())
	out[6] = byte(b.DType())
	out[7] = 0
	binary.LittleEndian.PutUint64(out[8:], uint64(b.Count()))

	cost := costs.call(n)
	if db, ok := b.(pybuf.DeviceBuffer); ok {
		d2h, err := db.Alloc().CopyToHost(0, out[headerLen:])
		if err != nil {
			return nil, 0, fmt.Errorf("pickle: D2H for dumps: %w", err)
		}
		cost += d2h
	} else {
		copy(out[headerLen:], b.Raw())
	}
	return out, cost, nil
}

// Loads deserializes a frame and returns the object with the virtual cost.
// A host-library object (bytearray, NumPy) is a view of the frame's
// payload, not a copy: it aliases frame, so the caller must not reuse the
// frame's storage while it holds the object. GPU-library frames are
// materialised in fresh device memory on gpu (host-to-device copy
// included); gpu may be nil for host libraries.
func Loads(frame []byte, gpu *device.GPU, costs Costs) (pybuf.Buffer, vtime.Micros, error) {
	lib, dt, count, err := parseHeader(frame)
	if err != nil {
		return nil, 0, err
	}
	// Bound the count by the bytes present before multiplying: a forged
	// count times the element size can overflow int.
	if count > (len(frame)-headerLen)/dt.Size() {
		return nil, 0, fmt.Errorf("pickle: frame %d bytes, header promises %d %v elements",
			len(frame), count, dt)
	}
	n := count * dt.Size()
	payload := frame[headerLen : headerLen+n : headerLen+n]
	cost := costs.call(n)
	if !lib.OnGPU() {
		buf, err := pybuf.View(lib, dt, payload)
		if err != nil {
			return nil, 0, fmt.Errorf("pickle: loads: %w", err)
		}
		return buf, cost, nil
	}
	buf, err := pybuf.New(lib, gpu, dt, count)
	if err != nil {
		return nil, 0, fmt.Errorf("pickle: loads allocation: %w", err)
	}
	db := buf.(pybuf.DeviceBuffer)
	h2d, err := db.Alloc().CopyFromHost(0, payload)
	if err != nil {
		_ = db.Free()
		return nil, 0, fmt.Errorf("pickle: H2D for loads: %w", err)
	}
	return buf, cost + h2d, nil
}

// FrameSize returns the wire size of a pickled buffer of n payload bytes.
func FrameSize(n int) int { return headerLen + n }

// PayloadSize inverts FrameSize for a received frame length.
func PayloadSize(frameLen int) int { return frameLen - headerLen }

func parseHeader(frame []byte) (pybuf.Library, mpi.DType, int, error) {
	if len(frame) < headerLen {
		return 0, 0, 0, fmt.Errorf("pickle: frame too short (%d bytes)", len(frame))
	}
	if [4]byte(frame[0:4]) != magic {
		return 0, 0, 0, fmt.Errorf("pickle: bad magic %q", frame[0:4])
	}
	if frame[4] != version {
		return 0, 0, 0, fmt.Errorf("pickle: unsupported version %d", frame[4])
	}
	lib := pybuf.Library(frame[5])
	if lib < pybuf.Bytearray || lib > pybuf.Numba {
		return 0, 0, 0, fmt.Errorf("pickle: bad library byte %d", frame[5])
	}
	dt := mpi.DType(frame[6])
	if dt < mpi.Uint8 || dt > mpi.Float64 {
		return 0, 0, 0, fmt.Errorf("pickle: bad dtype byte %d", frame[6])
	}
	if frame[7] != 0 {
		return 0, 0, 0, fmt.Errorf("pickle: reserved byte is %d, want 0", frame[7])
	}
	count := int(binary.LittleEndian.Uint64(frame[8:]))
	if count < 0 {
		return 0, 0, 0, fmt.Errorf("pickle: negative count")
	}
	return lib, dt, count, nil
}

// Header exposes the parsed frame header, for tests and tools.
func Header(frame []byte) (lib pybuf.Library, dt mpi.DType, count int, err error) {
	return parseHeader(frame)
}
