package mpi4py

import (
	"encoding/binary"
	"fmt"

	"repro/internal/device"
	"repro/internal/mpi"
	"repro/internal/pickle"
	"repro/internal/pybuf"
)

// The object family mirrors mpi4py's lower-case methods (send, recv, bcast,
// allreduce, ...): buffers are pickled into framed byte streams, transmitted
// as plain bytes, and unpickled on arrival. Serialization is real (bytes
// round-trip through internal/pickle) and its calibrated cost is charged on
// the rank's virtual clock, which is where the paper's Figures 30-33
// behaviour comes from.

// SendObject pickles and sends a buffer (mpi4py's comm.send). The frame
// is written into the communicator's send frame, which every send reuses:
// Send returns only once the frame is free again (an eager payload is
// staged when it is posted, a rendezvous receiver copies out of the frame
// before it reports completion), and no object handed to a caller aliases
// it.
func (c *Comm) SendObject(buf pybuf.Buffer, dst, tag int) error {
	frame, err := c.dumpsSendFrame(buf)
	if err != nil {
		return err
	}
	return c.raw.Send(frame, dst, tag)
}

// dumpsSendFrame pickles buf into the communicator's send frame and
// charges the cost.
func (c *Comm) dumpsSendFrame(buf pybuf.Buffer) ([]byte, error) {
	frame, cost, err := pickle.Dumps(c.sendFrame, buf, c.pickleCosts)
	if err != nil {
		return nil, err
	}
	c.sendFrame = frame
	c.raw.Proc().AdvanceClock(cost)
	return frame, nil
}

// RecvObject receives and unpickles a buffer (mpi4py's comm.recv(buf)).
// The frame lands in buf[:count] when buf has the capacity for it, and in
// a fresh slice otherwise; a nil buf always allocates. A host-library
// object (bytearray, NumPy) is a view of that frame, not a copy, so the
// caller must not reuse buf while it holds the object. gpu is required to
// materialise GPU-library objects, which get fresh device memory, and may
// be nil otherwise.
func (c *Comm) RecvObject(buf []byte, src, tag int, gpu *device.GPU) (pybuf.Buffer, mpi.Status, error) {
	st, err := c.raw.Probe(src, tag)
	if err != nil {
		return nil, st, err
	}
	frame := buf[:0]
	if cap(frame) < st.Count {
		frame = make([]byte, st.Count)
	}
	frame = frame[:st.Count]
	if st, err = c.raw.Recv(frame, st.Source, st.Tag); err != nil {
		return nil, st, err
	}
	obj, cost, err := pickle.Loads(frame, gpu, c.pickleCosts)
	if err != nil {
		return nil, st, err
	}
	c.raw.Proc().AdvanceClock(cost)
	return obj, st, nil
}

// BcastObject broadcasts a pickled buffer from root (mpi4py's comm.bcast):
// the frame length travels first, then the frame, then non-roots unpickle.
// Non-root ranks pass nil buf; the received object is returned everywhere.
// The root pickles into its send frame; a non-root receives into a fresh
// frame per call, since a host object it returns aliases that frame.
func (c *Comm) BcastObject(buf pybuf.Buffer, root int, gpu *device.GPU) (pybuf.Buffer, error) {
	var frame []byte
	var lenBuf [8]byte
	if c.raw.Rank() == root {
		f, err := c.dumpsSendFrame(buf)
		if err != nil {
			return nil, err
		}
		frame = f
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(frame)))
	}
	if err := c.raw.Bcast(lenBuf[:], root); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint64(lenBuf[:]))
	if c.raw.Rank() != root {
		frame = make([]byte, n)
	}
	if err := c.raw.Bcast(frame, root); err != nil {
		return nil, err
	}
	if c.raw.Rank() == root {
		return buf, nil
	}
	out, cost, err := pickle.Loads(frame, gpu, c.pickleCosts)
	if err != nil {
		return nil, err
	}
	c.raw.Proc().AdvanceClock(cost)
	return out, nil
}

// AllreduceObject reduces pickled objects (mpi4py's comm.allreduce): a
// binomial-tree reduction where every hop pickles, ships, unpickles and
// applies op element-wise in "Python" (costed at the interpreter's rate),
// followed by an object broadcast of the result. Returns the reduced buffer
// on every rank; the caller owns it (and frees it, for a GPU library).
// Every intermediate device object is freed here.
func (c *Comm) AllreduceObject(buf pybuf.Buffer, op mpi.Op, gpu *device.GPU) (pybuf.Buffer, error) {
	p := c.raw.Size()
	acc, err := cloneBuffer(buf, gpu)
	if err != nil {
		return nil, err
	}
	// Binomial reduce to rank 0 over pickled frames.
	mask := 1
	for mask < p {
		if c.raw.Rank()&mask != 0 {
			dst := c.raw.Rank() &^ mask
			if err := c.SendObject(acc, dst, objTag); err != nil {
				freeDevice(acc)
				return nil, err
			}
			break
		}
		src := c.raw.Rank() | mask
		if src < p {
			other, _, err := c.RecvObject(nil, src, objTag, gpu)
			if err != nil {
				freeDevice(acc)
				return nil, err
			}
			err = pythonReduce(c, acc, other, op)
			freeDevice(other)
			if err != nil {
				freeDevice(acc)
				return nil, err
			}
		}
		mask <<= 1
	}
	out, err := c.BcastObject(acc, 0, gpu)
	if out != acc {
		// A non-root's partial sum is spent; the result is the broadcast
		// object.
		freeDevice(acc)
	}
	return out, err
}

// freeDevice releases b's device memory if it is a GPU buffer.
func freeDevice(b pybuf.Buffer) {
	if db, ok := b.(pybuf.DeviceBuffer); ok {
		_ = db.Free()
	}
}

// objTag is the reserved-by-convention user tag of the object collectives.
const objTag = mpi.MaxUserTag

// pythonReduce applies op element-wise at interpreter speed (roughly 20x
// the native reduction's per-byte cost -- object reductions in mpi4py run
// Python-level __add__ unless the payload is a NumPy array, where it is a
// vectorised call; we model the vectorised case).
func pythonReduce(c *Comm, dst, src pybuf.Buffer, op mpi.Op) error {
	if dst.NBytes() != src.NBytes() {
		return fmt.Errorf("mpi4py: object reduce size mismatch %d vs %d", dst.NBytes(), src.NBytes())
	}
	model := c.raw.Proc().World().Model()
	c.raw.Proc().AdvanceClock(3 * model.Compute(dst.NBytes(), true, false))
	return reduceBuffers(dst, src, op)
}

// cloneBuffer deep-copies a buffer through its own library.
func cloneBuffer(b pybuf.Buffer, gpu *device.GPU) (pybuf.Buffer, error) {
	out, err := pybuf.New(b.Library(), gpu, b.DType(), b.Count())
	if err != nil {
		return nil, err
	}
	copy(out.Raw(), b.Raw())
	return out, nil
}

// reduceBuffers applies op element-wise over two same-shaped buffers using
// the runtime's typed reduction kernels.
func reduceBuffers(dst, src pybuf.Buffer, op mpi.Op) error {
	return mpi.ReduceBuffers(dst.Raw(), src.Raw(), dst.DType(), op)
}
