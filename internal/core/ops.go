package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/mpi"
	"repro/internal/mpi4py"
	"repro/internal/pickle"
	"repro/internal/pybuf"
	"repro/internal/vtime"
)

// ops adapts one rank's benchmark body to the mode under test: ModeC calls
// the native runtime with raw slices (that is what OMB's C code does),
// ModePy goes through the binding layer with library buffers, ModePickle
// through the object-serialization API. A timing-only run makes the same
// calls as a data run; only setup differs, leaving ModeC's slices nil and
// giving ModePy buffers without storage.
type ops struct {
	opts Options
	c    *mpi.Comm
	py   *mpi4py.Comm
	gpu  *device.GPU

	n int // current message size in bytes
	// sraw and rraw are ModeC's raw buffers, nil in timing-only runs. In
	// ModePickle rraw is the frame recv lands each message in: nothing
	// reads a receive buffer object there, since the received object
	// aliases the frame.
	sraw, rraw []byte
	sbuf, rbuf pybuf.Buffer

	// rowBuf holds ReduceRow's encoded local row (first 24 bytes) and the
	// reduced result (last 24). The aggregation reduce is blocking, so one
	// scratch per rank is reused across every size instead of allocating
	// two fresh buffers per row — at thousands of ranks the per-world
	// aggregation traffic shows up in allocation profiles.
	rowBuf [48]byte
}

// newOps prepares the adapter for one rank in caller-provided storage, so
// the run loop can slab-allocate the state for every rank at once.
func newOps(o *ops, opts Options, raw *mpi.Comm) error {
	*o = ops{opts: opts, c: raw}
	if opts.UseGPU {
		gpuIdx := raw.Proc().World().Placement().GPU(raw.WorldRank(raw.Rank()))
		o.gpu = device.NewGPU(gpuIdx, 0)
	}
	if opts.Mode != ModeC {
		var wrapOpts []mpi4py.Option
		if opts.Profiler != nil {
			wrapOpts = append(wrapOpts, mpi4py.WithProfiler(opts.Profiler))
		}
		if o.gpu != nil {
			wrapOpts = append(wrapOpts, mpi4py.WithRegistry(device.NewRegistry([]*device.GPU{o.gpu})))
		}
		py, err := mpi4py.Wrap(raw, wrapOpts...)
		if err != nil {
			return err
		}
		o.py = py
	}
	return nil
}

// setup allocates the buffers for one message size, or in a timing-only
// run only sizes them. sendFactor and recvFactor scale the buffers for
// rooted/unrooted collectives that move p blocks (scatter sends p*n,
// gather receives p*n, and so on). Py-mode buffers hold whole elements.
func (o *ops) setup(size, sendFactor, recvFactor int) error {
	o.teardown()
	o.n = size
	if o.opts.Mode == ModeC {
		if o.opts.TimingOnly {
			return nil
		}
		o.sraw = make([]byte, size*sendFactor)
		o.rraw = make([]byte, size*recvFactor)
		for i := range o.sraw {
			o.sraw[i] = byte(i)
		}
		return nil
	}
	count := size / o.opts.DType.Size()
	if o.opts.TimingOnly {
		// Options.validate refuses timing-only pickle runs.
		o.sbuf = pybuf.Sized(o.opts.Buffer, o.opts.DType, count*sendFactor)
		o.rbuf = pybuf.Sized(o.opts.Buffer, o.opts.DType, count*recvFactor)
		return nil
	}
	sb, err := pybuf.New(o.opts.Buffer, o.gpu, o.opts.DType, count*sendFactor)
	if err != nil {
		return err
	}
	pybuf.FillPattern(sb, 1)
	o.sbuf = sb
	if o.opts.Mode == ModePickle {
		o.rraw = make([]byte, pickle.FrameSize(size))
		return nil
	}
	rb, err := pybuf.New(o.opts.Buffer, o.gpu, o.opts.DType, count*recvFactor)
	if err != nil {
		return err
	}
	o.rbuf = rb
	return nil
}

// teardown frees GPU allocations between sizes.
func (o *ops) teardown() {
	for _, b := range []pybuf.Buffer{o.sbuf, o.rbuf} {
		if db, ok := b.(pybuf.DeviceBuffer); ok {
			_ = db.Free()
		}
	}
	o.sbuf, o.rbuf = nil, nil
	o.sraw, o.rraw = nil, nil
}

// release ends the run: teardown, and the binding communicator goes too,
// with the send frame it keeps. The rank-state slab outlives the run
// (takeRankStates), so whatever is left here stays reachable until the
// next run with the same rank count.
func (o *ops) release() {
	o.teardown()
	o.py = nil
}

// dropObject frees a device object the harness received and discards; the
// rank's own send buffer is kept.
func (o *ops) dropObject(obj pybuf.Buffer) error {
	if db, ok := obj.(pybuf.DeviceBuffer); ok && obj != o.sbuf {
		return db.Free()
	}
	return nil
}

func (o *ops) send(dst, tag int) error {
	switch o.opts.Mode {
	case ModeC:
		return o.c.SendN(o.sraw, o.n, dst, tag)
	case ModePy:
		return o.py.Send(o.sbuf, dst, tag)
	default: // ModePickle
		return o.py.SendObject(o.sbuf, dst, tag)
	}
}

func (o *ops) recv(src, tag int) error {
	switch o.opts.Mode {
	case ModeC:
		_, err := o.c.RecvN(o.rraw, o.n, src, tag)
		return err
	case ModePy:
		_, err := o.py.Recv(o.rbuf, src, tag)
		return err
	default: // ModePickle
		obj, _, err := o.py.RecvObject(o.rraw, src, tag, o.gpu)
		if err != nil {
			return err
		}
		return o.dropObject(obj)
	}
}

// exchange is the bidirectional transfer of the bibw test, which runs in
// ModeC and ModePy.
func (o *ops) exchange(peer int) error {
	var err error
	if o.opts.Mode == ModeC {
		_, err = o.c.SendrecvN(o.sraw, o.n, peer, 4, o.rraw, o.n, peer, 4)
	} else {
		_, err = o.py.Sendrecv(o.sbuf, peer, 4, o.rbuf, peer, 4)
	}
	return err
}

// ack moves the 4-byte completion message of the bandwidth tests; it always
// uses the raw runtime, like OMB's C ack.
func (o *ops) ackSend(dst int) error { return o.c.SendN(nil, 4, dst, ackTag) }
func (o *ops) ackRecv(src int) error { _, err := o.c.RecvN(nil, 4, src, ackTag); return err }

const ackTag = 999

// barrier always runs through the layer under test.
func (o *ops) barrier() error {
	if o.opts.Mode == ModeC {
		return o.c.Barrier()
	}
	return o.py.Barrier()
}

// collective dispatches the named collective for the current size.
func (o *ops) collective(b Benchmark) error {
	switch o.opts.Mode {
	case ModeC:
		return o.collectiveC(b)
	case ModePy:
		return o.collectivePy(b)
	default:
		return o.collectivePickle(b)
	}
}

func (o *ops) collectiveC(b Benchmark) error {
	p := o.c.Size()
	s, r := o.sraw, o.rraw
	switch b {
	case Barrier:
		return o.c.Barrier()
	case Bcast:
		return o.c.BcastN(s, o.n, 0)
	case Reduce:
		return o.c.ReduceN(s, r, o.n, o.opts.DType, mpi.OpSum, 0)
	case Allreduce:
		return o.c.AllreduceN(s, r, o.n, o.opts.DType, mpi.OpSum)
	case Gather:
		return o.c.GatherN(s, o.n, r, 0)
	case Scatter:
		return o.c.ScatterN(s, r, o.n, 0)
	case Allgather:
		return o.c.AllgatherN(s, o.n, r)
	case Alltoall:
		return o.c.AlltoallN(s, o.n, r)
	case ReduceScatter:
		return o.c.ReduceScatterBlockN(s, r, o.n, o.opts.DType, mpi.OpSum)
	case Gatherv:
		return o.c.Gatherv(s, o.n, r, uniform(p, o.n), nil, 0)
	case Scatterv:
		return o.c.Scatterv(s, uniform(p, o.n), nil, r, o.n, 0)
	case Allgatherv:
		return o.c.Allgatherv(s, r, uniform(p, o.n), nil)
	case Alltoallv:
		return o.c.Alltoallv(s, uniform(p, o.n), nil, r, uniform(p, o.n), nil)
	default:
		return fmt.Errorf("core: %s is not a collective", b)
	}
}

func (o *ops) collectivePy(b Benchmark) error {
	switch b {
	case Barrier:
		return o.py.Barrier()
	case Bcast:
		return o.py.Bcast(o.sbuf, 0)
	case Reduce:
		return o.py.Reduce(o.sbuf, o.rbuf, mpi.OpSum, 0)
	case Allreduce:
		return o.py.Allreduce(o.sbuf, o.rbuf, mpi.OpSum)
	case Gather:
		return o.py.Gather(o.sbuf, o.rbuf, 0)
	case Scatter:
		return o.py.Scatter(o.sbuf, o.rbuf, 0)
	case Allgather:
		return o.py.Allgather(o.sbuf, o.rbuf)
	case Alltoall:
		return o.py.Alltoall(o.sbuf, o.rbuf)
	case ReduceScatter:
		return o.py.ReduceScatterBlock(o.sbuf, o.rbuf, mpi.OpSum)
	case Gatherv:
		return o.py.Gatherv(o.sbuf, o.rbuf, uniform(o.c.Size(), o.n), 0)
	case Scatterv:
		return o.py.Scatterv(o.sbuf, uniform(o.c.Size(), o.n), o.rbuf, 0)
	case Allgatherv:
		return o.py.Allgatherv(o.sbuf, o.rbuf, uniform(o.c.Size(), o.n))
	case Alltoallv:
		return o.py.Alltoallv(o.sbuf, uniform(o.c.Size(), o.n), o.rbuf, uniform(o.c.Size(), o.n))
	default:
		return fmt.Errorf("core: %s is not a collective", b)
	}
}

func (o *ops) collectivePickle(b Benchmark) error {
	switch b {
	case Bcast:
		out, err := o.py.BcastObject(o.sbuf, 0, o.gpu)
		if err != nil {
			return err
		}
		return o.dropObject(out)
	case Allreduce:
		out, err := o.py.AllreduceObject(o.sbuf, mpi.OpSum, o.gpu)
		if err != nil {
			return err
		}
		return o.dropObject(out)
	default:
		return fmt.Errorf("core: pickle mode does not support %s", b)
	}
}

// icollective posts the nonblocking collective of an overlap benchmark and
// returns its request. Overlap benchmarks run in C mode only, so the post
// always goes through the raw runtime.
func (o *ops) icollective(b Benchmark) (*mpi.Request, error) {
	s, r := o.sraw, o.rraw
	switch b {
	case IAllreduce:
		return o.c.IallreduceN(s, r, o.n, o.opts.DType, mpi.OpSum)
	case IBcast:
		return o.c.IbcastN(s, o.n, 0)
	case IGather:
		return o.c.IgatherN(s, o.n, r, 0)
	case IAllgather:
		return o.c.IallgatherN(s, o.n, r)
	case IAlltoall:
		return o.c.IalltoallN(s, o.n, r)
	case IReduceScatter:
		return o.c.IreduceScatterBlockN(s, r, o.n, o.opts.DType, mpi.OpSum)
	case IScan:
		return o.c.IscanN(s, r, o.n, o.opts.DType, mpi.OpSum)
	default:
		return nil, fmt.Errorf("core: %s is not an overlap benchmark", b)
	}
}

// compute injects d microseconds of virtual computation between the post
// and the Wait of an overlap iteration.
func (o *ops) compute(d vtime.Micros) { o.c.ChargeCompute(d) }

func uniform(p, n int) []int {
	counts := make([]int, p)
	for i := range counts {
		counts[i] = n
	}
	return counts
}
