package mpi4py

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/mpi"
	"repro/internal/pickle"
	"repro/internal/pybuf"
)

// Comm wraps an mpi.Comm with the binding layer's staging phase. Like the
// underlying communicator it is bound to one rank and must only be used
// from that rank's goroutine.
type Comm struct {
	raw         *mpi.Comm
	prof        *Profiler
	reg         *device.Registry
	pickleCosts pickle.Costs
	// sendFrame is the storage SendObject and a BcastObject root pickle
	// into, reused across calls.
	sendFrame []byte
}

// Option configures a wrapped communicator.
type Option func(*Comm)

// WithProfiler attaches a staging profiler (Figure 34's instrument).
func WithProfiler(p *Profiler) Option { return func(c *Comm) { c.prof = p } }

// WithRegistry attaches the CUDA Array Interface pointer registry used to
// resolve GPU buffers, mirroring the CUDA driver lookup mpi4py performs.
func WithRegistry(r *device.Registry) Option { return func(c *Comm) { c.reg = r } }

// WithPickleCosts overrides the serializer cost model.
func WithPickleCosts(pc pickle.Costs) Option { return func(c *Comm) { c.pickleCosts = pc } }

// Wrap builds the binding layer over a raw communicator. The world must
// have been created in PyMode (mpi4py initialises MPI with THREAD_MULTIPLE;
// the native-layer consequences are priced by the runtime itself).
func Wrap(raw *mpi.Comm, opts ...Option) (*Comm, error) {
	if !raw.Proc().World().PyMode() {
		return nil, fmt.Errorf("mpi4py: world was not created in PyMode; " +
			"set mpi.Config.PyMode (mpi4py initialises MPI_THREAD_MULTIPLE)")
	}
	c := &Comm{raw: raw, pickleCosts: pickle.DefaultCosts()}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Rank returns the communicator rank.
func (c *Comm) Rank() int { return c.raw.Rank() }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.raw.Size() }

// Raw exposes the wrapped native communicator.
func (c *Comm) Raw() *mpi.Comm { return c.raw }

// stageOne charges and profiles one staging phase. The misc phase also
// carries the model's once-per-call extra for rendezvous-sized buffers
// (GDR pipeline setup on GPU systems; zero elsewhere).
func (c *Comm) stageOne(lib pybuf.Library, n int, phase Phase, class OpClass) {
	sp := profile(lib, class)
	var cost = sp.Misc
	switch phase {
	case PhaseSendPrep:
		cost = sp.prepCost(sp.SendPrep, n)
	case PhaseRecvPrep:
		cost = sp.prepCost(sp.RecvPrep, n)
	default:
		// The once-per-call pipeline setup is charged with the misc phase
		// but attributed to neither: the paper profiles it inside the
		// native library, not the Cython staging code.
		c.raw.Proc().AdvanceClock(c.raw.Proc().World().Model().PyCallExtra(n))
	}
	c.raw.Proc().AdvanceClock(cost)
	c.prof.record(lib, n, phase, cost)
}

// rawBytes performs the binding's buffer extraction: host buffers expose
// their storage directly; GPU buffers go through the CUDA Array Interface
// and, when a registry is attached, a real pointer resolution.
func (c *Comm) rawBytes(b pybuf.Buffer) ([]byte, error) {
	if b == nil {
		return nil, nil
	}
	db, ok := b.(pybuf.DeviceBuffer)
	if !ok {
		return b.Raw(), nil
	}
	ai := db.CAI()
	if c.reg != nil {
		alloc, err := c.reg.Resolve(ai.Data)
		if err != nil {
			return nil, fmt.Errorf("mpi4py: CAI resolution: %w", err)
		}
		return alloc.Bytes(), nil
	}
	return db.Alloc().Bytes(), nil
}

// stageSend stages a send buffer and returns its raw storage.
func (c *Comm) stageSend(b pybuf.Buffer, class OpClass) ([]byte, error) {
	raw, err := c.rawBytes(b)
	if err != nil {
		return nil, err
	}
	c.stageOne(b.Library(), b.NBytes(), PhaseSendPrep, class)
	return raw, nil
}

// stageRecv stages a receive buffer and returns its raw storage.
func (c *Comm) stageRecv(b pybuf.Buffer, class OpClass) ([]byte, error) {
	raw, err := c.rawBytes(b)
	if err != nil {
		return nil, err
	}
	c.stageOne(b.Library(), b.NBytes(), PhaseRecvPrep, class)
	return raw, nil
}

// --- Direct-buffer point-to-point (mpi4py's upper-case Send/Recv) ---

// Send transmits a buffer to communicator rank dst.
func (c *Comm) Send(buf pybuf.Buffer, dst, tag int) error {
	c.stageOne(buf.Library(), buf.NBytes(), PhaseMisc, PtPt)
	raw, err := c.stageSend(buf, PtPt)
	if err != nil {
		return err
	}
	return c.raw.SendN(raw, buf.NBytes(), dst, tag)
}

// Recv receives into a buffer from communicator rank src.
func (c *Comm) Recv(buf pybuf.Buffer, src, tag int) (mpi.Status, error) {
	c.stageOne(buf.Library(), buf.NBytes(), PhaseMisc, PtPt)
	raw, err := c.stageRecv(buf, PtPt)
	if err != nil {
		return mpi.Status{}, err
	}
	return c.raw.RecvN(raw, buf.NBytes(), src, tag)
}

// Sendrecv exchanges buffers with peers without deadlock.
func (c *Comm) Sendrecv(sbuf pybuf.Buffer, dst, stag int, rbuf pybuf.Buffer, src, rtag int) (mpi.Status, error) {
	c.stageOne(sbuf.Library(), sbuf.NBytes(), PhaseMisc, PtPt)
	sraw, err := c.stageSend(sbuf, PtPt)
	if err != nil {
		return mpi.Status{}, err
	}
	rraw, err := c.stageRecv(rbuf, PtPt)
	if err != nil {
		return mpi.Status{}, err
	}
	return c.raw.SendrecvN(sraw, sbuf.NBytes(), dst, stag, rraw, rbuf.NBytes(), src, rtag)
}

// --- Direct-buffer collectives (mpi4py's upper-case family) ---

// Barrier synchronises all ranks; the binding adds only dispatch cost.
func (c *Comm) Barrier() error {
	c.stageOne(pybuf.NumPy, 0, PhaseMisc, Collective)
	return c.raw.Barrier()
}

// Bcast broadcasts a buffer from root: the root stages it as a send buffer,
// everyone else as a receive buffer.
func (c *Comm) Bcast(buf pybuf.Buffer, root int) error {
	c.stageOne(buf.Library(), buf.NBytes(), PhaseMisc, Collective)
	var raw []byte
	var err error
	if c.raw.Rank() == root {
		raw, err = c.stageSend(buf, Collective)
	} else {
		raw, err = c.stageRecv(buf, Collective)
	}
	if err != nil {
		return err
	}
	return c.raw.BcastN(raw, buf.NBytes(), root)
}

// Reduce combines sbuf into rbuf at root.
func (c *Comm) Reduce(sbuf, rbuf pybuf.Buffer, op mpi.Op, root int) error {
	c.stageOne(sbuf.Library(), sbuf.NBytes(), PhaseMisc, Collective)
	sraw, err := c.stageSend(sbuf, Collective)
	if err != nil {
		return err
	}
	rraw, err := c.stageRecv(rbuf, Collective)
	if err != nil {
		return err
	}
	return c.raw.ReduceN(sraw, rraw, sbuf.NBytes(), sbuf.DType(), op, root)
}

// Allreduce combines sbuf into rbuf on every rank.
func (c *Comm) Allreduce(sbuf, rbuf pybuf.Buffer, op mpi.Op) error {
	c.stageOne(sbuf.Library(), sbuf.NBytes(), PhaseMisc, Collective)
	sraw, err := c.stageSend(sbuf, Collective)
	if err != nil {
		return err
	}
	rraw, err := c.stageRecv(rbuf, Collective)
	if err != nil {
		return err
	}
	return c.raw.AllreduceN(sraw, rraw, sbuf.NBytes(), sbuf.DType(), op)
}

// Gather collects equal-sized buffers at root.
func (c *Comm) Gather(sbuf, rbuf pybuf.Buffer, root int) error {
	c.stageOne(sbuf.Library(), sbuf.NBytes(), PhaseMisc, Collective)
	sraw, err := c.stageSend(sbuf, Collective)
	if err != nil {
		return err
	}
	var rraw []byte
	if c.raw.Rank() == root {
		if rraw, err = c.stageRecv(rbuf, Collective); err != nil {
			return err
		}
	}
	return c.raw.GatherN(sraw, sbuf.NBytes(), rraw, root)
}

// Scatter distributes root's buffer blocks to all ranks.
func (c *Comm) Scatter(sbuf, rbuf pybuf.Buffer, root int) error {
	c.stageOne(rbuf.Library(), rbuf.NBytes(), PhaseMisc, Collective)
	var sraw []byte
	var err error
	if c.raw.Rank() == root {
		if sraw, err = c.stageSend(sbuf, Collective); err != nil {
			return err
		}
	}
	rraw, err := c.stageRecv(rbuf, Collective)
	if err != nil {
		return err
	}
	return c.raw.ScatterN(sraw, rraw, rbuf.NBytes(), root)
}

// Allgather collects equal-sized buffers on every rank.
func (c *Comm) Allgather(sbuf, rbuf pybuf.Buffer) error {
	c.stageOne(sbuf.Library(), sbuf.NBytes(), PhaseMisc, Collective)
	sraw, err := c.stageSend(sbuf, Collective)
	if err != nil {
		return err
	}
	rraw, err := c.stageRecv(rbuf, Collective)
	if err != nil {
		return err
	}
	return c.raw.AllgatherN(sraw, sbuf.NBytes(), rraw)
}

// Alltoall exchanges per-destination blocks between all ranks; sbuf holds
// one equal block per rank.
func (c *Comm) Alltoall(sbuf, rbuf pybuf.Buffer) error {
	p := c.raw.Size()
	if sbuf.NBytes()%p != 0 {
		return fmt.Errorf("mpi4py: Alltoall send buffer %d not divisible by %d ranks", sbuf.NBytes(), p)
	}
	c.stageOne(sbuf.Library(), sbuf.NBytes(), PhaseMisc, Collective)
	sraw, err := c.stageSend(sbuf, Collective)
	if err != nil {
		return err
	}
	rraw, err := c.stageRecv(rbuf, Collective)
	if err != nil {
		return err
	}
	return c.raw.AlltoallN(sraw, sbuf.NBytes()/p, rraw)
}

// ReduceScatterBlock reduces and scatters equal blocks.
func (c *Comm) ReduceScatterBlock(sbuf, rbuf pybuf.Buffer, op mpi.Op) error {
	c.stageOne(sbuf.Library(), sbuf.NBytes(), PhaseMisc, Collective)
	sraw, err := c.stageSend(sbuf, Collective)
	if err != nil {
		return err
	}
	rraw, err := c.stageRecv(rbuf, Collective)
	if err != nil {
		return err
	}
	return c.raw.ReduceScatterBlockN(sraw, rraw, rbuf.NBytes(), sbuf.DType(), op)
}

// Scan computes the inclusive prefix reduction into rbuf.
func (c *Comm) Scan(sbuf, rbuf pybuf.Buffer, op mpi.Op) error {
	c.stageOne(sbuf.Library(), sbuf.NBytes(), PhaseMisc, Collective)
	sraw, err := c.stageSend(sbuf, Collective)
	if err != nil {
		return err
	}
	rraw, err := c.stageRecv(rbuf, Collective)
	if err != nil {
		return err
	}
	return c.raw.ScanN(sraw, rraw, sbuf.NBytes(), sbuf.DType(), op)
}

// Exscan computes the exclusive prefix reduction into rbuf.
func (c *Comm) Exscan(sbuf, rbuf pybuf.Buffer, op mpi.Op) error {
	c.stageOne(sbuf.Library(), sbuf.NBytes(), PhaseMisc, Collective)
	sraw, err := c.stageSend(sbuf, Collective)
	if err != nil {
		return err
	}
	rraw, err := c.stageRecv(rbuf, Collective)
	if err != nil {
		return err
	}
	return c.raw.ExscanN(sraw, rraw, sbuf.NBytes(), sbuf.DType(), op)
}

// --- Vector variants (Allgatherv, Alltoallv, Gatherv, Scatterv) ---

// Gatherv collects variable-sized buffers at root (counts in bytes).
func (c *Comm) Gatherv(sbuf, rbuf pybuf.Buffer, counts []int, root int) error {
	c.stageOne(sbuf.Library(), sbuf.NBytes(), PhaseMisc, Collective)
	sraw, err := c.stageSend(sbuf, Collective)
	if err != nil {
		return err
	}
	var rraw []byte
	if c.raw.Rank() == root {
		if rraw, err = c.stageRecv(rbuf, Collective); err != nil {
			return err
		}
	}
	return c.raw.Gatherv(sraw, sbuf.NBytes(), rraw, counts, nil, root)
}

// Scatterv distributes variable-sized blocks from root (counts in bytes).
func (c *Comm) Scatterv(sbuf pybuf.Buffer, counts []int, rbuf pybuf.Buffer, root int) error {
	c.stageOne(rbuf.Library(), rbuf.NBytes(), PhaseMisc, Collective)
	var sraw []byte
	var err error
	if c.raw.Rank() == root {
		if sraw, err = c.stageSend(sbuf, Collective); err != nil {
			return err
		}
	}
	rraw, err := c.stageRecv(rbuf, Collective)
	if err != nil {
		return err
	}
	return c.raw.Scatterv(sraw, counts, nil, rraw, rbuf.NBytes(), root)
}

// Allgatherv collects variable-sized buffers on every rank.
func (c *Comm) Allgatherv(sbuf, rbuf pybuf.Buffer, counts []int) error {
	c.stageOne(sbuf.Library(), sbuf.NBytes(), PhaseMisc, Collective)
	sraw, err := c.stageSend(sbuf, Collective)
	if err != nil {
		return err
	}
	rraw, err := c.stageRecv(rbuf, Collective)
	if err != nil {
		return err
	}
	return c.raw.Allgatherv(sraw, rraw, counts, nil)
}

// Alltoallv exchanges variable-sized blocks (counts in bytes, packed).
func (c *Comm) Alltoallv(sbuf pybuf.Buffer, scounts []int, rbuf pybuf.Buffer, rcounts []int) error {
	c.stageOne(sbuf.Library(), sbuf.NBytes(), PhaseMisc, Collective)
	sraw, err := c.stageSend(sbuf, Collective)
	if err != nil {
		return err
	}
	rraw, err := c.stageRecv(rbuf, Collective)
	if err != nil {
		return err
	}
	return c.raw.Alltoallv(sraw, scounts, nil, rraw, rcounts, nil)
}
