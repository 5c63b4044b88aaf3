// Package netmodel prices every communication and compute event of the
// simulated MPI runtime. It implements a Hockney-style alpha-beta cost model
// per link class with an eager/rendezvous protocol switch, per-cluster and
// per-MPI-implementation calibration, a gamma model for reduction compute,
// and the Python-binding penalty model (THREAD_MULTIPLE per-operation
// locking, shared-memory path degradation, and full-subscription contention)
// that the paper identifies as the sources of mpi4py overhead.
//
// All constants live in calibration.go and are derived from the numbers the
// paper reports. The model stands in for the paper's clusters because the
// paper's claims are relative (mpi4py against OMB on the same machine):
// a calibrated price per event reproduces those differences
// deterministically, without the hardware.
package netmodel

import (
	"fmt"
	"strings"

	"repro/internal/topology"
	"repro/internal/vtime"
)

// Impl identifies the MPI implementation being modelled. The GPU-aware
// MVAPICH2-GDR used on Bridges-2 is selected implicitly by pricing GPU link
// classes under MVAPICH2.
type Impl string

// Supported implementations.
const (
	MVAPICH2 Impl = "mvapich2"
	IntelMPI Impl = "intelmpi"
)

// ParseImpl validates an implementation name.
func ParseImpl(s string) (Impl, error) {
	switch strings.ToLower(s) {
	case string(MVAPICH2), "mvapich2-gdr", "mv2":
		return MVAPICH2, nil
	case string(IntelMPI), "impi", "intel":
		return IntelMPI, nil
	default:
		return "", fmt.Errorf("netmodel: unknown MPI implementation %q", s)
	}
}

// LinkParams is the alpha-beta description of one link class.
type LinkParams struct {
	// Alpha is the zero-byte one-way latency contribution of the wire.
	Alpha vtime.Micros
	// BetaUsPerByte is the inverse asymptotic bandwidth in us per byte.
	BetaUsPerByte float64
	// EagerLimit is the largest message sent eagerly; messages at or above
	// it use the rendezvous protocol with an RTS/CTS handshake.
	EagerLimit int
	// SendOverhead / RecvOverhead are the CPU-side costs of initiating and
	// completing a transfer (the o of LogP).
	SendOverhead vtime.Micros
	RecvOverhead vtime.Micros
	// SegmentBytes is the pipeline segment size of the rendezvous path.
	SegmentBytes int
}

// PyParams models the cost of the Python binding layer beyond buffer
// staging: the paper attributes them to mpi4py initializing MPI with
// THREAD_MULTIPLE (OMB uses THREAD_SINGLE), which makes the native library
// take a lock per operation and per pipeline segment, degrades the
// shared-memory path, and under full subscription contends with the
// benchmark processes for cores.
type PyParams struct {
	// LockBase is charged once per operation issued in py mode.
	LockBase vtime.Micros
	// LockRdv is charged additionally per *collective-internal* rendezvous
	// operation: collectives keep several channels active per step, so the
	// THREAD_MULTIPLE progress lock is contended there, while a single
	// blocking user send owns the progress engine (which is why the paper's
	// large-message collective overheads dwarf its point-to-point ones).
	LockRdv vtime.Micros
	// RdvCallUs is charged once per binding-layer call whose message is at
	// least RdvCallMinBytes: the GDR pipeline (re)registration cost behind
	// the flat +4 us the paper's GPU large-message curves show.
	RdvCallUs       vtime.Micros
	RdvCallMinBytes int
	// ShmPerByte is the extra per-byte cost on intra-node links.
	ShmPerByte float64
	// InterPerByte is the extra per-byte cost on the fabric.
	InterPerByte float64
	// FullSubLockMult multiplies lock costs when every core hosts a rank.
	FullSubLockMult float64
	// FullSubBetaMult multiplies intra-node per-byte wire cost of
	// *rendezvous* transfers under full subscription (progress threads
	// oversubscribe the cores and every segment bounces through them).
	FullSubBetaMult float64
	// FullSubComputeMult multiplies reduction compute cost likewise.
	FullSubComputeMult float64
}

// Model prices events for one (cluster, MPI implementation) pair.
type Model struct {
	Cluster *topology.Cluster
	Impl    Impl
	Links   map[topology.LinkClass]LinkParams
	// ComputeGammaUsPerByte is the local reduction cost (read+op+write).
	ComputeGammaUsPerByte float64
	Py                    PyParams
}

// New builds the calibrated model for a cluster and MPI implementation.
func New(cluster *topology.Cluster, impl Impl) (*Model, error) {
	m, err := calibrated(cluster, impl)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// MustNew is New that panics; for tests and examples with known-good inputs.
func MustNew(cluster *topology.Cluster, impl Impl) *Model {
	m, err := New(cluster, impl)
	if err != nil {
		panic(err)
	}
	return m
}

// Params returns the link parameters for a class, falling back to the
// inter-node class for unknown ones (which would be a calibration bug).
func (m *Model) Params(link topology.LinkClass) LinkParams {
	if p, ok := m.Links[link]; ok {
		return p
	}
	return m.Links[topology.LinkInterNode]
}

// Eager reports whether an n-byte message on link uses the eager protocol.
func (m *Model) Eager(link topology.LinkClass, n int) bool {
	return n < m.Params(link).EagerLimit
}

// Segments returns the number of pipeline segments of an n-byte rendezvous
// transfer (at least 1).
func (m *Model) Segments(link topology.LinkClass, n int) int {
	p := m.Params(link)
	if p.SegmentBytes <= 0 || n <= p.SegmentBytes {
		return 1
	}
	return (n + p.SegmentBytes - 1) / p.SegmentBytes
}

// PtPtCost is the priced breakdown of a single message.
type PtPtCost struct {
	// SendOverhead is charged on the sender before the wire.
	SendOverhead vtime.Micros
	// Wire is the time from injection to availability at the receiver.
	Wire vtime.Micros
	// Transmit is the wire-occupancy (serialization) time: back-to-back
	// messages to the same peer cannot inject faster than this, which is
	// what bounds the windowed bandwidth tests to the link rate.
	Transmit vtime.Micros
	// RecvOverhead is charged on the receiver after arrival.
	RecvOverhead vtime.Micros
	// Eager reports the protocol chosen.
	Eager bool
}

// Total is the end-to-end cost when sender and receiver are both ready.
func (c PtPtCost) Total() vtime.Micros { return c.SendOverhead + c.Wire + c.RecvOverhead }

// PtPt prices an n-byte message on link. py selects the Python-binding
// penalty model (THREAD_MULTIPLE), fullSub additionally applies the
// full-subscription contention model.
func (m *Model) PtPt(link topology.LinkClass, n int, py, fullSub bool) PtPtCost {
	p := m.Params(link)
	eager := n < p.EagerLimit
	beta := p.BetaUsPerByte
	if py {
		switch link {
		case topology.LinkSameSocket, topology.LinkSameNode, topology.LinkSelf:
			beta += m.Py.ShmPerByte
			if fullSub && !eager && m.Py.FullSubBetaMult > 1 {
				beta *= m.Py.FullSubBetaMult
			}
		default:
			beta += m.Py.InterPerByte
		}
	}
	// Wire occupancy includes the serialization term plus the
	// non-pipelinable half of the per-message wire setup: back-to-back
	// windowed sends hide part of the latency term but not all of it,
	// which keeps the bandwidth curve's mid-size slope realistic.
	transmit := vtime.Micros(0.5*float64(p.Alpha) + float64(n)*beta)
	wire := p.Alpha + vtime.Micros(float64(n)*beta)
	if !eager {
		// RTS/CTS handshake: one extra round of control traffic.
		wire += 2 * p.Alpha
	}
	return PtPtCost{
		SendOverhead: p.SendOverhead,
		Wire:         wire,
		Transmit:     transmit,
		RecvOverhead: p.RecvOverhead,
		Eager:        eager,
	}
}

// PyOpLock is the per-operation THREAD_MULTIPLE lock cost charged at the
// sender of every message issued while the binding layer is active.
// internal marks collective-internal traffic, which additionally pays the
// contended rendezvous lock (see PyParams.LockRdv).
func (m *Model) PyOpLock(link topology.LinkClass, n int, internal, fullSub bool) vtime.Micros {
	lock := m.Py.LockBase
	if internal && n >= m.Params(link).EagerLimit {
		lock += m.Py.LockRdv
	}
	if fullSub && m.Py.FullSubLockMult > 1 {
		lock *= vtime.Micros(m.Py.FullSubLockMult)
	}
	return lock
}

// PyCallExtra is the once-per-binding-call cost for n-byte buffers (the GDR
// pipeline setup on GPU systems); zero on clusters that do not model it.
func (m *Model) PyCallExtra(n int) vtime.Micros {
	if m.Py.RdvCallMinBytes > 0 && n >= m.Py.RdvCallMinBytes {
		return m.Py.RdvCallUs
	}
	return 0
}

// Compute prices an n-byte local reduction (one operand pair per element,
// read+op+write). Under full subscription in py mode the progress threads
// contend with compute, per the paper's Figure 15 discussion.
func (m *Model) Compute(n int, py, fullSub bool) vtime.Micros {
	g := m.ComputeGammaUsPerByte
	if py && fullSub && m.Py.FullSubComputeMult > 1 {
		g *= m.Py.FullSubComputeMult
	}
	return vtime.Micros(float64(n) * g)
}

// MemcpyCost prices a local host memory copy of n bytes (used by pickle and
// by buffer staging when payloads are materialised).
func (m *Model) MemcpyCost(n int) vtime.Micros {
	// ~12 GB/s effective single-core copy bandwidth plus a small fixed cost.
	return 0.05 + vtime.Micros(float64(n)*8.3e-5)
}

// String implements fmt.Stringer.
func (m *Model) String() string {
	return fmt.Sprintf("netmodel(%s, %s)", m.Cluster.Name, m.Impl)
}
