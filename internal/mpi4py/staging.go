// Package mpi4py simulates the mpi4py binding layer the paper measures: a
// wrapper around the native MPI runtime whose every call runs a staging
// phase (the Cython-layer buffer preparation the paper's Section V profiles)
// before delegating to the underlying operation. The staging phase performs
// the real work of the binding -- extracting raw storage from Python buffer
// objects, resolving CUDA Array Interface pointers for GPU arrays -- and
// charges its calibrated cost on the rank's virtual clock, attributed
// per-phase by the built-in profiler so Figure 34's breakdown is measured.
//
// Naming note: mpi4py distinguishes direct-buffer methods (upper-case
// Send/Recv/Allreduce) from pickle-based object methods (lower-case
// send/recv/allreduce). Go exports must be capitalised, so the pickle
// family is exposed as SendObject/RecvObject/AllreduceObject and so on.
package mpi4py

import (
	"repro/internal/pybuf"
	"repro/internal/vtime"
)

// Phase identifies a staging pipeline stage, per the paper's profiling of
// the Allreduce call: misc argument checks, send-buffer preparation
// (cro_send) and receive-buffer preparation (cro_recv).
type Phase int

// Staging phases.
const (
	PhaseMisc Phase = iota
	PhaseSendPrep
	PhaseRecvPrep
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseMisc:
		return "misc"
	case PhaseSendPrep:
		return "send-prep"
	case PhaseRecvPrep:
		return "recv-prep"
	default:
		return "unknown"
	}
}

// OpClass distinguishes point-to-point calls from collective calls: the
// latter stage both a send and a receive buffer and carry heavier argument
// translation, which is how the paper's per-benchmark overheads differ.
type OpClass int

// Operation classes.
const (
	PtPt OpClass = iota
	Collective
)

// stagingProfile is the calibrated per-call staging cost of one buffer
// library for one operation class. PerByte applies to each prepared
// buffer's size (GPU libraries: CAI resolution and pointer attribute
// lookups touch per-page state, so cost grows with size; host libraries
// stage in constant time).
type stagingProfile struct {
	Misc     vtime.Micros
	SendPrep vtime.Micros
	RecvPrep vtime.Micros
	PerByte  float64
}

// stagingTable maps (library, op class) to its profile. Values were fitted
// by hand to the paper's Figures 2-25 and 34; the experiments print each
// quoted statistic beside the measured one, and a recorded, held-out fit
// is ROADMAP item 2.
// Calibration note: in a ping-pong the receiver's staging largely overlaps
// the message's flight time (the receiver stages while the wire is busy),
// so the observable point-to-point overhead is dominated by the sender-side
// pipeline (misc + send-prep + the runtime's per-op lock). The PtPt rows
// are fitted with that in mind; the Collective rows land fully on the
// critical path because every rank stages before its first exchange.
var stagingTable = map[pybuf.Library][2]stagingProfile{
	pybuf.Bytearray: {
		PtPt:       {Misc: 0.09, SendPrep: 0.13, RecvPrep: 0.11, PerByte: 0},
		Collective: {Misc: 0.045, SendPrep: 0.07, RecvPrep: 0.09, PerByte: 0},
	},
	pybuf.NumPy: {
		PtPt:       {Misc: 0.10, SendPrep: 0.15, RecvPrep: 0.12, PerByte: 0},
		Collective: {Misc: 0.05, SendPrep: 0.08, RecvPrep: 0.10, PerByte: 0},
	},
	pybuf.CuPy: {
		PtPt:       {Misc: 0.62, SendPrep: 3.55, RecvPrep: 2.05, PerByte: 0},
		Collective: {Misc: 1.20, SendPrep: 2.60, RecvPrep: 3.65, PerByte: 0},
	},
	pybuf.PyCUDA: {
		PtPt:       {Misc: 0.60, SendPrep: 3.43, RecvPrep: 1.94, PerByte: 0},
		Collective: {Misc: 1.27, SendPrep: 2.03, RecvPrep: 3.04, PerByte: 0},
	},
	pybuf.Numba: {
		PtPt:       {Misc: 0.55, SendPrep: 5.48, RecvPrep: 3.02, PerByte: 0},
		Collective: {Misc: 1.15, SendPrep: 4.60, RecvPrep: 5.70, PerByte: 0},
	},
}

// profile looks up the staging profile for a library and op class.
func profile(lib pybuf.Library, class OpClass) stagingProfile {
	return stagingTable[lib][class]
}

// prepCost prices one buffer preparation (cro_send or cro_recv).
func (sp stagingProfile) prepCost(base vtime.Micros, n int) vtime.Micros {
	return base + vtime.Micros(float64(n)*sp.PerByte)
}
