package mpi

import (
	"fmt"
	"runtime"
)

// Nonblocking operations. The real OSU bandwidth tests post windows of
// MPI_Isend/MPI_Irecv, and the nonblocking-collective tests
// (osu_iallreduce, ...) post a collective, inject compute and Wait; the
// runtime provides both families. Collective requests wrap a compiled step
// schedule (collsched.go) advanced incrementally by Test/Wait and the
// rank's Progress hook.
//
// Semantics notes (documented deviations from full MPI):
//   - Isend injects immediately (eager) or posts the RTS (rendezvous);
//     Wait blocks until the transfer drains, exactly like Send's tail.
//   - A send buffer must stay unmodified until its send completes, as MPI
//     requires: the receiver of a rendezvous message copies straight out
//     of it, and completion (Wait/Test, or a collective schedule's drain
//     step) is the report that the copy is done. Eager sends complete at
//     post time, so their buffers are free at once.
//   - Irecv records the (source, tag) to match; the match happens at
//     Test/Wait time. Matching order among multiple pending Irecvs is the
//     order their Tests/Waits run, which for single-threaded ranks equals
//     post order when Waitall is used.
//   - A nonblocking collective executes its deterministic prefix (local
//     work and message injection) at post time; the remaining steps run
//     under Test/Wait/Progress. There is no background progress thread, so
//     rounds that depend on peer traffic advance only inside those calls —
//     like an MPI library without an async progress engine.
//   - A completed Request may be recycled by the rank's next nonblocking
//     call: Wait/Test stay idempotent on the held pointer until then, but
//     a Request must not be stored across subsequent nonblocking calls.

// Request tracks an outstanding nonblocking operation. Requests are pooled
// per rank: steady-state Isend/Irecv/Wait windows allocate nothing.
type Request struct {
	comm *Comm
	// send side: the rendezvous handshake (nil for eager sends, which
	// complete at post time).
	ps   *rendezvous
	sent bool
	// recv side
	buf      []byte
	max      int
	src, tag int
	isRecv   bool
	// collective side: the schedule still to be driven.
	sched *collSched

	done   bool
	status Status
	err    error
	// pooled marks the request as harvested: its completion has been
	// observed by Wait/Test/Waitany and the object has returned to the
	// rank's freelist. Progress-completed requests stay un-pooled (and
	// visible to Waitany) until the owner observes them.
	pooled bool
}

// getRequest draws a zeroed Request from the rank's freelist.
func (p *Proc) getRequest() *Request {
	if n := len(p.reqFree); n > 0 {
		r := p.reqFree[n-1]
		p.reqFree[n-1] = nil
		p.reqFree = p.reqFree[:n-1]
		*r = Request{}
		return r
	}
	return &Request{}
}

// complete marks the request finished. It does not recycle the object:
// that happens in release, once the completion has been observed by the
// caller — Proc.Progress may complete a request the owner still holds as
// pending, and recycling it early would let the next nonblocking call
// alias the held pointer.
func (r *Request) complete(st Status, err error) {
	r.done = true
	r.status = st
	r.err = err
	r.buf = nil
	r.ps = nil
}

// release recycles an observed, completed request into the owning rank's
// freelist (idempotent). The terminal status and error stay readable on
// the held pointer until the slot is reused by a later nonblocking call.
func (r *Request) release() {
	if r.pooled {
		return
	}
	r.pooled = true
	r.comm.proc.reqFree = append(r.comm.proc.reqFree, r)
}

// Isend starts a nonblocking standard-mode send and returns its request.
func (c *Comm) Isend(buf []byte, dst, tag int) (*Request, error) {
	return c.IsendN(buf, len(buf), dst, tag)
}

// IsendN is Isend with an explicit byte count (timing-only worlds).
func (c *Comm) IsendN(buf []byte, n, dst, tag int) (*Request, error) {
	if err := c.checkRank(dst, "Isend dst"); err != nil {
		return nil, err
	}
	if err := checkTag(tag); err != nil {
		return nil, err
	}
	r := c.proc.getRequest()
	r.comm = c
	r.ps = c.postSend(dst, tag, buf, n)
	r.sent = true
	return r, nil
}

// Irecv posts a nonblocking receive; the match completes at Test or Wait.
func (c *Comm) Irecv(buf []byte, src, tag int) (*Request, error) {
	r, err := c.IrecvN(buf, len(buf), src, tag)
	return r, err
}

// IrecvN is Irecv with an explicit maximum byte count.
func (c *Comm) IrecvN(buf []byte, n, src, tag int) (*Request, error) {
	if src != AnySource {
		if err := c.checkRank(src, "Irecv src"); err != nil {
			return nil, err
		}
	}
	if tag != AnyTag {
		if err := checkTag(tag); err != nil {
			return nil, err
		}
	}
	r := c.proc.getRequest()
	r.comm = c
	r.buf, r.max, r.src, r.tag, r.isRecv = buf, n, src, tag, true
	return r, nil
}

// Wait blocks until the request completes and returns its status (receives
// only; sends and collectives return a zero Status).
func (r *Request) Wait() (Status, error) {
	if r == nil {
		return Status{}, fmt.Errorf("mpi: Wait on nil request")
	}
	if r.done {
		r.release()
		return r.status, r.err
	}
	if r.sched != nil {
		s := r.sched
		r.sched = nil
		r.complete(Status{}, r.comm.driveSched(s))
	} else if r.isRecv {
		st, err := r.comm.recvBytes(r.src, r.tag, r.buf, r.max)
		r.complete(st, err)
	} else {
		var err error
		if r.sent {
			err = r.comm.completeSend(r.ps)
		}
		r.complete(Status{}, err)
	}
	r.release()
	return r.status, r.err
}

// Test advances the request as far as possible without blocking and reports
// whether it completed, with the completion status and error when it did.
func (r *Request) Test() (bool, Status, error) {
	if r == nil {
		return false, Status{}, fmt.Errorf("mpi: Test on nil request")
	}
	if r.done {
		r.release()
		return true, r.status, r.err
	}
	switch {
	case r.sched != nil:
		s := r.sched
		done, err := s.tryDrive()
		if !done && err == nil {
			return false, Status{}, nil
		}
		if err != nil {
			s.drainPending()
		}
		s.finish()
		r.sched = nil
		r.complete(Status{}, err)
	case r.isRecv:
		st, ok, err := r.comm.tryRecvBytes(r.src, r.tag, r.buf, r.max)
		if !ok && err == nil {
			return false, Status{}, nil
		}
		r.complete(st, err)
	default:
		if r.sent && r.ps != nil {
			done, ok := r.ps.tryDone()
			if !ok {
				return false, Status{}, nil
			}
			r.comm.proc.clock.AdvanceTo(done)
			r.comm.proc.putRendezvous(r.ps)
		}
		r.complete(Status{}, nil)
	}
	r.release()
	return true, r.status, r.err
}

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r != nil && r.done }

// Waitall completes every request in order and returns the first error.
func Waitall(reqs []*Request) error {
	var firstErr error
	for i, r := range reqs {
		if _, err := r.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("mpi: Waitall request %d: %w", i, err)
		}
	}
	return firstErr
}

// Waitany blocks until one of the active requests completes and returns
// its index and status. A request completed by Proc.Progress but not yet
// observed is still active and is harvested here, like MPI_Waitany over a
// completed-but-unwaited request. Requests that are nil or already
// harvested are inactive; when every request is inactive, Waitany returns
// index -1 immediately, like MPI_Waitany's MPI_UNDEFINED.
func Waitany(reqs []*Request) (int, Status, error) {
	for {
		active := false
		var proc *Proc
		for i, r := range reqs {
			if r == nil || r.pooled {
				continue
			}
			active = true
			proc = r.comm.proc
			if done, st, err := r.Test(); done {
				return i, st, err
			}
		}
		if !active {
			return -1, Status{}, nil
		}
		// A declared stall means none of the pending requests can ever
		// complete (the verification pass saw them unprogressable): error
		// out instead of polling forever.
		if proc.failure != nil || proc.world.failedFlag.Load() {
			return -1, Status{}, proc.parkFailure()
		}
		// Nothing completed this pass: hand the CPU to peer ranks before
		// polling again. Under the event engine the rank parks instead;
		// any delivery into its mailbox or rendezvous completion wakes it
		// for the next poll.
		if proc.ev != nil {
			proc.park()
		} else if wd := proc.world.wd; wd != nil {
			// Register the outstanding rendezvous handshakes so the stall
			// verification can prove none of them is already reported (a
			// reported handshake would complete on the next poll pass).
			var rdvs []*rendezvous
			for _, r := range reqs {
				if r == nil || r.pooled || r.done {
					continue
				}
				if r.ps != nil {
					rdvs = append(rdvs, r.ps)
				}
				if r.sched != nil && r.sched.pending != nil {
					rdvs = append(rdvs, r.sched.pending)
				}
			}
			wd.pollWait(proc.rank, rdvs)
		} else {
			runtime.Gosched()
		}
	}
}

// Testall advances every request without blocking and reports whether all
// of them have completed; the first recorded error is returned once every
// request is done.
func Testall(reqs []*Request) (bool, error) {
	all := true
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if done, _, _ := r.Test(); !done {
			all = false
		}
	}
	if !all {
		return false, nil
	}
	var firstErr error
	for i, r := range reqs {
		if r == nil {
			continue
		}
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("mpi: Testall request %d: %w", i, r.err)
		}
	}
	return true, firstErr
}

// Testany makes one non-blocking pass over the active requests and returns
// the index and status of the first one found complete during the pass
// (including requests finished earlier by Proc.Progress), or -1 when none
// is (or when every request is inactive).
func Testany(reqs []*Request) (int, Status, error) {
	for i, r := range reqs {
		if r == nil || r.pooled {
			continue
		}
		if done, st, err := r.Test(); done {
			return i, st, err
		}
	}
	return -1, Status{}, nil
}
