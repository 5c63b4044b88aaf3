package mpi

import "fmt"

// Scan and Exscan: inclusive and exclusive prefix reductions. OMB-Py's
// first release does not benchmark them (paper Table II), but mpi4py
// exposes both, so the runtime provides them for library completeness.
// Both use the classic log-round distance-doubling algorithm.

// Scan leaves op(sbuf_0, ..., sbuf_rank) in rbuf on each rank.
func (c *Comm) Scan(sbuf, rbuf []byte, dt DType, op Op) error {
	return c.ScanN(sbuf, rbuf, len(sbuf), dt, op)
}

// ScanN is Scan with an explicit byte count; buffers may be nil in
// timing-only worlds.
func (c *Comm) ScanN(sbuf, rbuf []byte, n int, dt DType, op Op) error {
	if n%dt.Size() != 0 {
		return fmt.Errorf("mpi: Scan size %d not a multiple of %s", n, dt)
	}
	return c.driveScan(sbuf, rbuf, n, dt, op, false)
}

// Iscan starts a nonblocking inclusive prefix reduction.
func (c *Comm) Iscan(sbuf, rbuf []byte, dt DType, op Op) (*Request, error) {
	return c.IscanN(sbuf, rbuf, len(sbuf), dt, op)
}

// IscanN is Iscan with an explicit byte count.
func (c *Comm) IscanN(sbuf, rbuf []byte, n int, dt DType, op Op) (*Request, error) {
	if n%dt.Size() != 0 {
		return nil, fmt.Errorf("mpi: Scan size %d not a multiple of %s", n, dt)
	}
	return c.collRequest(c.scanStart(sbuf, rbuf, n, dt, op, false))
}

// Exscan leaves op(sbuf_0, ..., sbuf_{rank-1}) in rbuf on each rank;
// rbuf on rank 0 is left untouched, as in MPI.
func (c *Comm) Exscan(sbuf, rbuf []byte, dt DType, op Op) error {
	return c.ExscanN(sbuf, rbuf, len(sbuf), dt, op)
}

// ExscanN is Exscan with an explicit byte count.
func (c *Comm) ExscanN(sbuf, rbuf []byte, n int, dt DType, op Op) error {
	if n%dt.Size() != 0 {
		return fmt.Errorf("mpi: Exscan size %d not a multiple of %s", n, dt)
	}
	return c.driveScan(sbuf, rbuf, n, dt, op, true)
}

func (c *Comm) driveScan(sbuf, rbuf []byte, n int, dt DType, op Op, exclusive bool) error {
	if err := c.driveSched(c.scanStart(sbuf, rbuf, n, dt, op, exclusive)); err != nil {
		return fmt.Errorf("mpi: Scan: %w", err)
	}
	return nil
}

// scanStart compiles the distance-doubling prefix reduction: in round k,
// rank r sends its accumulated value to r+2^k and receives from r-2^k,
// folding the received partial into both its running total and (for ranks
// that will still send) its outgoing value. Each round posts the send
// first, then receives, then drains the send — the deadlock-free ordering
// of the monolithic implementation.
func (c *Comm) scanStart(sbuf, rbuf []byte, n int, dt DType, op Op, exclusive bool) *collSched {
	p := len(c.group)
	carry := sbuf != nil && rbuf != nil
	s := c.getSched()
	s.coll = collScan
	s.dt, s.op = dt, op

	// acc: the value this rank forwards (op of a contiguous rank window
	// ending at this rank). partial: the prefix result under construction.
	var acc, partial, tmp []byte
	var havePartial bool
	if carry {
		acc = s.scratch(n)
		copy(acc, sbuf[:n])
		partial = s.scratch(n)
		tmp = s.scratch(n)
	}
	if !exclusive {
		if carry {
			copy(partial, sbuf[:n])
		}
		havePartial = true
	}

	for k := 1; k < p; k *= 2 {
		dst := c.rank + k
		src := c.rank - k
		posted := false
		if dst < p {
			s.post(dst, acc, n)
			posted = true
		}
		if src >= 0 {
			s.recv(src, tmp, n)
			// Fold into (or seed) the prefix result. tmp holds
			// op(sbuf_{src-k+1..src}) = the block immediately left of
			// everything already in partial.
			if carry {
				if havePartial {
					s.reduceNC(partial, tmp, n)
				} else {
					s.copyStep(partial, tmp, n)
				}
			}
			// Fold the forwarded accumulator into tmp (one compute charge
			// per received block, as in the blocking path), and let tmp
			// carry it from here on. acc itself must not be written: a
			// rendezvous send borrows it until this round's waitSend. The
			// operand order is immaterial, since every op gives
			// op(a, b) == op(b, a) bit for bit unless both are NaN.
			s.reduce(tmp, acc, n)
			acc, tmp = tmp, acc
			havePartial = true
		}
		if posted {
			s.waitSend()
		}
	}
	if carry && havePartial && !(exclusive && c.rank == 0) {
		s.copyStep(rbuf[:n], partial, n)
	}
	return s
}
