package mpi

import (
	"repro/internal/collective"
	"repro/internal/vtime"
)

// allreduceRabenseifnerMin is the message size at which Allreduce switches
// from recursive doubling to Rabenseifner's reduce-scatter + allgather,
// mirroring MVAPICH2's tuning.
const allreduceRabenseifnerMin = 32 * 1024

func init() {
	registerAlgorithm(Algorithm{
		Name:       "rabenseifner",
		Collective: CollAllreduce,
		Summary:    "reduce-scatter + allgather (large vectors, >=4 ranks)",
		Applicable: func(s Selection) bool {
			return s.Bytes >= s.Tuning.AllreduceRabenseifnerMin &&
				s.CommSize >= 4 && s.Elems >= collective.Pof2Floor(s.CommSize)
		},
		build: buildAllreduceRabenseifner,
	})
	registerAlgorithm(Algorithm{
		Name:       "recursive_doubling",
		Collective: CollAllreduce,
		Summary:    "whole-vector recursive doubling (small messages)",
		Applicable: func(Selection) bool { return true },
		build:      buildAllreduceRecDoubling,
	})
}

// Allreduce combines sbuf across all ranks with op over dt and leaves the
// result in rbuf on every rank.
func (c *Comm) Allreduce(sbuf, rbuf []byte, dt DType, op Op) error {
	return c.AllreduceN(sbuf, rbuf, len(sbuf), dt, op)
}

// AllreduceN is Allreduce with an explicit byte count; buffers may be nil in
// timing-only worlds.
func (c *Comm) AllreduceN(sbuf, rbuf []byte, n int, dt DType, op Op) error {
	s, err := c.allreduceStart(sbuf, rbuf, n, dt, op)
	if err != nil || s == nil {
		return err
	}
	if err := c.driveSched(s); err != nil {
		return collError("Allreduce", err)
	}
	return nil
}

// Iallreduce starts a nonblocking Allreduce; the result is in rbuf after
// the returned request completes.
func (c *Comm) Iallreduce(sbuf, rbuf []byte, dt DType, op Op) (*Request, error) {
	return c.IallreduceN(sbuf, rbuf, len(sbuf), dt, op)
}

// IallreduceN is Iallreduce with an explicit byte count.
func (c *Comm) IallreduceN(sbuf, rbuf []byte, n int, dt DType, op Op) (*Request, error) {
	s, err := c.allreduceStart(sbuf, rbuf, n, dt, op)
	if err != nil {
		return nil, err
	}
	return c.collRequest(s)
}

// allreduceStart validates the call, seeds the accumulator and compiles the
// selected algorithm's schedule (nil for the trivial single-rank case).
func (c *Comm) allreduceStart(sbuf, rbuf []byte, n int, dt DType, op Op) (*collSched, error) {
	if n%dt.Size() != 0 {
		return nil, sizeError("Allreduce size", n, dt)
	}
	p := len(c.group)
	if p == 1 {
		if rbuf != nil && sbuf != nil {
			copy(rbuf[:n], sbuf[:n])
		}
		return nil, nil
	}
	// Accumulator initialised with the local contribution.
	var acc []byte
	if sbuf != nil && rbuf != nil {
		acc = rbuf[:n]
		copy(acc, sbuf[:n])
	}
	s, err := c.startColl(CollAllreduce, &collCall{rbuf: acc, n: n, dt: dt, op: op}, n)
	if err != nil {
		return nil, collError("Allreduce", err)
	}
	return s, nil
}

// buildAllreduceRecDoubling compiles recursive doubling with the classic
// fold for non-power-of-two communicators.
func buildAllreduceRecDoubling(c *Comm, call collCall, s *collSched) error {
	acc, n := call.rbuf, call.n
	p := len(c.group)
	fold := collective.NewPof2Fold(c.rank, p)
	var tmp []byte
	if acc != nil {
		tmp = s.scratch(n)
	}

	switch fold.Role {
	case collective.FoldSender:
		s.send(fold.Partner, acc, n)
	case collective.FoldReceiver:
		s.recv(fold.Partner, tmp, n)
		s.reduce(acc, tmp, n)
	}

	if fold.Role != collective.FoldSender {
		for peerNew := range collective.RecursiveDoublingPeers(fold.NewRank, fold.Pof2) {
			peer := fold.OldRank(peerNew, p)
			s.exchange(peer, acc, n, peer, tmp, n)
			s.reduce(acc, tmp, n)
		}
	}

	// Unfold: receivers hand the finished vector back to their senders.
	switch fold.Role {
	case collective.FoldReceiver:
		s.send(fold.Partner, acc, n)
	case collective.FoldSender:
		s.recv(fold.Partner, acc, n)
	}
	return nil
}

// buildAllreduceRabenseifner compiles the reduce-scatter (recursive
// halving) + allgather (recursive doubling) algorithm for large messages.
// Non-power-of-two communicators fold whole vectors first.
func buildAllreduceRabenseifner(c *Comm, call collCall, s *collSched) error {
	acc, n := call.rbuf, call.n
	p := len(c.group)
	fold := collective.NewPof2Fold(c.rank, p)
	var tmp []byte
	if acc != nil {
		tmp = s.scratch(n)
	}

	switch fold.Role {
	case collective.FoldSender:
		s.send(fold.Partner, acc, n)
	case collective.FoldReceiver:
		s.recv(fold.Partner, tmp, n)
		s.reduce(acc, tmp, n)
	}

	if fold.Role != collective.FoldSender {
		pof2 := fold.Pof2
		bounds := c.blockBoundsFor(n, pof2, call.dt.Size())
		// Reduce-scatter phase: recursive halving.
		for st := range collective.RecursiveHalvingSchedule(fold.NewRank, pof2) {
			peer := fold.OldRank(st.Peer, p)
			sLo, sHi := bounds[st.SendLo], bounds[st.SendHi]
			kLo, kHi := bounds[st.KeepLo], bounds[st.KeepHi]
			s.exchange(peer, sliceOrNil(acc, sLo, sHi), sHi-sLo,
				peer, sliceOrNil(tmp, kLo, kHi), kHi-kLo)
			s.reduce(sliceOrNil(acc, kLo, kHi), sliceOrNil(tmp, kLo, kHi), kHi-kLo)
		}
		// Allgather phase: recursive doubling over the same windows.
		for st := range collective.RecursiveDoublingAllgatherSchedule(fold.NewRank, pof2) {
			peer := fold.OldRank(st.Peer, p)
			hLo, hHi := bounds[st.HaveLo], bounds[st.HaveHi]
			gLo, gHi := bounds[st.GetLo], bounds[st.GetHi]
			s.exchange(peer, sliceOrNil(acc, hLo, hHi), hHi-hLo,
				peer, sliceOrNil(acc, gLo, gHi), gHi-gLo)
		}
	}

	switch fold.Role {
	case collective.FoldReceiver:
		s.send(fold.Partner, acc, n)
	case collective.FoldSender:
		s.recv(fold.Partner, acc, n)
	}
	return nil
}

// chargeCompute prices a local reduction of n bytes.
func (c *Comm) chargeCompute(n int) {
	c.proc.clock.Advance(c.proc.world.cfg.Model.Compute(n, c.proc.pyMode(), c.proc.fullSub()))
}

// ChargeCompute advances the rank clock by d microseconds of virtual local
// computation — the analogue of the dummy compute loop the OSU nonblocking
// overlap tests inject between posting a collective and waiting on it.
func (c *Comm) ChargeCompute(d vtime.Micros) { c.proc.clock.Advance(d) }
