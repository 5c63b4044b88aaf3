package mpi

import (
	"fmt"

	"repro/internal/collective"
)

// alltoallBruckMaxBlock is the per-block size below which Alltoall uses
// Bruck's log-round algorithm; larger exchanges use pairwise rounds.
const alltoallBruckMaxBlock = 1024

func init() {
	registerAlgorithm(Algorithm{
		Name:       "bruck",
		Collective: CollAlltoall,
		Summary:    "Bruck packed log-round exchange (small blocks)",
		Applicable: func(s Selection) bool {
			return s.Bytes <= s.Tuning.AlltoallBruckMaxBlock && s.CommSize > 2
		},
		build: buildAlltoallBruck,
	})
	registerAlgorithm(Algorithm{
		Name:       "pairwise",
		Collective: CollAlltoall,
		Summary:    "balanced pairwise exchange rounds (large blocks)",
		Applicable: func(Selection) bool { return true },
		build:      buildAlltoallPairwise,
	})
}

// Alltoall sends the r-th block of sbuf to rank r and receives rank r's
// block into the r-th block of rbuf; len(sbuf) == len(rbuf) == p*blockLen.
func (c *Comm) Alltoall(sbuf, rbuf []byte) error {
	p := len(c.group)
	if len(sbuf)%p != 0 {
		return fmt.Errorf("mpi: Alltoall send buffer %d not divisible by %d ranks", len(sbuf), p)
	}
	return c.AlltoallN(sbuf, len(sbuf)/p, rbuf)
}

// AlltoallN is Alltoall with an explicit per-destination block size n;
// buffers may be nil in timing-only worlds.
func (c *Comm) AlltoallN(sbuf []byte, n int, rbuf []byte) error {
	s, err := c.alltoallStart(sbuf, n, rbuf)
	if err != nil || s == nil {
		return err
	}
	if err := c.driveSched(s); err != nil {
		return collError("Alltoall", err)
	}
	return nil
}

// Ialltoall starts a nonblocking Alltoall.
func (c *Comm) Ialltoall(sbuf, rbuf []byte) (*Request, error) {
	p := len(c.group)
	if len(sbuf)%p != 0 {
		return nil, fmt.Errorf("mpi: Alltoall send buffer %d not divisible by %d ranks", len(sbuf), p)
	}
	return c.IalltoallN(sbuf, len(sbuf)/p, rbuf)
}

// IalltoallN is Ialltoall with an explicit per-destination block size.
func (c *Comm) IalltoallN(sbuf []byte, n int, rbuf []byte) (*Request, error) {
	s, err := c.alltoallStart(sbuf, n, rbuf)
	if err != nil {
		return nil, err
	}
	return c.collRequest(s)
}

func (c *Comm) alltoallStart(sbuf []byte, n int, rbuf []byte) (*collSched, error) {
	p := len(c.group)
	if rbuf != nil && len(rbuf) < p*n {
		return nil, bufferError("Alltoall recv buffer", len(rbuf), p*n)
	}
	if sbuf != nil && rbuf != nil {
		copy(rbuf[c.rank*n:(c.rank+1)*n], sbuf[c.rank*n:(c.rank+1)*n])
	}
	if p == 1 {
		return nil, nil
	}
	s, err := c.startColl(CollAlltoall, &collCall{sbuf: sbuf, rbuf: rbuf, n: n}, n)
	if err != nil {
		return nil, collError("Alltoall", err)
	}
	return s, nil
}

// buildAlltoallPairwise compiles p-1 balanced exchange rounds (XOR schedule
// for even p, shifted schedule otherwise).
func buildAlltoallPairwise(c *Comm, call collCall, s *collSched) error {
	sbuf, rbuf, n := call.sbuf, call.rbuf, call.n
	p := len(c.group)
	// Power-of-two p: XOR schedule, rounds 1..p-1, nobody idles. Any other
	// p: shifted-sum schedule over rounds 0..p-1, in which each rank
	// self-pairs (idles) in exactly one round.
	start, rounds := 1, p-1
	if !collective.IsPof2(p) {
		start, rounds = 0, p
	}
	for i := 0; i < rounds; i++ {
		peer := collective.PairwisePeer(c.rank, p, start+i)
		if peer == c.rank {
			continue // odd-p schedule gives each rank one idle round
		}
		sLo, sHi := peer*n, (peer+1)*n
		rLo, rHi := peer*n, (peer+1)*n
		s.exchange(peer, sliceOrNil(sbuf, sLo, sHi), sHi-sLo,
			peer, sliceOrNil(rbuf, rLo, rHi), rHi-rLo)
	}
	return nil
}

// buildAlltoallBruck compiles Bruck's alltoall: a local rotation,
// ceil(log2 p) packed exchanges selected by the bits of the block index,
// and a final inverse rotation with block reversal. The pack/unpack block
// moves between rounds are emitted as copy steps so they interleave with
// the exchanges exactly as the monolithic implementation did.
func buildAlltoallBruck(c *Comm, call collCall, s *collSched) error {
	sbuf, rbuf, n := call.sbuf, call.rbuf, call.n
	p := len(c.group)
	carry := sbuf != nil && rbuf != nil

	// Phase 1: local rotation. stage[i] = block for rank (rank+i)%p. The
	// rotation reads the user send buffer, so it runs at build (post) time.
	var stage, packS, packR []byte
	if carry {
		stage = s.scratch(p * n)
		for i := 0; i < p; i++ {
			src := (c.rank + i) % p
			copy(stage[i*n:(i+1)*n], sbuf[src*n:(src+1)*n])
		}
		packS = s.scratch(p * n)
		packR = s.scratch(p * n)
	}

	// Phase 2: for each bit, send the blocks whose index has that bit set
	// to rank+2^k, receive the same set from rank-2^k.
	idxBuf := c.scratchInts(p)
	defer c.releaseInts(idxBuf)
	for k := 1; k < p; k *= 2 {
		sendTo := (c.rank + k) % p
		recvFrom := (c.rank - k + p) % p
		idx := idxBuf[:0]
		for i := 1; i < p; i++ {
			if i&k != 0 {
				idx = append(idx, i)
			}
		}
		bytes := len(idx) * n
		if carry {
			for j, i := range idx {
				s.copyStep(packS[j*n:(j+1)*n], stage[i*n:(i+1)*n], n)
			}
		}
		s.exchange(sendTo, sliceOrNil(packS, 0, bytes), bytes,
			recvFrom, sliceOrNil(packR, 0, bytes), bytes)
		if carry {
			for j, i := range idx {
				s.copyStep(stage[i*n:(i+1)*n], packR[j*n:(j+1)*n], n)
			}
		}
	}

	// Phase 3: inverse rotation with reversal: the block finishing at
	// stage[i] is destined for rbuf[(rank-i)%p].
	if carry {
		for i := 0; i < p; i++ {
			dst := (c.rank - i + p) % p
			s.copyStep(rbuf[dst*n:(dst+1)*n], stage[i*n:(i+1)*n], n)
		}
	}
	return nil
}
