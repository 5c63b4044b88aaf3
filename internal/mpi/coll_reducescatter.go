package mpi

import (
	"fmt"

	"repro/internal/collective"
)

func init() {
	registerAlgorithm(Algorithm{
		Name:       "recursive_halving",
		Collective: CollReduceScatter,
		Summary:    "recursive halving over aligned windows (power-of-two groups)",
		Applicable: func(s Selection) bool { return collective.IsPof2(s.CommSize) },
		Feasible:   func(s Selection) bool { return collective.IsPof2(s.CommSize) },
		build:      buildReduceScatterHalving,
	})
	registerAlgorithm(Algorithm{
		Name:       "pairwise",
		Collective: CollReduceScatter,
		Summary:    "pairwise exchange-and-reduce rounds (any group)",
		Applicable: func(Selection) bool { return true },
		build:      buildReduceScatterPairwise,
	})
}

// ReduceScatterBlock reduces p equal blocks of sbuf across the ranks and
// leaves block r on rank r in rbuf; len(sbuf) == p*len(rbuf).
func (c *Comm) ReduceScatterBlock(sbuf, rbuf []byte, dt DType, op Op) error {
	return c.ReduceScatterBlockN(sbuf, rbuf, len(rbuf), dt, op)
}

// ReduceScatterBlockN is ReduceScatterBlock with an explicit per-rank byte
// count; buffers may be nil in timing-only worlds. The call carries the
// block size, not a count vector, so a buffer-free call is keyed by it and
// replays and folds like any other uniform collective.
func (c *Comm) ReduceScatterBlockN(sbuf, rbuf []byte, n int, dt DType, op Op) error {
	return c.driveReduceScatter(c.reduceScatterBlockStart(sbuf, rbuf, n, dt, op))
}

// IreduceScatterBlock starts a nonblocking ReduceScatterBlock.
func (c *Comm) IreduceScatterBlock(sbuf, rbuf []byte, dt DType, op Op) (*Request, error) {
	return c.IreduceScatterBlockN(sbuf, rbuf, len(rbuf), dt, op)
}

// IreduceScatterBlockN is IreduceScatterBlock with an explicit per-rank
// byte count.
func (c *Comm) IreduceScatterBlockN(sbuf, rbuf []byte, n int, dt DType, op Op) (*Request, error) {
	s, err := c.reduceScatterBlockStart(sbuf, rbuf, n, dt, op)
	if err != nil {
		return nil, err
	}
	return c.collRequest(s)
}

// ReduceScatter reduces sbuf across ranks and scatters it by counts (bytes
// per rank, summing to len(sbuf)); rank r receives counts[r] bytes in rbuf.
func (c *Comm) ReduceScatter(sbuf, rbuf []byte, counts []int, dt DType, op Op) error {
	return c.ReduceScatterN(sbuf, rbuf, counts, dt, op)
}

// ReduceScatterN implements reduce-scatter with per-rank byte counts using
// recursive halving on power-of-two groups with block-aligned windows, and
// a pairwise exchange otherwise.
func (c *Comm) ReduceScatterN(sbuf, rbuf []byte, counts []int, dt DType, op Op) error {
	return c.driveReduceScatter(c.reduceScatterVectorStart(sbuf, rbuf, counts, dt, op))
}

// IreduceScatter starts a nonblocking ReduceScatter. The counts slice is
// captured at post time and may be reused immediately.
func (c *Comm) IreduceScatter(sbuf, rbuf []byte, counts []int, dt DType, op Op) (*Request, error) {
	s, err := c.reduceScatterVectorStart(sbuf, rbuf, counts, dt, op)
	if err != nil {
		return nil, err
	}
	return c.collRequest(s)
}

// driveReduceScatter is the blocking drive of a started call of either
// form.
func (c *Comm) driveReduceScatter(s *collSched, err error) error {
	if err != nil || s == nil {
		return err
	}
	if err := c.driveSched(s); err != nil {
		return fmt.Errorf("mpi: ReduceScatter: %w", err)
	}
	return nil
}

// reduceScatterBlockStart validates the block form's size and starts it.
func (c *Comm) reduceScatterBlockStart(sbuf, rbuf []byte, n int, dt DType, op Op) (*collSched, error) {
	if n%dt.Size() != 0 {
		return nil, fmt.Errorf("mpi: ReduceScatter block %d not a multiple of %s", n, dt)
	}
	if n < 0 {
		return nil, fmt.Errorf("mpi: ReduceScatter block %d invalid for %s", n, dt)
	}
	return c.reduceScatterStart(collCall{sbuf: sbuf, rbuf: rbuf, n: n, dt: dt, op: op}, len(c.group)*n, n)
}

// reduceScatterVectorStart validates the vector form's counts and starts
// it.
func (c *Comm) reduceScatterVectorStart(sbuf, rbuf []byte, counts []int, dt DType, op Op) (*collSched, error) {
	p := len(c.group)
	if len(counts) != p {
		return nil, fmt.Errorf("mpi: ReduceScatter counts length %d != %d ranks", len(counts), p)
	}
	total := 0
	for r, cnt := range counts {
		if cnt < 0 || cnt%dt.Size() != 0 {
			return nil, fmt.Errorf("mpi: ReduceScatter count[%d]=%d invalid for %s", r, cnt, dt)
		}
		total += cnt
	}
	return c.reduceScatterStart(collCall{sbuf: sbuf, rbuf: rbuf, counts: counts, dt: dt, op: op}, total, counts[c.rank])
}

// reduceScatterStart checks a validated call's buffers against its total
// and this rank's block, and compiles its schedule (nil for the trivial
// single-rank case).
func (c *Comm) reduceScatterStart(call collCall, total, mine int) (*collSched, error) {
	sbuf, rbuf := call.sbuf, call.rbuf
	if sbuf != nil && len(sbuf) < total {
		return nil, fmt.Errorf("mpi: ReduceScatter send buffer %d < %d", len(sbuf), total)
	}
	if rbuf != nil && len(rbuf) < mine {
		return nil, fmt.Errorf("mpi: ReduceScatter recv buffer %d < %d", len(rbuf), mine)
	}
	p := len(c.group)
	if p == 1 {
		if sbuf != nil && rbuf != nil {
			copy(rbuf[:total], sbuf[:total])
		}
		return nil, nil
	}
	s, err := c.startColl(CollReduceScatter, NewSelection(CollReduceScatter, p, total, call.dt), call)
	if err != nil {
		return nil, fmt.Errorf("mpi: ReduceScatter: %w", err)
	}
	return s, nil
}

// reduceScatterOffs returns a call's p+1 block bounds in rank scratch (pair
// with releaseInts): prefix sums of the vector form's counts, multiples of
// the block form's n.
func (c *Comm) reduceScatterOffs(call collCall) []int {
	offs := c.scratchInts(len(c.group) + 1)
	for r := range len(c.group) {
		cnt := call.n
		if call.counts != nil {
			cnt = call.counts[r]
		}
		offs[r+1] = offs[r] + cnt
	}
	return offs
}

// buildReduceScatterHalving: recursive halving over rank-count-aligned
// windows.
func buildReduceScatterHalving(c *Comm, call collCall, s *collSched) error {
	sbuf, rbuf := call.sbuf, call.rbuf
	p := len(c.group)
	offs := c.reduceScatterOffs(call)
	defer c.releaseInts(offs)
	total := offs[p]
	var acc, tmp []byte
	if sbuf != nil {
		acc = s.scratch(total)
		copy(acc, sbuf[:total])
		tmp = s.scratch(total)
	}
	for _, st := range c.halvingSchedule(c.rank, p) {
		sLo, sHi := offs[st.SendLo], offs[st.SendHi]
		kLo, kHi := offs[st.KeepLo], offs[st.KeepHi]
		s.exchange(st.Peer, sliceOrNil(acc, sLo, sHi), sHi-sLo,
			st.Peer, sliceOrNil(tmp, kLo, kHi), kHi-kLo)
		s.reduce(sliceOrNil(acc, kLo, kHi), sliceOrNil(tmp, kLo, kHi), kHi-kLo)
	}
	if rbuf != nil && acc != nil {
		lo, hi := offs[c.rank], offs[c.rank+1]
		s.copyStep(rbuf[:hi-lo], acc[lo:hi], hi-lo)
	}
	return nil
}

// buildReduceScatterPairwise: p-1 rounds; in round k each rank sends the
// block destined for rank+k and receives (and reduces) its own block from
// rank-k.
func buildReduceScatterPairwise(c *Comm, call collCall, s *collSched) error {
	sbuf, rbuf := call.sbuf, call.rbuf
	p := len(c.group)
	offs := c.reduceScatterOffs(call)
	defer c.releaseInts(offs)
	mine := offs[c.rank+1] - offs[c.rank]
	var tmp []byte
	if sbuf != nil && rbuf != nil {
		copy(rbuf[:mine], sbuf[offs[c.rank]:offs[c.rank]+mine])
		tmp = s.scratch(mine)
	}
	for k := 1; k < p; k++ {
		dst := (c.rank + k) % p
		src := (c.rank - k + p) % p
		sLo, sHi := offs[dst], offs[dst+1]
		s.exchange(dst, sliceOrNil(sbuf, sLo, sHi), sHi-sLo, src, tmp, mine)
		s.reduce(sliceOrNil(rbuf, 0, mine), tmp, mine)
	}
	return nil
}
