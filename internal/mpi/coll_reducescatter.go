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
// count; buffers may be nil in timing-only worlds.
func (c *Comm) ReduceScatterBlockN(sbuf, rbuf []byte, n int, dt DType, op Op) error {
	counts, err := c.blockCounts(n, dt)
	if err != nil {
		return err
	}
	defer c.releaseInts(counts)
	return c.ReduceScatterN(sbuf, rbuf, counts, dt, op)
}

// IreduceScatterBlock starts a nonblocking ReduceScatterBlock.
func (c *Comm) IreduceScatterBlock(sbuf, rbuf []byte, dt DType, op Op) (*Request, error) {
	return c.IreduceScatterBlockN(sbuf, rbuf, len(rbuf), dt, op)
}

// IreduceScatterBlockN is IreduceScatterBlock with an explicit per-rank
// byte count.
func (c *Comm) IreduceScatterBlockN(sbuf, rbuf []byte, n int, dt DType, op Op) (*Request, error) {
	counts, err := c.blockCounts(n, dt)
	if err != nil {
		return nil, err
	}
	defer c.releaseInts(counts)
	return c.IreduceScatter(sbuf, rbuf, counts, dt, op)
}

// blockCounts builds the uniform per-rank count vector of the Block forms.
func (c *Comm) blockCounts(n int, dt DType) ([]int, error) {
	if n%dt.Size() != 0 {
		return nil, fmt.Errorf("mpi: ReduceScatter block %d not a multiple of %s", n, dt)
	}
	counts := c.scratchInts(len(c.group))
	for i := range counts {
		counts[i] = n
	}
	return counts, nil
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
	s, err := c.reduceScatterStart(sbuf, rbuf, counts, dt, op)
	if err != nil || s == nil {
		return err
	}
	if err := c.driveSched(s); err != nil {
		return fmt.Errorf("mpi: ReduceScatter: %w", err)
	}
	return nil
}

// IreduceScatter starts a nonblocking ReduceScatter. The counts slice is
// captured at post time and may be reused immediately.
func (c *Comm) IreduceScatter(sbuf, rbuf []byte, counts []int, dt DType, op Op) (*Request, error) {
	s, err := c.reduceScatterStart(sbuf, rbuf, counts, dt, op)
	if err != nil {
		return nil, err
	}
	return c.collRequest(s)
}

func (c *Comm) reduceScatterStart(sbuf, rbuf []byte, counts []int, dt DType, op Op) (*collSched, error) {
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
	if sbuf != nil && len(sbuf) < total {
		return nil, fmt.Errorf("mpi: ReduceScatter send buffer %d < %d", len(sbuf), total)
	}
	if rbuf != nil && len(rbuf) < counts[c.rank] {
		return nil, fmt.Errorf("mpi: ReduceScatter recv buffer %d < %d", len(rbuf), counts[c.rank])
	}
	if p == 1 {
		if sbuf != nil && rbuf != nil {
			copy(rbuf[:total], sbuf[:total])
		}
		return nil, nil
	}
	s, err := c.startColl(CollReduceScatter, NewSelection(CollReduceScatter, p, total, dt),
		collCall{sbuf: sbuf, rbuf: rbuf, counts: counts, total: total, dt: dt, op: op})
	if err != nil {
		return nil, fmt.Errorf("mpi: ReduceScatter: %w", err)
	}
	return s, nil
}

// buildReduceScatterHalving: recursive halving over rank-count-aligned
// windows.
func buildReduceScatterHalving(c *Comm, call collCall, s *collSched) error {
	sbuf, rbuf, counts, total := call.sbuf, call.rbuf, call.counts, call.total
	p := len(c.group)
	offs := c.scratchInts(p + 1)
	defer c.releaseInts(offs)
	offs[0] = 0
	for r := 0; r < p; r++ {
		offs[r+1] = offs[r] + counts[r]
	}
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
		s.copyStep(rbuf[:counts[c.rank]], acc[offs[c.rank]:offs[c.rank+1]], counts[c.rank])
	}
	return nil
}

// buildReduceScatterPairwise: p-1 rounds; in round k each rank sends the
// block destined for rank+k and receives (and reduces) its own block from
// rank-k.
func buildReduceScatterPairwise(c *Comm, call collCall, s *collSched) error {
	sbuf, rbuf, counts := call.sbuf, call.rbuf, call.counts
	p := len(c.group)
	offs := c.scratchInts(p + 1)
	defer c.releaseInts(offs)
	offs[0] = 0
	for r := 0; r < p; r++ {
		offs[r+1] = offs[r] + counts[r]
	}
	mine := counts[c.rank]
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
