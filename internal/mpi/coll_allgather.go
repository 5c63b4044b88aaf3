package mpi

import "repro/internal/collective"

// Allgather algorithm-selection thresholds, mirroring MVAPICH2: recursive
// doubling for power-of-two groups with small totals, Bruck for small totals
// on non-power-of-two groups, ring for large totals.
const (
	allgatherRDMaxTotal    = 256 * 1024
	allgatherBruckMaxTotal = 128 * 1024
)

func init() {
	registerAlgorithm(Algorithm{
		Name:       "recursive_doubling",
		Collective: CollAllgather,
		Summary:    "recursive doubling (power-of-two groups, small totals)",
		Applicable: func(s Selection) bool {
			return collective.IsPof2(s.CommSize) && s.Total() <= s.Tuning.AllgatherRDMaxTotal
		},
		Feasible: func(s Selection) bool { return collective.IsPof2(s.CommSize) },
		build:    buildAllgatherRecDoubling,
	})
	registerAlgorithm(Algorithm{
		Name:       "bruck",
		Collective: CollAllgather,
		Summary:    "Bruck log-round accumulation (small totals, any group)",
		Applicable: func(s Selection) bool { return s.Total() <= s.Tuning.AllgatherBruckMaxTotal },
		build:      buildAllgatherBruck,
	})
	registerAlgorithm(Algorithm{
		Name:       "ring",
		Collective: CollAllgather,
		Summary:    "neighbour ring (large totals)",
		Applicable: func(Selection) bool { return true },
		build:      buildAllgatherRing,
	})
}

// Allgather collects len(sbuf) bytes from every rank into rbuf on every
// rank, ordered by rank; len(rbuf) must be p*len(sbuf).
func (c *Comm) Allgather(sbuf, rbuf []byte) error {
	return c.AllgatherN(sbuf, len(sbuf), rbuf)
}

// AllgatherN is Allgather with an explicit per-rank byte count; buffers may
// be nil in timing-only worlds.
func (c *Comm) AllgatherN(sbuf []byte, n int, rbuf []byte) error {
	s, err := c.allgatherStart(sbuf, n, rbuf)
	if err != nil || s == nil {
		return err
	}
	if err := c.driveSched(s); err != nil {
		return collError("Allgather", err)
	}
	return nil
}

// Iallgather starts a nonblocking Allgather.
func (c *Comm) Iallgather(sbuf, rbuf []byte) (*Request, error) {
	return c.IallgatherN(sbuf, len(sbuf), rbuf)
}

// IallgatherN is Iallgather with an explicit per-rank byte count.
func (c *Comm) IallgatherN(sbuf []byte, n int, rbuf []byte) (*Request, error) {
	s, err := c.allgatherStart(sbuf, n, rbuf)
	if err != nil {
		return nil, err
	}
	return c.collRequest(s)
}

func (c *Comm) allgatherStart(sbuf []byte, n int, rbuf []byte) (*collSched, error) {
	p := len(c.group)
	if rbuf != nil && len(rbuf) < p*n {
		return nil, bufferError("Allgather recv buffer", len(rbuf), p*n)
	}
	if sbuf != nil && rbuf != nil {
		copy(rbuf[c.rank*n:(c.rank+1)*n], sbuf[:n])
	}
	if p == 1 {
		return nil, nil
	}
	s, err := c.startColl(CollAllgather, &collCall{rbuf: rbuf, n: n}, n)
	if err != nil {
		return nil, collError("Allgather", err)
	}
	return s, nil
}

// buildAllgatherRecDoubling: at round k (mask 2^k) each rank exchanges its
// accumulated 2^k blocks with rank^mask; blocks stay naturally placed
// because partner windows are aligned.
func buildAllgatherRecDoubling(c *Comm, call collCall, s *collSched) error {
	rbuf, n := call.rbuf, call.n
	p := len(c.group)
	for mask := 1; mask < p; mask *= 2 {
		peer := c.rank ^ mask
		myLo := (c.rank / mask) * mask // first block of my current window
		peerLo := (peer / mask) * mask
		sLo, sHi := myLo*n, (myLo+mask)*n
		rLo, rHi := peerLo*n, (peerLo+mask)*n
		s.exchange(peer, sliceOrNil(rbuf, sLo, sHi), sHi-sLo,
			peer, sliceOrNil(rbuf, rLo, rHi), rHi-rLo)
	}
	return nil
}

// buildAllgatherBruck: blocks are accumulated in a rotated staging buffer
// starting from the local block, then rotated into place at the end.
func buildAllgatherBruck(c *Comm, call collCall, s *collSched) error {
	rbuf, n := call.rbuf, call.n
	p := len(c.group)
	var stage []byte
	if rbuf != nil {
		stage = s.scratch(p * n)
		copy(stage[:n], rbuf[c.rank*n:(c.rank+1)*n])
	}
	have := 1
	for st := range collective.BruckSchedule(c.rank, p) {
		cnt := st.BlockCount
		if cnt > have {
			cnt = have // final partial round sends what exists
		}
		// Bruck sends the first cnt accumulated blocks to rank-k and
		// receives cnt blocks appended after the current ones from rank+k.
		s.exchange(st.SendTo, sliceOrNil(stage, 0, cnt*n), cnt*n,
			st.RecvFrom, sliceOrNil(stage, have*n, (have+cnt)*n), cnt*n)
		have += cnt
	}
	if rbuf != nil {
		// stage[i] holds the block of rank (c.rank + i) % p.
		for i := 0; i < p; i++ {
			dst := ((c.rank + i) % p) * n
			s.copyStep(rbuf[dst:dst+n], stage[i*n:(i+1)*n], n)
		}
	}
	return nil
}

// buildAllgatherRing: p-1 rounds, each forwarding the block received in the
// previous round to the next neighbour.
func buildAllgatherRing(c *Comm, call collCall, s *collSched) error {
	rbuf, n := call.rbuf, call.n
	p := len(c.group)
	sendTo, recvFrom := collective.RingNeighbors(c.rank, p)
	have := c.rank
	for step := 0; step < p-1; step++ {
		want := (have - 1 + p) % p
		sLo, sHi := have*n, (have+1)*n
		rLo, rHi := want*n, (want+1)*n
		s.exchange(sendTo, sliceOrNil(rbuf, sLo, sHi), sHi-sLo,
			recvFrom, sliceOrNil(rbuf, rLo, rHi), rHi-rLo)
		have = want
	}
	return nil
}
