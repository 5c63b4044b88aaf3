package mpi

import (
	"slices"

	"repro/internal/collective"
)

// This file implements Barrier, Bcast and the rooted tree collectives
// (Reduce, Gather, Scatter) as schedule builders over the engine in
// collsched.go. Algorithm selection mirrors MVAPICH2: binomial trees for
// rooted small/medium operations, scatter + ring-allgather for large
// broadcasts. Every collective has an N-suffixed form taking explicit byte
// sizes with nil-tolerant buffers (used by the timing-only huge-scale
// experiments); the plain forms derive sizes from the slices.

// Barrier blocks until every rank of the communicator has entered it,
// using the dissemination algorithm (ceil(log2 p) zero-byte rounds).
func (c *Comm) Barrier() error {
	s := c.barrierStart()
	if s == nil {
		return nil
	}
	if err := c.driveSched(s); err != nil {
		return collError("Barrier", err)
	}
	return nil
}

// Ibarrier starts a nonblocking barrier.
func (c *Comm) Ibarrier() (*Request, error) {
	return c.collRequest(c.barrierStart())
}

// collBarrier is the barrier's identity in the event engine's replay
// cache; it is not a registry Collective (no selectable algorithms), so
// barrierAlg stands in for the algorithm pointer in the fold structure
// cache.
const collBarrier Collective = "barrier"

// Labels for the directly built (non-registry) collectives, used by the
// fault layer to name the collective in kill rules and failure errors.
const (
	collReduce  Collective = "reduce"
	collGather  Collective = "gather"
	collScatter Collective = "scatter"
	collScan    Collective = "scan"
)

var barrierAlg = &Algorithm{Name: "dissemination", Collective: collBarrier,
	build: buildBarrierDiss}

// buildBarrierDiss compiles the dissemination barrier; the call is unused
// (a barrier has no buffers, sizes or root).
func buildBarrierDiss(c *Comm, _ collCall, s *collSched) error {
	for sendTo, recvFrom := range collective.DisseminationPeers(c.rank, len(c.group)) {
		s.exchange(sendTo, nil, 0, recvFrom, nil, 0)
	}
	return nil
}

// barrierStart defers an eligible barrier to the fold gather, consuming
// the timed loop Comm.Repeat armed, and compiles it otherwise.
func (c *Comm) barrierStart() *collSched {
	rep := c.proc.takeRepeat()
	p := len(c.group)
	if p == 1 {
		return nil
	}
	if c.deferColl(collBarrier, 0, 0, 0, 0, rep) {
		return schedFoldPending
	}
	return c.compileBarrierSched()
}

// compileBarrierSched is the barrier's per-rank compile/replay — the
// schedule-fold fallback and the whole path when folding is off.
func (c *Comm) compileBarrierSched() *collSched {
	build := func(s *collSched) error { return buildBarrierDiss(c, collCall{}, s) }
	key := replayKey{ctx: c.ctx, coll: collBarrier}
	s, known := c.replaySched(key)
	if s != nil {
		s.coll = collBarrier
		return s
	}
	if !known {
		s, _ = c.compileCachedSched(key, 0, 0, build)
		if s != nil {
			s.coll = collBarrier
		}
		return s
	}
	s, _ = c.buildSched(0, 0, build)
	if s != nil {
		s.coll = collBarrier
	}
	return s
}

// bcastLargeMin is the message size at which Bcast switches from the
// binomial tree to scatter + ring allgather.
const bcastLargeMin = 512 * 1024

func init() {
	registerAlgorithm(Algorithm{
		Name:       "scatter_ring",
		Collective: CollBcast,
		Summary:    "binomial scatter + ring allgather (large messages)",
		Applicable: func(s Selection) bool {
			return s.Bytes >= s.Tuning.BcastScatterRingMin && s.CommSize > 2
		},
		build: buildBcastScatterRing,
	})
	registerAlgorithm(Algorithm{
		Name:       "binomial",
		Collective: CollBcast,
		Summary:    "binomial tree (small and medium messages)",
		Applicable: func(Selection) bool { return true },
		build:      buildBcastBinomial,
	})
}

// Bcast broadcasts buf from root to all ranks.
func (c *Comm) Bcast(buf []byte, root int) error { return c.BcastN(buf, len(buf), root) }

// BcastN broadcasts n bytes from root; buf may be nil in timing-only worlds.
func (c *Comm) BcastN(buf []byte, n, root int) error {
	s, err := c.bcastStart(buf, n, root)
	if err != nil || s == nil {
		return err
	}
	if err := c.driveSched(s); err != nil {
		return collError("Bcast", err)
	}
	return nil
}

// Ibcast starts a nonblocking broadcast of buf from root.
func (c *Comm) Ibcast(buf []byte, root int) (*Request, error) {
	return c.IbcastN(buf, len(buf), root)
}

// IbcastN is Ibcast with an explicit byte count.
func (c *Comm) IbcastN(buf []byte, n, root int) (*Request, error) {
	s, err := c.bcastStart(buf, n, root)
	if err != nil {
		return nil, err
	}
	return c.collRequest(s)
}

func (c *Comm) bcastStart(buf []byte, n, root int) (*collSched, error) {
	if err := c.checkRank(root, "Bcast root"); err != nil {
		return nil, err
	}
	p := len(c.group)
	if p == 1 {
		return nil, nil
	}
	s, err := c.startColl(CollBcast, &collCall{sbuf: buf, n: n, root: root}, n)
	if err != nil {
		return nil, collError("Bcast", err)
	}
	return s, nil
}

func buildBcastBinomial(c *Comm, call collCall, s *collSched) error {
	buf, n, root := call.sbuf, call.n, call.root
	p := len(c.group)
	if parent := collective.BinomialParent(c.rank, root, p); parent >= 0 {
		s.recv(parent, buf, n)
	}
	for child := range collective.BinomialChildren(c.rank, root, p) {
		s.send(child, buf, n)
	}
	return nil
}

// buildBcastScatterRing compiles the large-message broadcast: binomial
// scatter of blocks followed by a ring allgather.
func buildBcastScatterRing(c *Comm, call collCall, s *collSched) error {
	buf, n, root := call.sbuf, call.n, call.root
	p := len(c.group)
	bounds := c.blockBoundsFor(n, p, 1)
	// Relative rank r owns block r after the scatter.
	rel := (c.rank - root + p) % p

	// Scatter phase down the binomial tree: each node forwards the blocks
	// of its subtree. A node's subtree in relative ranks is [rel, rel+sub).
	if parent := collective.BinomialParent(c.rank, root, p); parent >= 0 {
		sub := subtreeSize(rel, p)
		lo, hi := bounds[rel], bounds[min(rel+sub, p)]
		s.recv(parent, sliceOrNil(buf, lo, hi), hi-lo)
	}
	for child := range collective.BinomialChildren(c.rank, root, p) {
		crel := (child - root + p) % p
		sub := subtreeSize(crel, p)
		lo, hi := bounds[crel], bounds[min(crel+sub, p)]
		s.send(child, sliceOrNil(buf, lo, hi), hi-lo)
	}

	// Ring allgather of the p blocks (in relative-rank order).
	sendTo := (c.rank + 1) % p
	recvFrom := (c.rank - 1 + p) % p
	have := rel
	for step := 0; step < p-1; step++ {
		want := (have - 1 + p) % p // block arriving this step (relative index)
		sLo, sHi := bounds[have], bounds[have+1]
		rLo, rHi := bounds[want], bounds[want+1]
		s.exchange(sendTo, sliceOrNil(buf, sLo, sHi), sHi-sLo,
			recvFrom, sliceOrNil(buf, rLo, rHi), rHi-rLo)
		have = want
	}
	return nil
}

// subtreeSize returns the size of the binomial subtree rooted at relative
// rank rel in a tree over p ranks.
func subtreeSize(rel, p int) int {
	if rel == 0 {
		return p
	}
	// The subtree of rel spans [rel, min(rel + lowbit(rel), p)).
	low := rel & (-rel)
	if rel+low > p {
		return p - rel
	}
	return low
}

// Reduce combines sbuf from every rank into rbuf at root using op over dt.
func (c *Comm) Reduce(sbuf, rbuf []byte, dt DType, op Op, root int) error {
	return c.ReduceN(sbuf, rbuf, len(sbuf), dt, op, root)
}

// ReduceN is Reduce with an explicit byte count; buffers may be nil in
// timing-only worlds.
func (c *Comm) ReduceN(sbuf, rbuf []byte, n int, dt DType, op Op, root int) error {
	s, err := c.reduceStart(sbuf, rbuf, n, dt, op, root)
	if err != nil || s == nil {
		return err
	}
	if err := c.driveSched(s); err != nil {
		return collError("Reduce", err)
	}
	return nil
}

func (c *Comm) reduceStart(sbuf, rbuf []byte, n int, dt DType, op Op, root int) (*collSched, error) {
	if err := c.checkRank(root, "Reduce root"); err != nil {
		return nil, err
	}
	if n%dt.Size() != 0 {
		return nil, sizeError("Reduce size", n, dt)
	}
	p := len(c.group)
	s := c.getSched()
	s.coll = collReduce
	s.dt, s.op = dt, op
	// Accumulator starts as a copy of the local contribution.
	var acc, tmp []byte
	if sbuf != nil {
		acc = s.scratch(n)
		copy(acc, sbuf[:n])
		tmp = s.scratch(n)
	}
	// Children are received in reverse binomial order (deepest subtrees
	// last) so that reductions happen as data arrives. The steps are sized
	// up front: a receive and a reduce per child, then the send or copy.
	nchild := 0
	for range collective.BinomialChildren(c.rank, root, p) {
		nchild++
	}
	s.steps = slices.Grow(s.steps, 2*nchild+1)
	for child := range collective.BinomialChildrenReversed(c.rank, root, p) {
		s.recv(child, tmp, n)
		s.reduce(acc, tmp, n)
	}
	if parent := collective.BinomialParent(c.rank, root, p); parent >= 0 {
		s.send(parent, acc, n)
		return s, nil
	}
	if rbuf != nil && acc != nil {
		s.copyStep(rbuf[:n], acc, n)
	}
	return s, nil
}

// Gather collects sbuf from every rank into rbuf at root, ordered by rank.
// len(rbuf) at root must be p*len(sbuf).
func (c *Comm) Gather(sbuf, rbuf []byte, root int) error {
	return c.GatherN(sbuf, len(sbuf), rbuf, root)
}

// GatherN is Gather with an explicit per-rank byte count.
func (c *Comm) GatherN(sbuf []byte, n int, rbuf []byte, root int) error {
	s, err := c.gatherStart(sbuf, n, rbuf, root)
	if err != nil || s == nil {
		return err
	}
	if err := c.driveSched(s); err != nil {
		return collError("Gather", err)
	}
	return nil
}

// Igather starts a nonblocking Gather.
func (c *Comm) Igather(sbuf, rbuf []byte, root int) (*Request, error) {
	return c.IgatherN(sbuf, len(sbuf), rbuf, root)
}

// IgatherN is Igather with an explicit per-rank byte count.
func (c *Comm) IgatherN(sbuf []byte, n int, rbuf []byte, root int) (*Request, error) {
	s, err := c.gatherStart(sbuf, n, rbuf, root)
	if err != nil {
		return nil, err
	}
	return c.collRequest(s)
}

func (c *Comm) gatherStart(sbuf []byte, n int, rbuf []byte, root int) (*collSched, error) {
	if err := c.checkRank(root, "Gather root"); err != nil {
		return nil, err
	}
	p := len(c.group)
	if c.rank == root && rbuf != nil && len(rbuf) < p*n {
		return nil, bufferError("Gather recv buffer", len(rbuf), p*n)
	}
	s := c.getSched()
	s.coll = collGather
	// Binomial gather in relative-rank space: each node accumulates the
	// blocks of its subtree contiguously (relative order), then root
	// rotates to absolute order.
	rel := (c.rank - root + p) % p
	sub := subtreeSize(rel, p)
	var stage []byte
	if sbuf != nil {
		stage = s.scratch(sub * n)
		copy(stage[:n], sbuf[:n])
	}
	for child := range collective.BinomialChildren(c.rank, root, p) {
		crel := (child - root + p) % p
		csub := subtreeSize(crel, p)
		off := (crel - rel) * n
		s.recv(child, sliceOrNil(stage, off, off+csub*n), csub*n)
	}
	if parent := collective.BinomialParent(c.rank, root, p); parent >= 0 {
		s.send(parent, stage, sub*n)
		return s, nil
	}
	if rbuf != nil && stage != nil {
		for r := 0; r < p; r++ {
			abs := (r + root) % p
			s.copyStep(rbuf[abs*n:(abs+1)*n], stage[r*n:(r+1)*n], n)
		}
	}
	return s, nil
}

// Scatter distributes p consecutive blocks of sbuf at root to the ranks.
// len(sbuf) at root must be p*len(rbuf).
func (c *Comm) Scatter(sbuf, rbuf []byte, root int) error {
	return c.ScatterN(sbuf, rbuf, len(rbuf), root)
}

// ScatterN is Scatter with an explicit per-rank byte count.
func (c *Comm) ScatterN(sbuf, rbuf []byte, n, root int) error {
	s, err := c.scatterStart(sbuf, rbuf, n, root)
	if err != nil || s == nil {
		return err
	}
	if err := c.driveSched(s); err != nil {
		return collError("Scatter", err)
	}
	return nil
}

func (c *Comm) scatterStart(sbuf, rbuf []byte, n, root int) (*collSched, error) {
	if err := c.checkRank(root, "Scatter root"); err != nil {
		return nil, err
	}
	p := len(c.group)
	if c.rank == root && sbuf != nil && len(sbuf) < p*n {
		return nil, bufferError("Scatter send buffer", len(sbuf), p*n)
	}
	s := c.getSched()
	s.coll = collScatter
	rel := (c.rank - root + p) % p
	sub := subtreeSize(rel, p)
	var stage []byte
	if c.rank == root {
		if sbuf != nil {
			// Stage in relative order so subtree blocks are contiguous.
			stage = s.scratch(p * n)
			for r := 0; r < p; r++ {
				abs := (r + root) % p
				copy(stage[r*n:(r+1)*n], sbuf[abs*n:(abs+1)*n])
			}
		}
	} else if parent := collective.BinomialParent(c.rank, root, p); parent >= 0 {
		if c.wantsData(rbuf) {
			stage = s.scratch(sub * n)
		}
		s.recv(parent, stage, sub*n)
	}
	for child := range collective.BinomialChildren(c.rank, root, p) {
		crel := (child - root + p) % p
		csub := subtreeSize(crel, p)
		off := (crel - rel) * n
		s.send(child, sliceOrNil(stage, off, off+csub*n), csub*n)
	}
	if rbuf != nil && stage != nil {
		s.copyStep(rbuf[:n], stage[:n], n)
	}
	return s, nil
}

// wantsData reports whether local staging buffers should be materialised.
func (c *Comm) wantsData(userBuf []byte) bool { return userBuf != nil }

// sliceOrNil returns buf[lo:hi] or nil when buf is nil (timing-only paths).
func sliceOrNil(buf []byte, lo, hi int) []byte {
	if buf == nil {
		return nil
	}
	return buf[lo:hi]
}

// blockBounds partitions n bytes into parts contiguous blocks whose
// boundaries are aligned to align bytes; it returns parts+1 offsets. The
// offsets are (elems*i/parts)*align, computed with a carry accumulator
// instead of a division per entry — the division loop was visible in the
// large-world profile.
func blockBounds(n, parts, align int) []int {
	if align <= 0 {
		align = 1
	}
	bounds := make([]int, parts+1)
	elems := n / align
	q, r := elems/parts, elems%parts
	off, t := 0, 0
	for i := 0; i <= parts; i++ {
		bounds[i] = off * align
		off += q
		if t += r; t >= parts {
			t -= parts
			off++
		}
	}
	bounds[parts] = n
	return bounds
}
