package mpi

import "repro/internal/collective"

// schedCache memoises the communication schedules a rank replays on every
// collective invocation. Benchmark loops call the same collective with the
// same communicator shape thousands of times; the schedules depend only on
// (communicator rank, size, root), so one slot per schedule kind turns the
// per-invocation allocations of internal/collective into cache hits. The
// cache lives on the Proc and is keyed by the communicator rank too, so
// sub-communicators (Split, Dup) stay correct. Cached slices are read-only
// by convention: the collectives only iterate them.
type schedCache struct {
	dissRank, dissP    int
	dissSend, dissRecv []int

	childRank, childRoot, childP int
	children                     []int
	childrenSet                  bool

	rdRank, rdP int
	rdPeers     []int

	halvRank, halvP int
	halving         []collective.RecursiveHalvingStep

	agRank, agP int
	allgather   []collective.RecursiveDoublingAllgatherStep

	bruckRank, bruckP int
	bruck             []collective.BruckStep
}

// dissPeers returns the cached dissemination-barrier peer lists.
func (c *Comm) dissPeers(p int) (sendTo, recvFrom []int) {
	sc := &c.proc.sched
	if sc.dissSend == nil || sc.dissRank != c.rank || sc.dissP != p {
		sc.dissSend, sc.dissRecv = collective.DisseminationPeers(c.rank, p)
		sc.dissRank, sc.dissP = c.rank, p
	}
	return sc.dissSend, sc.dissRecv
}

// binomialChildren returns the cached binomial-tree children of this rank.
func (c *Comm) binomialChildren(root, p int) []int {
	sc := &c.proc.sched
	if !sc.childrenSet || sc.childRank != c.rank || sc.childRoot != root || sc.childP != p {
		sc.children = collective.BinomialChildren(c.rank, root, p)
		sc.childRank, sc.childRoot, sc.childP, sc.childrenSet = c.rank, root, p, true
	}
	return sc.children
}

// rdPeersFor returns the cached recursive-doubling partner list.
func (c *Comm) rdPeersFor(newRank, pof2 int) []int {
	sc := &c.proc.sched
	if sc.rdPeers == nil || sc.rdRank != newRank || sc.rdP != pof2 {
		sc.rdPeers = collective.RecursiveDoublingPeers(newRank, pof2)
		sc.rdRank, sc.rdP = newRank, pof2
	}
	return sc.rdPeers
}

// halvingSchedule returns the cached recursive-halving schedule.
func (c *Comm) halvingSchedule(newRank, pof2 int) []collective.RecursiveHalvingStep {
	sc := &c.proc.sched
	if sc.halving == nil || sc.halvRank != newRank || sc.halvP != pof2 {
		sc.halving = collective.RecursiveHalvingSchedule(newRank, pof2)
		sc.halvRank, sc.halvP = newRank, pof2
	}
	return sc.halving
}

// allgatherSchedule returns the cached recursive-doubling allgather schedule.
func (c *Comm) allgatherSchedule(newRank, pof2 int) []collective.RecursiveDoublingAllgatherStep {
	sc := &c.proc.sched
	if sc.allgather == nil || sc.agRank != newRank || sc.agP != pof2 {
		sc.allgather = collective.RecursiveDoublingAllgatherSchedule(newRank, pof2)
		sc.agRank, sc.agP = newRank, pof2
	}
	return sc.allgather
}

// bruckSchedule returns the cached Bruck exchange rounds.
func (c *Comm) bruckSchedule(p int) []collective.BruckStep {
	sc := &c.proc.sched
	if sc.bruck == nil || sc.bruckRank != c.rank || sc.bruckP != p {
		sc.bruck = collective.BruckSchedule(c.rank, p)
		sc.bruckRank, sc.bruckP = c.rank, p
	}
	return sc.bruck
}

// blockBoundsFor returns the aligned block partition of n bytes through
// the world's one partition slot: the bounds depend on nothing else, so
// every rank of the world shares one slice (a huge world computing the same
// 4096-block partition once per rank would allocate O(size^2) aggregate
// ints per run). A world's ranks run on one goroutine, so the slot needs no
// lock. The bounds are consumed at schedule-build time only (their values
// are baked into the compiled steps), and a slice is never mutated once
// handed out, so it stays valid after the slot moves on to another key.
func (c *Comm) blockBoundsFor(n, parts, align int) []int {
	w := c.proc.world
	if w.bounds == nil || w.boundsN != n || w.boundsParts != parts || w.boundsAlign != align {
		w.bounds = blockBounds(n, parts, align)
		w.boundsN, w.boundsParts, w.boundsAlign = n, parts, align
	}
	return w.bounds
}
