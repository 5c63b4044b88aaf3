// Package collective defines the communication schedules used by the MPI
// runtime's collective operations: binomial trees, recursive doubling and
// halving, dissemination, ring passes and Bruck's algorithm. Every
// schedule is closed-form in the rank's bits (Thakur, Rabenseifner and
// Gropp, "Optimization of Collective Communication Operations in MPICH",
// IJHPCA 2005), so a multi-round schedule is an iterator that computes each
// round as it is yielded and allocates nothing: the runtime compiles one
// schedule per rank, and at tens of thousands of ranks a peer list per rank
// is garbage nobody reads twice. The iterator constructors stay small
// enough to inline (their panics are constant strings), which keeps each
// iterator and its loop body on the caller's stack.
//
// The functions are pure -- they map (rank, size, root) to peers and block
// windows -- so every schedule is unit tested independently of the
// message-passing machinery, and the runtime's collectives are thin loops
// over these schedules.
package collective

import (
	"fmt"
	"iter"
)

// Pof2Floor returns the largest power of two not exceeding p (p >= 1).
func Pof2Floor(p int) int {
	if p < 1 {
		panic(fmt.Sprintf("collective: Pof2Floor(%d)", p))
	}
	v := 1
	for v*2 <= p {
		v *= 2
	}
	return v
}

// IsPof2 reports whether p is a power of two.
func IsPof2(p int) bool { return p >= 1 && p&(p-1) == 0 }

// Log2Ceil returns ceil(log2(p)) for p >= 1.
func Log2Ceil(p int) int {
	n, v := 0, 1
	for v < p {
		v *= 2
		n++
	}
	return n
}

// relRank translates an absolute rank into the tree rooted at root.
func relRank(rank, root, size int) int { return (rank - root + size) % size }

// absRank translates a tree-relative rank back to an absolute rank.
func absRank(rel, root, size int) int { return (rel + root) % size }

// BinomialParent returns the parent of rank in the binomial tree rooted at
// root, or -1 for the root itself.
func BinomialParent(rank, root, size int) int {
	rel := relRank(rank, root, size)
	if rel == 0 {
		return -1
	}
	// Clear the lowest set bit to find the parent.
	return absRank(rel&(rel-1), root, size)
}

// binomialMask returns the bound below which the child offsets of
// relative rank rel lie: rel's lowest set bit, or the first power of two
// not below size for the root. The children of rel are rel+m for every
// power of two m below the mask, while rel+m stays in range.
func binomialMask(rel, size int) int {
	mask := 1
	for mask < size && rel&mask == 0 {
		mask <<= 1
	}
	return mask
}

// BinomialChildren yields the children of rank in the binomial tree rooted
// at root, in the order a binomial broadcast sends to them (largest subtree
// first).
func BinomialChildren(rank, root, size int) iter.Seq[int] {
	rel := relRank(rank, root, size)
	mask := binomialMask(rel, size)
	return func(yield func(int) bool) {
		for m := mask >> 1; m > 0; m >>= 1 {
			if child := rel + m; child < size && !yield(absRank(child, root, size)) {
				return
			}
		}
	}
}

// BinomialChildrenReversed yields BinomialChildren in reverse order
// (smallest subtree first), the order a binomial reduce receives in so
// that it reduces data as it arrives.
func BinomialChildrenReversed(rank, root, size int) iter.Seq[int] {
	rel := relRank(rank, root, size)
	mask := binomialMask(rel, size)
	return func(yield func(int) bool) {
		for m := 1; m < mask && rel+m < size; m <<= 1 {
			if !yield(absRank(rel+m, root, size)) {
				return
			}
		}
	}
}

// DisseminationPeers yields the (sendTo, recvFrom) peer pair of each round
// of the dissemination barrier for rank in a communicator of the given
// size: round k sends to rank+2^k and receives from rank-2^k (mod size).
func DisseminationPeers(rank, size int) iter.Seq2[int, int] {
	return func(yield func(sendTo, recvFrom int) bool) {
		for k := 1; k < size; k *= 2 {
			if !yield((rank+k)%size, (rank-k+size)%size) {
				return
			}
		}
	}
}

// RecursiveDoublingPeers yields the exchange partner per round for a
// power-of-two communicator: round k's partner is rank XOR 2^k.
// It panics if size is not a power of two; callers fold remainders first.
func RecursiveDoublingPeers(rank, size int) iter.Seq[int] {
	if !IsPof2(size) {
		panic("collective: RecursiveDoublingPeers size not a power of two")
	}
	return func(yield func(int) bool) {
		for mask := 1; mask < size; mask *= 2 {
			if !yield(rank ^ mask) {
				return
			}
		}
	}
}

// Pof2Fold describes how a non-power-of-two communicator folds onto its
// largest power-of-two subset before a recursive-doubling phase, following
// the classic MPICH scheme: with r = size - pof2, the first 2r ranks pair
// up (even sends to odd) and odd ranks of those pairs plus ranks >= 2r form
// the power-of-two group.
type Pof2Fold struct {
	Pof2 int
	// Role of this rank: one of FoldSender, FoldReceiver, FoldInside.
	Role FoldRole
	// Partner is the pair partner for senders/receivers, -1 otherwise.
	Partner int
	// NewRank is the rank within the power-of-two group, -1 for senders.
	NewRank int
}

// FoldRole classifies a rank's part in the fold.
type FoldRole int

// Fold roles.
const (
	// FoldSender hands its data to Partner and sits out the main phase.
	FoldSender FoldRole = iota
	// FoldReceiver absorbs Partner's data and participates.
	FoldReceiver
	// FoldInside participates directly (no pairing needed).
	FoldInside
)

// NewPof2Fold computes the fold for rank in a communicator of size ranks.
func NewPof2Fold(rank, size int) Pof2Fold {
	pof2 := Pof2Floor(size)
	r := size - pof2
	switch {
	case rank < 2*r && rank%2 == 0:
		return Pof2Fold{Pof2: pof2, Role: FoldSender, Partner: rank + 1, NewRank: -1}
	case rank < 2*r:
		return Pof2Fold{Pof2: pof2, Role: FoldReceiver, Partner: rank - 1, NewRank: rank / 2}
	default:
		return Pof2Fold{Pof2: pof2, Role: FoldInside, Partner: -1, NewRank: rank - r}
	}
}

// OldRank inverts the fold: the absolute rank holding power-of-two rank nr.
func (f Pof2Fold) OldRank(nr, size int) int {
	r := size - f.Pof2
	if nr < r {
		return nr*2 + 1
	}
	return nr + r
}

// RingNeighbors returns the (sendTo, recvFrom) neighbours of the increasing
// ring: rank sends to rank+1 and receives from rank-1 (mod size).
func RingNeighbors(rank, size int) (sendTo, recvFrom int) {
	return (rank + 1) % size, (rank - 1 + size) % size
}

// BruckStep describes one round of Bruck's allgather/alltoall: the rank
// sends to sendTo, receives from recvFrom, moving blockCount blocks.
type BruckStep struct {
	SendTo, RecvFrom int
	BlockCount       int
}

// BruckSchedule yields the rounds of Bruck's algorithm for a communicator
// of the given size: ceil(log2(size)) rounds, round k exchanging
// min(2^k, size-2^k) blocks with peers at distance 2^k.
func BruckSchedule(rank, size int) iter.Seq[BruckStep] {
	return func(yield func(BruckStep) bool) {
		for k := 1; k < size; k *= 2 {
			st := BruckStep{
				SendTo:     (rank - k + size) % size,
				RecvFrom:   (rank + k) % size,
				BlockCount: min(k, size-k),
			}
			if !yield(st) {
				return
			}
		}
	}
}

// PairwisePeer returns the peer of rank in round k of the pairwise
// alltoall exchange. For power-of-two communicator sizes this is the
// XOR-based perfectly balanced schedule (rounds 1 <= k < size, no idle
// ranks). Every other size uses the shifted-sum schedule (k - rank) mod
// size over rounds 0 <= k < size: a self-inverse pairing for any size, in
// which each rank sits out exactly the round k = 2*rank mod size and
// meets every other rank exactly once. XOR must not be used merely for
// even sizes: it is only closed over the group when size is a power of
// two (224 ranks, round 95: rank 157 would address 250).
func PairwisePeer(rank, size, k int) int {
	if IsPof2(size) {
		return rank ^ k
	}
	return (k - rank + size) % size
}

// RecursiveHalvingStep describes one round of recursive-halving
// reduce-scatter on a power-of-two group: exchange with Peer, keep the
// half [KeepLo, KeepHi) of the current window.
type RecursiveHalvingStep struct {
	Peer           int
	KeepLo, KeepHi int // block indices of the window kept after the round
	SendLo, SendHi int // block indices sent to the peer
}

// halvingRound is the round with mask m of recursive halving for newRank:
// the windows are the aligned m-block runs holding newRank and its peer
// newRank^m, so the kept window starts at newRank &^ (m-1) and the sent one
// at (newRank^m) &^ (m-1).
func halvingRound(newRank, m int) RecursiveHalvingStep {
	keep := newRank &^ (m - 1)
	send := (newRank ^ m) &^ (m - 1)
	return RecursiveHalvingStep{Peer: newRank ^ m,
		KeepLo: keep, KeepHi: keep + m, SendLo: send, SendHi: send + m}
}

// RecursiveHalvingSchedule yields the reduce-scatter rounds for newRank in
// a power-of-two group of size pof2 over pof2 equal blocks: masks pof2/2
// down to 1, each round halving the window the rank keeps.
func RecursiveHalvingSchedule(newRank, pof2 int) iter.Seq[RecursiveHalvingStep] {
	if !IsPof2(pof2) {
		panic("collective: RecursiveHalvingSchedule size not a power of two")
	}
	return func(yield func(RecursiveHalvingStep) bool) {
		for m := pof2 / 2; m > 0; m /= 2 {
			if !yield(halvingRound(newRank, m)) {
				return
			}
		}
	}
}

// RecursiveDoublingAllgatherStep describes one round of the allgather phase
// that mirrors recursive halving: exchange the accumulated window with Peer.
type RecursiveDoublingAllgatherStep struct {
	Peer           int
	HaveLo, HaveHi int // window owned before the round
	GetLo, GetHi   int // window received from the peer
}

// RecursiveDoublingAllgatherSchedule yields the allgather rounds that undo
// RecursiveHalvingSchedule: its rounds in reverse (masks 1 up to pof2/2),
// each doubling the owned window until it holds all blocks.
func RecursiveDoublingAllgatherSchedule(newRank, pof2 int) iter.Seq[RecursiveDoublingAllgatherStep] {
	if !IsPof2(pof2) {
		panic("collective: RecursiveDoublingAllgatherSchedule size not a power of two")
	}
	return func(yield func(RecursiveDoublingAllgatherStep) bool) {
		for m := 1; m < pof2; m *= 2 {
			h := halvingRound(newRank, m)
			st := RecursiveDoublingAllgatherStep{Peer: h.Peer,
				HaveLo: h.KeepLo, HaveHi: h.KeepHi, GetLo: h.SendLo, GetHi: h.SendHi}
			if !yield(st) {
				return
			}
		}
	}
}
