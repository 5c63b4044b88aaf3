package mpi

// Cross-world slab recycling. A benchmark sweep builds a fresh World per
// measured iteration, and at huge-world scale the dominant steady-state
// allocations are three O(ranks) slabs: the per-Run Proc and eventRank
// arrays (event.go) and the per-world mailbox array (NewWorld). At 64Ki
// ranks they total ~340MB per iteration — none of it survives the
// iteration, so a steady sweep spent a visible slice of its wall clock
// faulting in fresh zeroed pages and then garbage-collecting them.
//
// Each pool retains the single most recently released slab. Reuse is
// keyed on exact length: a match is cleared in place (one memclr over
// warm pages) and handed back; a mismatch allocates fresh, and the
// retained slab stays put until a release of the new size displaces it.
// One slot is deliberate — a sweep runs one world size at a time, and a
// second resident size would double retained memory without improving
// the steady-state hit rate.
//
// Safety: a recycled slab may serve any future World, so a release must
// happen only after every pointer into the slab from longer-lived
// structures is severed. Run's teardown clears mailbox owners and
// harvests schedules (scrubSched drops s.c) before releasing the rank
// slabs; World.Release drops the world's own mailbox references before
// releasing that slab. The clear() on take makes stale *contents*
// harmless — only a dangling pointer INTO a slab could corrupt, and the
// per-Proc freelists (requests, rendezvous, schedules after harvest) all
// live inside the slab they die with.

import "sync"

var rankSlabPool struct {
	mu    sync.Mutex
	procs []Proc
	ers   []eventRank
}

// takeRankSlabs returns zeroed Proc and eventRank slabs of length n,
// recycling the retained pair when the size matches.
func takeRankSlabs(n int) ([]Proc, []eventRank) {
	rankSlabPool.mu.Lock()
	procs, ers := rankSlabPool.procs, rankSlabPool.ers
	if len(procs) == n {
		rankSlabPool.procs, rankSlabPool.ers = nil, nil
	} else {
		procs, ers = nil, nil
	}
	rankSlabPool.mu.Unlock()
	if procs == nil {
		return make([]Proc, n), make([]eventRank, n)
	}
	clear(procs)
	clear(ers)
	return procs, ers
}

// putRankSlabs retains a Run's rank slabs for the next same-sized Run.
func putRankSlabs(procs []Proc, ers []eventRank) {
	rankSlabPool.mu.Lock()
	rankSlabPool.procs, rankSlabPool.ers = procs, ers
	rankSlabPool.mu.Unlock()
}

var mailboxSlabPool struct {
	mu  sync.Mutex
	mbs []mailbox
}

// takeMailboxSlab returns a zeroed mailbox slab of length n; the caller
// sets each mailbox's size over it.
func takeMailboxSlab(n int) []mailbox {
	mailboxSlabPool.mu.Lock()
	mbs := mailboxSlabPool.mbs
	if len(mbs) == n {
		mailboxSlabPool.mbs = nil
	} else {
		mbs = nil
	}
	mailboxSlabPool.mu.Unlock()
	if mbs == nil {
		return make([]mailbox, n)
	}
	clear(mbs)
	return mbs
}

func putMailboxSlab(mbs []mailbox) {
	mailboxSlabPool.mu.Lock()
	mailboxSlabPool.mbs = mbs
	mailboxSlabPool.mu.Unlock()
}
