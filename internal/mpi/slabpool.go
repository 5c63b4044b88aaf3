package mpi

// Cross-world slab recycling. A benchmark sweep builds a fresh World per
// measured iteration, and at huge-world scale the dominant steady-state
// allocations are three O(ranks) slabs: the per-Run Proc and eventRank
// arrays (event.go) and the per-world mailbox array (NewWorld). At 64Ki
// ranks they total ~340MB per iteration — none of it survives the
// iteration, so a steady sweep spent a visible slice of its wall clock
// faulting in fresh zeroed pages and then garbage-collecting them.
//
// Each pool retains the single most recently released slab and hands it to
// the next world of any size up to its capacity: a sweep that moves to a
// smaller world (the huge_world benchmark's bcast at 8Ki ranks after two
// 16Ki-rank sweeps) reuses warm pages instead of allocating fresh ones. A
// take clears the part its world uses and the rest of the part the last
// world used, so the unused tail of a larger slab holds nothing from any
// older world (it would otherwise keep that world's per-rank garbage
// reachable). A slab too small for the world is left in the pool, and a
// fresh one is allocated; the next release displaces it. One slot is
// deliberate — a sweep runs one world size at a time, and a second
// resident slab would double retained memory without improving the
// steady-state hit rate. The one exception to clearing is an entry's
// staging-arena class tables (scratch.go): an entry the next world uses
// keeps them, emptied, so a data-carrying sweep allocates them once, not
// once per rank per world.
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
// recycling the retained pair when its capacity holds n.
func takeRankSlabs(n int) ([]Proc, []eventRank) {
	rankSlabPool.mu.Lock()
	procs, ers := rankSlabPool.procs, rankSlabPool.ers
	if cap(procs) >= n && cap(ers) >= n {
		rankSlabPool.procs, rankSlabPool.ers = nil, nil
	} else {
		procs, ers = nil, nil
	}
	rankSlabPool.mu.Unlock()
	if procs == nil {
		return make([]Proc, n), make([]eventRank, n)
	}
	return reuseArenaSlab(procs, n, func(p *Proc) *scratchArena { return &p.arena }), reuseSlab(ers, n)
}

// putRankSlabs retains a Run's rank slabs for the next Run.
func putRankSlabs(procs []Proc, ers []eventRank) {
	rankSlabPool.mu.Lock()
	rankSlabPool.procs, rankSlabPool.ers = procs, ers
	rankSlabPool.mu.Unlock()
}

// reuseSlab returns the first n entries of a released slab, zeroed. The
// slab's length is the part its last world used: clearing up to the larger
// of that and n leaves every entry past n zero, as it was when the slab
// was made, so the unused tail never carries an older world's pointers.
func reuseSlab[T any](slab []T, n int) []T {
	clear(slab[:max(len(slab), n)])
	return slab[:n]
}

// reuseArenaSlab is reuseSlab for slabs whose entries embed a staging
// arena: an entry the new world uses keeps its arena's class tables,
// emptied, so a data-carrying world does not allocate them afresh on
// every run. Entries past n drop theirs with the rest of their state.
func reuseArenaSlab[T any](slab []T, n int, arena func(*T) *scratchArena) []T {
	used := slab[:max(len(slab), n)]
	for i := range used {
		e := &used[i]
		cls := arena(e).cls
		clear(used[i : i+1])
		if cls != nil && i < n {
			*cls = scratchClasses{}
			arena(e).cls = cls
		}
	}
	return slab[:n]
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
	if cap(mbs) >= n {
		mailboxSlabPool.mbs = nil
	} else {
		mbs = nil
	}
	mailboxSlabPool.mu.Unlock()
	if mbs == nil {
		return make([]mailbox, n)
	}
	return reuseArenaSlab(mbs, n, func(mb *mailbox) *scratchArena { return &mb.pay })
}

func putMailboxSlab(mbs []mailbox) {
	mailboxSlabPool.mu.Lock()
	mailboxSlabPool.mbs = mbs
	mailboxSlabPool.mu.Unlock()
}
