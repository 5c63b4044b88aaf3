package mpi

import (
	"sync"
	"sync/atomic"
)

// Schedule replay. In a timing-only world the benchmark collectives pass
// nil buffers, so the schedule an algorithm compiles for a given
// (communicator, size, root, dtype, op) is the same flat step list on
// every invocation — only the internal tag differs. Rebuilding it per call
// is pure overhead (it was about a fifth of a large world's profile), so
// the executor compiles each distinct invocation shape once and replays
// the cached steps afterwards:
// re-stamp the tag, rewind the cursor, drive. Replay changes no clock
// arithmetic, so virtual times stay bit-identical; schedules that own
// staging buffers or reference user memory are never cached.

// replayKey identifies one reusable compiled-schedule shape. Keying by
// collective (not by selected algorithm) is sound because selection is a
// pure function of (collective, communicator size, bytes, tuning), all
// fixed per key within one world — and it lets a replay hit skip the
// selection walk entirely.
type replayKey struct {
	ctx  int
	coll Collective
	n    int
	root int
	dt   DType
	op   Op
}

// replayable reports whether a call's schedule can be cached: nothing in
// the step list may reference caller-owned memory, which is guaranteed
// exactly when the call carries no buffers and no per-call counts.
func (call *collCall) replayable() bool {
	return call.sbuf == nil && call.rbuf == nil && call.counts == nil
}

// replayEntry is one slot of a rank's replay cache.
type replayEntry struct {
	key replayKey
	s   *collSched
}

// replaySched returns the cached schedule for key, re-armed for a new
// invocation. known reports whether an entry for the key exists at all:
// when it does but is still in flight (an overlapping nonblocking
// invocation), the caller builds a fresh one-off schedule and must NOT
// retain it — the cache holds exactly one entry per key.
func (c *Comm) replaySched(key replayKey) (s *collSched, known bool) {
	for i := range c.proc.replay {
		if c.proc.replay[i].key == key {
			s = c.proc.replay[i].s
			break
		}
	}
	if s == nil {
		return nil, false
	}
	if s.inUse {
		return nil, true
	}
	s.inUse = true
	s.tag = c.nextCollTag()
	s.pc, s.postIdx = 0, 0
	s.phase = 0
	s.pending, s.pendingSet = nil, false
	s.owner = nil
	s.faultEntered = false
	return s, true
}

// stepKey identifies a compiled step list independently of any world: the
// selected algorithm (a stable registry pointer — it also captures the
// collective and, transitively, the tuning decision), the rank's position,
// and the invocation shape. Step lists built from nil buffers contain no
// world state at all, so identical keys compile to identical steps.
type stepKey struct {
	alg      *Algorithm
	rank     int
	commSize int
	n        int
	root     int
	dt       DType
	op       Op
}

// stepCache shares compiled step lists across worlds (sync.Map: sweeps run
// worlds in parallel). Benchmarks and sweeps rebuild the same world shape
// over and over; compiling each rank's schedule once per process instead
// of once per world takes schedule building off the steady-state profile
// entirely. Entries are immutable once stored.
var stepCache sync.Map

// stepCacheBytes bounds the cache: pathological sweeps (thousands of
// distinct shapes, or pairwise alltoall at thousands of ranks) stop
// inserting rather than grow without limit; per-world replay still works.
var stepCacheBytes atomic.Int64

const stepCacheMaxSteps = 512

// stepCacheMaxBytes is the shared step-list budget. It starts sized for
// few-thousand-rank worlds and is widened by growEventCaches when a larger
// event world is constructed: the cache only helps when it can hold every
// rank's compiled steps, and a 64Ki-rank sweep that overflows it pays a
// full per-rank rebuild each run — measurably slower than the retained
// memory is expensive. The ceiling still exists (growEventCaches clamps),
// so pathological shape sweeps cannot grow the cache without bound.
var stepCacheMaxBytes atomic.Int64

func init() {
	stepCacheMaxBytes.Store(128 << 20)
	schedStore.max = 128 << 20
}

// loadSharedSteps returns the process-wide compiled step list for key.
func loadSharedSteps(key stepKey) ([]collStep, bool) {
	v, ok := stepCache.Load(key)
	if !ok {
		return nil, false
	}
	return v.([]collStep), true
}

// storeSharedSteps publishes a freshly compiled step list, within budget.
// It reports whether the caller's slice became the shared entry.
//
// The order matters: reserve budget, then LoadOrStore, and refund through
// exactly one exit path. An earlier version charged the budget and had two
// independent refund sites; a race between them could refund the same
// reservation twice, leaking negative bytes into the accounting until the
// budget check stopped meaning anything.
func storeSharedSteps(key stepKey, steps []collStep) bool {
	n := len(steps)
	if n > stepCacheMaxSteps {
		return false
	}
	if _, exists := stepCache.Load(key); exists {
		// Lost the publish race (or a replay raced a rebuild): nothing was
		// reserved, nothing to refund.
		return false
	}
	bytes := int64(n) * int64(96) // ~unsafe.Sizeof(collStep{})
	if stepCacheBytes.Add(bytes) <= stepCacheMaxBytes.Load() {
		if _, raced := stepCache.LoadOrStore(key, steps[:n:n]); !raced {
			return true
		}
		// A parallel world published this key between the Load and here:
		// refund the one reservation.
		stepCacheBytes.Add(-bytes)
		return false
	}
	stepCacheBytes.Add(-bytes)
	// Budget overflow: this shape will be recompiled per world from now on.
	// Count it — silent reuse degradation looks exactly like a perf
	// regression (see CacheOverflowCount; bench.sh fails loudly on it).
	cacheOverflows.Add(1)
	return false
}

// buildSched compiles a one-off schedule through the normal pool
// lifecycle.
func (c *Comm) buildSched(dt DType, op Op, build func(*collSched) error) (*collSched, error) {
	s := c.getSched()
	s.dt, s.op = dt, op
	if err := build(s); err != nil {
		s.finish()
		return nil, err
	}
	return s, nil
}

// compileCachedSched is the miss path of the replay-cache protocol shared
// by every cacheable collective start (the caller has already tried
// replaySched and owns the key's single cache slot): borrow the
// process-wide compiled steps if another world published them, else build
// and publish, retaining the schedule for this world's replays either way.
func (c *Comm) compileCachedSched(key replayKey, skey stepKey, dt DType, op Op, build func(*collSched) error) (*collSched, error) {
	if steps, ok := loadSharedSteps(skey); ok {
		s := c.getSchedLight()
		s.dt, s.op = dt, op
		s.own = s.steps[:0] // park owned capacity for the borrow's duration
		s.steps = steps
		s.shared = true
		c.retainSched(key, s)
		return s, nil
	}
	s, err := c.buildSched(dt, op, build)
	if err != nil {
		return nil, err
	}
	c.retainSched(key, s)
	if s.cached && storeSharedSteps(skey, s.steps) {
		s.shared = true
	}
	return s, nil
}

// schedStore recycles schedule objects (with their step- and price-array
// capacity) across worlds. Sweeps and benchmarks build thousands of
// short-lived worlds; without recycling, every world pays the full
// step-array allocation bill again, and the replay cache makes that bill
// per-rank. The store is an explicitly bounded freelist rather than a
// sync.Pool: a huge world triggers several GC cycles per run, and a
// sync.Pool drained that often recycles nothing between runs. The byte cap
// bounds retained memory instead; schedules beyond it are dropped to the
// GC. Run's teardown feeds the store (it sees every rank's pools at once).
// The store keeps two classes: light schedules own no step storage (replay
// shells whose steps are borrowed from the stepCache) and cost ~3KB of
// retained price capacity, while heavy schedules carry an owned step array
// for builders. Handing a heavy schedule to a borrow parks kilobytes of
// step capacity where they are never appended to, and handing a light one
// to a builder regrows the step array through every doubling — so each
// path asks for its own class and falls back to the other only when empty.
var schedStore schedStoreState

type schedStoreState struct {
	mu    sync.Mutex
	light []*collSched
	heavy []*collSched
	bytes int64
	// max is the retention budget; see growEventCaches.
	max int64
}

// keep scrubs s and retains it in its class, within budget. The caller
// holds st.mu.
func (st *schedStoreState) keep(s *collSched) {
	scrubSched(s)
	if fp := schedFootprint(s); st.bytes+fp <= st.max {
		st.bytes += fp
		if cap(s.steps) == 0 {
			st.light = append(st.light, s)
		} else {
			st.heavy = append(st.heavy, s)
		}
		return
	}
	// Budget overflow: the schedule is dropped to the GC and the next world
	// re-allocates it. Count it — see CacheOverflowCount.
	cacheOverflows.Add(1)
}

// schedStore.max starts sized to cover the full working set of a
// few-thousand-rank world (each rank retains a handful of schedules at
// ~1-6KB apiece) and is widened by growEventCaches for larger worlds.

// growEventCaches widens the cross-world schedule and step-list budgets to
// cover one world of the given rank count, clamped to a hard ceiling. The
// budgets are ceilings, not preallocations: memory is only retained when a
// world of that scale actually runs, and then it is exactly the working
// set the next run of the same sweep wants back. Budgets never shrink —
// a sweep mixing sizes keeps the largest world's set.
func growEventCaches(ranks int) {
	// Per rank and world: ~6 retained schedules (a replay entry per
	// collective shape plus builder spares) at ~4KB of scrubbed capacity,
	// and ~4 shared step lists at ~3KB.
	const (
		schedPerRank = 24 << 10
		stepsPerRank = 16 << 10
		hardMax      = int64(2) << 30
	)
	want := min(int64(ranks)*schedPerRank, hardMax)
	st := &schedStore
	st.mu.Lock()
	st.max = max(st.max, want)
	st.mu.Unlock()
	want = min(int64(ranks)*stepsPerRank, hardMax/2)
	for {
		cur := stepCacheMaxBytes.Load()
		if want <= cur || stepCacheMaxBytes.CompareAndSwap(cur, want) {
			break
		}
	}
}

// schedFootprint estimates the retained bytes of a scrubbed schedule.
func schedFootprint(s *collSched) int64 {
	return 192 + int64(cap(s.steps))*96 + int64(cap(s.prices))*112 +
		int64(cap(s.bufs))*24 + int64(cap(s.ints))*24
}

// getPooledSched draws a scrubbed schedule from the cross-world store,
// preferring the requested class.
func getPooledSched(light bool) *collSched {
	st := &schedStore
	st.mu.Lock()
	pref, alt := &st.light, &st.heavy
	if !light {
		pref, alt = alt, pref
	}
	list := pref
	if len(*list) == 0 {
		list = alt
	}
	n := len(*list)
	if n == 0 {
		st.mu.Unlock()
		return nil
	}
	s := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	st.bytes -= schedFootprint(s)
	st.mu.Unlock()
	return s
}

// harvestScheds scrubs and returns a finished rank's schedules (its
// freelist and its replay cache) to the cross-world store, one lock
// round-trip per rank.
func (p *Proc) harvestScheds() {
	if len(p.schedFree) == 0 && len(p.replay) == 0 {
		return
	}
	st := &schedStore
	st.mu.Lock()
	for _, s := range p.schedFree {
		st.keep(s)
	}
	for _, ent := range p.replay {
		st.keep(ent.s)
	}
	st.mu.Unlock()
	p.schedFree = nil
	p.replay = nil
}

// scrubSched strips a schedule of everything world-specific so it can be
// reused by any future world: buffer references, pricing, its communicator.
func scrubSched(s *collSched) {
	if s.shared {
		// Borrowed from (or published to) the stepCache: drop the reference
		// — the array must never be appended to or scrubbed — and restore
		// the owned storage parked during the borrow.
		s.steps = s.own[:0]
		s.own = nil
		s.shared = false
	} else {
		for i := range s.steps {
			s.steps[i].dst, s.steps[i].src = nil, nil
		}
		s.steps = s.steps[:0]
	}
	clear(s.bufs[:cap(s.bufs)])
	s.bufs = s.bufs[:0]
	s.ints = s.ints[:0]
	s.c = nil
	s.prices = s.prices[:0]
	s.cached, s.inUse = false, false
	s.pending, s.pendingSet = nil, false
	s.phase = 0
	s.owner = nil
	s.coll, s.faultEntered = "", false
}

// retainSched enters a freshly built schedule into the replay cache when
// its step list is self-contained (no staging buffers, no offset slices).
func (c *Comm) retainSched(key replayKey, s *collSched) {
	if len(s.bufs) != 0 || len(s.ints) != 0 {
		return
	}
	s.cached = true
	s.inUse = true
	posts := 0
	for i := range s.steps {
		switch s.steps[i].op {
		case opPost, opSend, opExchange:
			posts++
		}
	}
	if cap(s.prices) >= posts {
		s.prices = s.prices[:posts]
		for i := range s.prices {
			s.prices[i] = stepPrice{}
		}
	} else {
		// Round the capacity up: recycled schedules cycle between shapes
		// (barrier, allreduce, reduce) whose post counts stay under two
		// dozen even at 64Ki ranks, and a single rounded array stops the
		// churn of regrowing per shape.
		s.prices = make([]stepPrice, posts, max(posts, 24))
	}
	// The schedule was just built and is about to be driven for the first
	// time; its price cursor starts at the first post.
	s.postIdx = 0
	c.proc.replay = append(c.proc.replay, replayEntry{key: key, s: s})
}
