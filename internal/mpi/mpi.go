// Package mpi implements a complete MPI-like message-passing runtime in Go
// with deterministic virtual timing. Ranks are coroutines of one
// discrete-event loop (event.go); payload bytes really move through
// per-rank mailboxes with tag matching; blocking semantics (eager vs
// rendezvous) follow the protocol selected by the network model; and every
// operation advances the rank's virtual clock so the micro-benchmarks built
// on top report reproducible latencies.
//
// The package provides communicators, blocking point-to-point operations,
// and the blocking collectives of the paper's Table II (plus their vector
// variants), with algorithm selection that mirrors MVAPICH2's tuning:
// binomial trees, recursive doubling/halving, Rabenseifner's allreduce,
// Bruck and pairwise alltoall, and ring allgather.
package mpi

import (
	"fmt"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/netmodel"
	"repro/internal/topology"
	"repro/internal/vtime"
)

// Wildcards and limits.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
	// MaxUserTag is the largest tag available to applications; higher tags
	// are reserved for internal collective traffic.
	MaxUserTag = 1<<20 - 1
)

// Config describes a world to be created.
type Config struct {
	// Placement maps ranks onto a cluster (required).
	Placement *topology.Placement
	// Model prices every event (required).
	Model *netmodel.Model
	// Engine is ignored: every world runs on the event loop.
	//
	// Deprecated: leave it unset.
	Engine Engine
	// PyMode applies the Python-binding penalty model (THREAD_MULTIPLE
	// locking and shared-memory degradation) to every operation; it is set
	// by the mpi4py layer and off for the C (OMB) baseline.
	PyMode bool
	// CarryData disables payload movement when false: messages carry only
	// sizes and timing, which lets the huge-scale experiments (896 ranks x
	// megabyte buffers) run without allocating terabytes. Correctness tests
	// always run with CarryData true.
	CarryData bool
	// Trace, when non-nil, records every message endpoint with virtual
	// timestamps for message-complexity analysis.
	Trace *Trace
	// Tuning overrides collective algorithm-selection thresholds; zero
	// fields keep the shipped defaults.
	Tuning Tuning
	// Algorithms forces a named algorithm per collective, bypassing the
	// threshold policy the way MVAPICH2's MV2_*_ALGORITHM environment
	// knobs do. Values may use registered aliases ("rd", "raben", ...);
	// unknown names fail NewWorld. Missing or empty entries keep the
	// Tuning-driven selection.
	Algorithms map[Collective]string
	// DisableFold turns off the event engine's symmetry folding (fold.go),
	// forcing per-rank simulation of every collective. A debugging escape
	// hatch: folding is bit-identical to per-rank execution, so the only
	// observable difference is speed.
	DisableFold bool
	// Faults installs a deterministic fault-injection plan (rank kills,
	// OS-noise stragglers, link jitter; see internal/faults). nil simulates
	// a perfect machine at zero cost on the hot path. A plan with kills
	// arms the failure semantics of fault.go: killed ranks stop with
	// RankKilledError, surviving ranks' blocked operations complete with
	// RankFailedError instead of deadlocking.
	Faults *faults.Plan
}

// Engine named an execution substrate when the runtime had two.
//
// Deprecated: the event loop is the only executor and Config.Engine is
// ignored.
type Engine int

// EngineEvent is the discrete-event executor, the only one.
//
// Deprecated: see Engine.
const EngineEvent Engine = 1

// World is a set of ranks sharing mailboxes and a cost model.
type World struct {
	cfg       Config
	size      int
	fullSub   bool
	policy    Policy
	mailboxes []*mailbox
	// mbSlab is the backing array of mailboxes, kept so Release can return
	// it to the cross-world slab pool (slabpool.go).
	mbSlab []mailbox
	// worldGroup is the identity rank mapping shared by every rank's
	// CommWorld communicator; it is never mutated after NewWorld.
	worldGroup []int

	// Link classification is a pure function of the placement, so it is
	// tabulated once here and shared by every rank (the per-rank caches of
	// earlier engines cost O(size^2) aggregate memory). Small worlds get the
	// direct size*size table; large worlds index through placement domains
	// (node x socket), of which there are only nodes*sockets.
	linkTab  []topology.LinkClass // size*size, nil for large worlds
	dom      []int32              // rank -> placement domain
	domLink  []topology.LinkClass // domCount*domCount
	domCount int

	nextCtx int

	// bounds is the world's one block-partition slot (sched.go): the last
	// partition any rank asked for, keyed by (boundsN, boundsParts,
	// boundsAlign). A handed-out slice is never mutated.
	boundsN, boundsParts, boundsAlign int
	bounds                            []int

	// Symmetry-folding state (single-threaded; fold.go and schedfold.go). foldShapes caches the analyzed shape of a
	// collective invocation keyed by its value shape (collective, bytes,
	// root, dtype, op); foldNo records shapes proven unfoldable so later
	// invocations skip the gather entirely. Value keys survive Run
	// teardowns: shapes outlive any schedule object.
	foldShapes map[shapeKey]*foldShape
	foldNo     map[shapeKey]struct{}
	foldStats  FoldStats
	// schedFoldOK pre-ands every per-world fold precondition (fold knob,
	// fault plan, trace, size bounds) so the per-invocation eligibility
	// check on the collective hot path is one load.
	schedFoldOK bool
	foldScratch foldScratch
	// linkSig fingerprints the placement's link tables so analyzed shapes
	// can be shared across worlds with identical placements (schedfold.go's
	// process-wide structure cache; hits verify the tables exactly).
	linkSig uint64

	// Fault-injection state (fault.go). faults aliases cfg.Faults for the
	// hot-path nil check; dead lists ranks killed by the plan this Run;
	// failedFlag latches once a stall has been declared (or a cancel has
	// fired) so abandoned handshakes stop blocking.
	faults     *faults.Plan
	dead       []int
	failedFlag atomic.Bool

	// Cancellation state (cancel.go). cancelOn is set only for the duration
	// of a RunContext with a cancellable context, so an unarmed world pays a
	// single boolean load per checkpoint; cancelFlag latches when the
	// context fires, and cancelCause carries context.Cause (written before
	// the flag's release store).
	cancelOn    bool
	cancelFlag  atomic.Bool
	cancelCause error
}

// linkTabMaxRanks bounds the worlds that get the direct size*size link
// table; larger worlds use the domain-indexed table instead.
const linkTabMaxRanks = 256

// buildLinkTables tabulates the placement's link classification.
func (w *World) buildLinkTables() {
	place := w.cfg.Placement
	sockets := place.Cluster().SocketsPerNode
	w.dom = make([]int32, w.size)
	nodes := 0
	for r := 0; r < w.size; r++ {
		node := place.Node(r)
		if node+1 > nodes {
			nodes = node + 1
		}
		w.dom[r] = int32(node*sockets + place.Socket(r))
	}
	w.domCount = nodes * sockets
	w.domLink = make([]topology.LinkClass, w.domCount*w.domCount)
	for a := 0; a < w.domCount; a++ {
		for b := 0; b < w.domCount; b++ {
			sameNode := a/sockets == b/sockets
			var l topology.LinkClass
			switch {
			case place.UsesGPU() && sameNode:
				l = topology.LinkGPUSameNode
			case place.UsesGPU():
				l = topology.LinkGPUInterNode
			case !sameNode:
				l = topology.LinkInterNode
			case a == b:
				l = topology.LinkSameSocket
			default:
				l = topology.LinkSameNode
			}
			w.domLink[a*w.domCount+b] = l
		}
	}
	h := uint64(foldFNV)
	h = foldMix(h, uint64(w.size))
	h = foldMix(h, uint64(w.domCount))
	for _, d := range w.dom {
		h = foldMix(h, uint64(d))
	}
	for _, lc := range w.domLink {
		h = foldMix(h, uint64(lc))
	}
	w.linkSig = h
	if w.size <= linkTabMaxRanks {
		w.linkTab = make([]topology.LinkClass, w.size*w.size)
		for a := 0; a < w.size; a++ {
			for b := 0; b < w.size; b++ {
				if a == b {
					w.linkTab[a*w.size+b] = topology.LinkSelf
					continue
				}
				w.linkTab[a*w.size+b] = w.domLink[int(w.dom[a])*w.domCount+int(w.dom[b])]
			}
		}
	}
}

// link classifies the path between two world ranks through the shared
// tables; it agrees with Placement.Link everywhere.
func (w *World) link(a, b int) topology.LinkClass {
	if w.linkTab != nil {
		return w.linkTab[a*w.size+b]
	}
	if a == b {
		return topology.LinkSelf
	}
	return w.domLink[int(w.dom[a])*w.domCount+int(w.dom[b])]
}

// NewWorld validates cfg and builds a world.
func NewWorld(cfg Config) (*World, error) {
	if cfg.Placement == nil {
		return nil, fmt.Errorf("mpi: Config.Placement is required")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("mpi: Config.Model is required")
	}
	if cfg.Model.Cluster != cfg.Placement.Cluster() {
		return nil, fmt.Errorf("mpi: model calibrated for %s but placement is on %s",
			cfg.Model.Cluster.Name, cfg.Placement.Cluster().Name)
	}
	var forced map[Collective]string
	for coll, name := range cfg.Algorithms {
		if name == "" {
			continue
		}
		canon, err := CanonicalAlgorithm(coll, name)
		if err != nil {
			return nil, err
		}
		if forced == nil {
			forced = make(map[Collective]string)
		}
		forced[coll] = canon
	}
	size := cfg.Placement.Size()
	if cfg.Faults != nil {
		for _, k := range cfg.Faults.Kills {
			if k.Rank < 0 || k.Rank >= size {
				return nil, fmt.Errorf("mpi: fault plan kills rank %d but the world has ranks 0..%d",
					k.Rank, size-1)
			}
		}
	}
	w := &World{
		cfg: cfg, size: size, fullSub: cfg.Placement.FullySubscribed(),
		policy:  Policy{Tuning: cfg.Tuning.withDefaults(), Forced: forced, defaulted: true},
		nextCtx: 1,
		faults:  cfg.Faults,
		// A fault plan disables folding outright: noise/jitter draws and kill
		// checks happen per rank per invocation, which is exactly the
		// symmetry the fold exploits — bailing here keeps fold-on and
		// fold-off runs bit-identical under faults.
		schedFoldOK: !cfg.DisableFold && cfg.Faults == nil &&
			size >= 2 && size <= foldMaxRanks && cfg.Trace == nil,
	}
	w.buildLinkTables()
	w.mailboxes = make([]*mailbox, size)
	// One slab, not 2*size allocations — drawn from the cross-world pool
	// (slabpool.go) so a benchmark sweep's per-iteration worlds reuse one
	// allocation; Release returns it.
	mbs := takeMailboxSlab(size)
	w.mbSlab = mbs
	for i := range w.mailboxes {
		mb := &mbs[i]
		mb.size = size
		w.mailboxes[i] = mb
	}
	w.worldGroup = make([]int, size)
	for i := range w.worldGroup {
		w.worldGroup[i] = i
	}
	return w, nil
}

// Release returns the world's slab memory to the cross-world pools so the
// next same-sized world reuses it instead of re-allocating ~O(ranks)
// memory. The world must not be used again afterwards — call it when the
// world is done for good (core.Run does, once per sweep). Safe on an
// errored or faulted world: recycled slabs are cleared before reuse, and
// no Run-scoped pointer into the mailbox slab survives Run's
// teardown. Idempotent.
func (w *World) Release() {
	mbs := w.mbSlab
	w.mbSlab, w.mailboxes = nil, nil
	if mbs != nil {
		putMailboxSlab(mbs)
	}
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Placement returns the hardware placement of the world's ranks.
func (w *World) Placement() *topology.Placement { return w.cfg.Placement }

// Model returns the world's cost model.
func (w *World) Model() *netmodel.Model { return w.cfg.Model }

// PyMode reports whether the Python-binding penalty model is active.
func (w *World) PyMode() bool { return w.cfg.PyMode }

// Policy returns the world's effective algorithm-selection policy.
func (w *World) Policy() Policy { return w.policy }

// allocCtx reserves a contiguous block of n communicator context ids.
func (w *World) allocCtx(n int) int {
	base := w.nextCtx
	w.nextCtx += n
	return base
}

// RankError wraps an error raised by a specific rank.
type RankError struct {
	Rank int
	Err  error
}

// Error implements the error interface.
func (e *RankError) Error() string { return fmt.Sprintf("mpi: rank %d: %v", e.Rank, e.Err) }

// Unwrap exposes the underlying error.
func (e *RankError) Unwrap() error { return e.Err }

// Proc is the per-rank handle: it owns the rank's virtual clock and is only
// ever used from that rank's coroutine, on the one goroutine running the
// whole world.
type Proc struct {
	// Field order is deliberate up to comm0v: a fold resolution walks every
	// rank of a huge world twice (token scan, then clock fanout; fold.go),
	// and each walk's working set — clock, foldLB, lbDirty, mbPend, repeatE
	// and comm0v.collSeq (first field of Comm) — lands in the Proc's first
	// cache line instead of three lines scattered over a ~1.4 KB struct.
	world *World
	rank  int
	clock vtime.Clock
	// foldLB is the rank's symbolic link-busy state left behind by a folded
	// collective: one shared-per-class object holding (peer delta, busy
	// until) pairs instead of materialized per-destination entries. Any
	// non-fold touch of the link-busy state materializes it first (fold.go).
	// lbDirty marks that the rank holds materialized link-busy entries a
	// fold resolver cannot describe symbolically; both reset with ResetClock.
	foldLB  *foldLB
	lbDirty bool
	// mbPend mirrors this rank's mailbox npend counter while a run owns the
	// mailbox (mailbox.go maintains it alongside npend). The fold eligibility checks read it from the Proc line
	// they already touch instead of paying a cold mailbox line per rank.
	mbPend int32
	// repeatE is the rank's timed elapsed sum a batched fold gather
	// (Comm.Repeat) hands over in its clock fanout, so it shares the
	// fanout's line.
	repeatE vtime.Micros
	// comm0 is the rank's cached world communicator; comm0v is its inline
	// storage, so CommWorld never allocates.
	comm0  *Comm
	comm0v Comm
	// ev is the rank's event-loop state. Every blocking primitive suspends
	// the rank's coroutine (or hands its compiled schedule to the loop)
	// until a message wakes it.
	ev *eventRank
	// linkBusy tracks, per destination world rank, when this rank's wire
	// to that peer frees up; back-to-back eager sends serialize on it.
	// Lazily sized to the world on the first eager send in small worlds;
	// huge worlds (where a dense vector per rank would cost O(size^2)
	// aggregate memory) use the sparse map instead — collective traffic
	// touches only O(log size) peers per rank.
	linkBusy       []vtime.Micros
	linkBusySparse map[int32]vtime.Micros
	// spent is the last consumed envelope, recycled into this rank's
	// mailbox freelist on the next receive.
	spent *envelope
	// rdvFree recycles rendezvous handshakes posted by this rank.
	rdvFree []*rendezvous
	// reqFree and schedFree recycle nonblocking Requests and compiled
	// collective schedules; activeScheds lists the rank's outstanding
	// nonblocking collectives for the Progress hook.
	reqFree      []*Request
	schedFree    []*collSched
	activeScheds []*collSched
	// replay caches compiled collective schedules for buffer-free replays (see eventsched.go). A rank holds only a handful
	// of shapes at a time, so a linearly scanned slice beats a map.
	replay []replayEntry
	// arena recycles the collectives' staging buffers. Its class tables
	// sit behind a pointer (scratch.go): every rank of a 16Ki-rank sweep
	// carries this struct, and a timing-only world rarely fills them.
	arena scratchArena
	// costMemo caches the priced message per link class for the last size,
	// exploiting that benchmark loops price the same (link, size) pair on
	// every iteration. A pure-function cache: it cannot change a single
	// virtual-time number.
	costMemo [8]ptptMemo
	// foldPend is the invocation startColl deferred behind the
	// schedFoldPending sentinel (schedfold.go): the key the blocking drive
	// gathers on, plus everything needed to materialize a per-rank schedule
	// if the gather falls back. Valid only between startColl and the
	// immediately following driveSched/collRequest; startColl writes it in
	// place.
	foldPend foldPending
	// repeat is the timed loop Comm.Repeat arms for the first collective
	// its callback reaches: startColl consumes it into the fold key. repeatDone reports that the gather resolved the whole loop
	// (repeatE holds its sum).
	repeat     foldRepeat
	repeatDone bool
	// lbSmall* is a tiny inline store in front of the sparse map in huge
	// worlds: collective traffic touches O(log size) distinct peers per
	// rank, so the map (an allocation per insert growth) almost never
	// engages. A destination lives in the inline store or the map, never
	// both: inserts go inline until it fills, then overflow to the map, and
	// an inline-resident destination is always updated in place.
	lbSmallN   int8
	lbSmallDst [lbSmallMax]int32
	lbSmallVal [lbSmallMax]vtime.Micros
	// Fault-injection state (fault.go), untouched when no plan is
	// installed. collInvoke counts the rank's collective entries and keys
	// its noise draws; msgSeq counts posted messages and keys its jitter
	// draws; killSeen counts matching invocations per kill rule (lazily
	// sized to the plan); failure is the rank's terminal fault error —
	// once set, every blocking operation returns it.
	collInvoke int
	msgSeq     uint64
	killSeen   []int32
	failure    error
}

// lbSmallMax covers a recursive-doubling schedule at 64Ki ranks (log2 = 16
// distinct peers) without touching the overflow map.
const lbSmallMax = 16

// linkBusyDenseMax bounds the worlds whose ranks track wire business in a
// dense per-destination vector.
const linkBusyDenseMax = 2048

// linkBusyUntil returns when this rank's wire to dst frees up.
func (p *Proc) linkBusyUntil(dst int) vtime.Micros {
	if p.foldLB != nil {
		p.materializeFoldLB()
	}
	if p.linkBusy != nil {
		return p.linkBusy[dst]
	}
	for i := 0; i < int(p.lbSmallN); i++ {
		if p.lbSmallDst[i] == int32(dst) {
			return p.lbSmallVal[i]
		}
	}
	return p.linkBusySparse[int32(dst)]
}

// holdLink marks this rank's wire to dst busy until t.
func (p *Proc) holdLink(dst int, t vtime.Micros) {
	if p.foldLB != nil {
		p.materializeFoldLB()
	}
	p.lbDirty = true
	p.lbStore(dst, t)
}

// lbStore is the raw link-busy write shared by holdLink and the symbolic
// state materialization.
func (p *Proc) lbStore(dst int, t vtime.Micros) {
	if p.world.size <= linkBusyDenseMax {
		if p.linkBusy == nil {
			p.linkBusy = make([]vtime.Micros, p.world.size)
		}
		p.linkBusy[dst] = t
		return
	}
	for i := 0; i < int(p.lbSmallN); i++ {
		if p.lbSmallDst[i] == int32(dst) {
			p.lbSmallVal[i] = t
			return
		}
	}
	if _, inMap := p.linkBusySparse[int32(dst)]; !inMap && int(p.lbSmallN) < lbSmallMax {
		p.lbSmallDst[p.lbSmallN] = int32(dst)
		p.lbSmallVal[p.lbSmallN] = t
		p.lbSmallN++
		return
	}
	if p.linkBusySparse == nil {
		p.linkBusySparse = make(map[int32]vtime.Micros, 16)
	}
	p.linkBusySparse[int32(dst)] = t
}

// ptptMemo is one (size -> cost) slot of the per-link-class price cache.
type ptptMemo struct {
	size  int
	valid bool
	cost  netmodel.PtPtCost
}

// linkTo classifies the path from this rank to a peer through the world's
// shared link table.
func (p *Proc) linkTo(peer int) topology.LinkClass {
	return p.world.link(p.rank, peer)
}

// priceTo classifies the link to peer and prices an n-byte message on it,
// both through the per-rank caches. The returned cost is a read-only view
// into the cache slot, valid until the next priceTo call.
func (p *Proc) priceTo(peer, n int) (topology.LinkClass, *netmodel.PtPtCost) {
	link := p.linkTo(peer)
	if int(link) >= len(p.costMemo) {
		cost := p.world.cfg.Model.PtPt(link, n, p.pyMode(), p.fullSub())
		return link, &cost
	}
	m := &p.costMemo[link]
	if !m.valid || m.size != n {
		*m = ptptMemo{size: n, valid: true,
			cost: p.world.cfg.Model.PtPt(link, n, p.pyMode(), p.fullSub())}
	}
	return link, &m.cost
}

// Rank returns the world rank of this process.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.size }

// World returns the world this process belongs to.
func (p *Proc) World() *World { return p.world }

// Wtime returns the rank's current virtual time, the analogue of MPI_Wtime.
func (p *Proc) Wtime() vtime.Micros { return p.clock.Now() }

// AdvanceClock charges local work of duration d to the rank, modelling
// computation between communication calls.
func (p *Proc) AdvanceClock(d vtime.Micros) { p.clock.Advance(d) }

// CommWorld returns the communicator spanning all ranks (context 0). The
// communicator is cached on the rank and shares the world's immutable
// group slice, so repeated calls allocate nothing.
func (p *Proc) CommWorld() *Comm {
	if p.comm0 == nil {
		// Field by field, so the inlined call builds no Comm on the
		// caller's stack.
		c := &p.comm0v
		c.collSeq, c.proc, c.ctx, c.group, c.rank = 0, p, 0, p.world.worldGroup, p.rank
		p.comm0 = c
	}
	return p.comm0
}

func (p *Proc) pyMode() bool  { return p.world.cfg.PyMode }
func (p *Proc) fullSub() bool { return p.world.fullSub }

// ResetClock rewinds the rank clock to zero and frees this rank's wires
// (the per-destination link-busy state). Benchmark harnesses call this
// between message sizes (collectively, after a barrier) so every size is
// measured from an identical timing state; it must never be called while
// messages are in flight.
func (p *Proc) ResetClock() {
	p.clock.Set(0)
	clear(p.linkBusy)
	clear(p.linkBusySparse)
	p.lbSmallN = 0
	p.foldLB = nil
	p.lbDirty = false
}
