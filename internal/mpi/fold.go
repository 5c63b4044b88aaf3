package mpi

// Symmetry folding: the event engine's huge-world fast path. In a regular
// placement, most ranks of a collective round execute the identical compiled
// step at the identical virtual time; simulating each rank separately is
// redundant. When every live rank of the world enters the same collective
// invocation, the loop gathers their invocation keys (each rank parks with
// waitFold; schedfold.go defers the invocation at collective entry, so no
// schedule object exists yet), and the last joiner resolves the whole
// invocation symbolically:
//
//   1. The invocation's *shape* is analyzed once per shape key (schedfold.go
//      probe-compiles it or fetches it from the process-wide structure
//      cache). When every rank runs the same step-op sequence, built from
//      exchange/reduce/copy primitives only, with one global per-step peer
//      delta (xor "r^d" or modular "(r+d) mod p") that is its own inverse
//      across the step, ranks collapse into structural classes by their
//      per-step (bytes, outbound link class) signature, refined until every
//      class agrees on the class of each step peer; per-class per-step
//      message prices come from the same netmodel calls the per-rank path
//      makes. A shape without that symmetry (a rooted tree, the fold ranks
//      of a non-power-of-two world) keeps its probe steps instead, as a
//      per-rank table with every receive matched to its send (foldTable).
//   2. Each invocation classifies ranks by entry state (clock bits plus
//      live link-busy state), intersects that with the structural classes,
//      and re-refines to a fixpoint (cached per observed entry pattern). In
//      the steady benchmark loop every rank enters identically and this
//      collapses to the precomputed structural partition. A table runs on
//      the identity partition and needs no classification.
//   3. A coupled recurrence advances one clock per class through the steps,
//      performing literally the same float64 operations, in the same order,
//      as postSendPriced/finishRecv/completeSend would per rank — virtual
//      times stay bit-identical (TestEngineParity pins this). A table
//      performs those operations once per (rank, step), in an order fixed
//      at analysis in which every receive follows its send and every
//      rendezvous drain its receive.
//   4. Exit clocks fan out with Clock.Set; exit link-busy state fans out as
//      one shared symbolic foldLB per class, materialized lazily by the
//      next non-fold touch of the rank's link state. A table writes each
//      rank's real link-busy store as it goes, as per-rank execution does.
//
// Anything irregular — sub-communicators, mixed forced algorithms, pending
// mailbox traffic, ranks with outstanding nonblocking collectives, builders
// that draw staging storage, truncating messages, tables over
// foldMaxTableSteps — fails eligibility or shape analysis and falls back to
// per-rank simulation, so folding can only change speed, never a number. A
// partial gather is released by the loop's safety valve (releaseFoldStalled)
// only when the whole world is stalled, so folding cannot introduce a
// deadlock the unfolded engine would not have had. A gather still waiting on
// a rank that is runnable, or buried under a nested loop frame, is not
// stalled: the frame unwinds to that rank instead.

import (
	"math"
	"slices"

	"repro/internal/collective"
	"repro/internal/topology"
	"repro/internal/vtime"
)

// FoldStats counts symmetry-folding outcomes on a world's event engine.
type FoldStats struct {
	// Folded counts collective invocations simulated per equivalence class
	// or, for a shape without class symmetry, on a per-rank step table.
	Folded int64
	// Fallback counts full gathers that resolved to per-rank execution
	// (unfoldable shape, tag mismatch, or pending mailbox traffic).
	Fallback int64
	// Released counts partial gathers released by the deadlock safety
	// valve: the whole world was stalled with some live rank not joined.
	Released int64
	// ClassesCompiled counts equivalence classes compiled by probe shape
	// analysis (process-wide structure-cache misses attributed to this
	// world).
	ClassesCompiled int64
	// StructHits counts shape lookups served by the process-wide structure
	// cache: the world re-priced a cached structure instead of compiling
	// any schedule.
	StructHits int64
}

// FoldStats returns the world's symmetry-folding counters. They are advisory
// (folding is bit-identical to per-rank execution) and reset only with the
// world.
func (w *World) FoldStats() FoldStats { return w.foldStats }

// foldKind is the global peer-delta family of a foldable schedule.
type foldKind uint8

const (
	foldKindNone foldKind = iota
	foldKindXor           // peer = rank ^ delta
	foldKindMod           // peer = (rank + delta) mod p
)

const (
	// foldMaxRanks bounds worlds eligible for folding. Ranks and class ids
	// are int32 throughout the analysis; the bound sits far below that.
	foldMaxRanks = 1 << 21
	// foldMaxPartitions bounds cached entry partitions per shape.
	foldMaxPartitions = 8
)

// foldMaxClasses bounds a refined entry partition: one that approaches
// per-rank size saves nothing over the identity partition, which the
// recurrence runs on instead. A variable only so tests can lower it.
var foldMaxClasses = 16384

// foldMaxTableSteps bounds the probe steps a per-rank table keeps (~40
// bytes each with its evaluation state); a larger shape falls back. It
// covers scatter_ring bcast up to 1447 ranks ((p-1)(p+2) steps) and
// binomial bcast up to 1Mi ranks. A variable only so tests can lower it.
var foldMaxTableSteps = 1 << 21

// foldApply maps a rank to its peer under a delta.
func foldApply(kind foldKind, r, d, p int) int {
	if kind == foldKindXor {
		return r ^ d
	}
	q := r + d
	if q >= p {
		q -= p
	}
	return q
}

// foldInvDelta recovers the delta that maps r to gdst, or -1 when the kind
// has no delta family.
func foldInvDelta(kind foldKind, r, gdst, p int) int {
	switch kind {
	case foldKindXor:
		return r ^ gdst
	case foldKindMod:
		d := gdst - r
		if d < 0 {
			d += p
		}
		return d
	default:
		return -1
	}
}

// foldLB is the symbolic link-busy state a folded collective leaves behind:
// (peer delta, busy-until) pairs shared by every rank of an equivalence
// class. materializeFoldLB (Proc) expands it into the rank's real
// per-destination store the moment any non-fold path touches link state.
type foldLB struct {
	kind   foldKind
	deltas []int32
	vals   []vtime.Micros
}

// materializeFoldLB expands the rank's symbolic link-busy state into its
// real store: entries already in the past are dropped (every read maxes
// against the clock, so a dead entry is indistinguishable from none).
func (p *Proc) materializeFoldLB() {
	f := p.foldLB
	p.foldLB = nil
	now := p.clock.Now()
	for i, d := range f.deltas {
		if f.vals[i] > now {
			p.lbDirty = true
			p.lbStore(foldApply(f.kind, p.rank, int(d), p.world.size), f.vals[i])
		}
	}
}

// foldEntriesLive reports whether any symbolic entry is still in the future.
func foldEntriesLive(f *foldLB, now vtime.Micros) bool {
	for _, v := range f.vals {
		if v > now {
			return true
		}
	}
	return false
}

// foldStep is one analyzed schedule step, uniform across ranks.
type foldStep struct {
	op        collOp
	sendDelta int32
	recvDelta int32
	slot      int32 // wire-slot index of sendDelta; -1 for local steps
}

// foldCost is the per-(structural class, step) price table entry.
type foldCost struct {
	pyLock   vtime.Micros
	sendOver vtime.Micros
	wire     vtime.Micros
	transmit vtime.Micros
	recvOver vtime.Micros
	compute  vtime.Micros
	eager    bool
}

// foldPartition is a refined entry partition cached per observed per-rank
// token pattern (see simulate).
type foldPartition struct {
	tok              []int32
	cls              []int32
	ncls             int
	reps             []int32
	costIdx          []int32
	sendCls, recvCls [][]int32
}

// foldShape is the once-per-shape analysis of a collective invocation. The
// structural half (kind, steps, classes, peer tables, per-class byte
// snapshots, or the per-rank table) is deterministic in (algorithm, comm
// size, invocation shape, link tables) and shareable across worlds through
// schedfold.go's process-wide structure cache; costs and parts are
// per-world (prices depend on the model and PyMode; the partition cache
// mutates).
type foldShape struct {
	ok bool
	// tab, when set, is a shape without class symmetry: the class fields
	// below are empty and costs has one row, indexed by tab's price entries.
	tab    *foldTable
	kind   foldKind
	steps  []foldStep
	nslots int
	// slotDeltas maps wire-slot index back to its send delta.
	slotDeltas []int32

	// Structural classes, refined to the peer fixpoint at build time.
	class            []int32
	nclass           int
	reps             []int32
	identIdx         []int32
	costs            [][]foldCost
	sendCls, recvCls [][]int32
	// repN/repSendN snapshot each refined class representative's per-step
	// (recv bytes, send bytes), so a cached structure re-prices under
	// another world's model without recompiling any schedule.
	repN, repSendN [][]int32
	// dom/domLink pin the exact link tables the analysis used; the
	// process-wide structure cache verifies them on every hit (its key
	// carries only their hash). nil for shapes that never leave a world.
	dom     []int32
	domLink []topology.LinkClass

	parts []*foldPartition
}

// slotOfDelta resolves a send delta to its wire slot, -1 when the shape has
// no slot for it. Slot counts are O(log p), so linear scan wins.
func (sh *foldShape) slotOfDelta(d int) int {
	if d >= 0 {
		for i, sd := range sh.slotDeltas {
			if int(sd) == d {
				return i
			}
		}
	}
	return -1
}

// foldGather is the event loop's in-progress gather of ranks parked at an
// eligible collective. Each joiner brings only its invocation key; pend
// points at any joiner's deferred invocation (key equality proves they are
// interchangeable), used by the resolver to probe-compile a shape on the
// first miss. The pointee lives in the joiner's Proc and stays valid while
// that rank is parked in this gather.
type foldGather struct {
	keys   []foldKey
	ranks  []*eventRank
	order  []int32
	joined int
	pend   *foldPending
}

// foldJoinKey adds the rank's deferred invocation to the gather and parks it
// unless it is the last joiner, which resolves the whole invocation on its
// own stack. It reports true when the collective was folded (clock and link
// state already hold the exit values; no schedule object ever exists) and
// false when the rank must fall back to per-rank execution.
func (l *eventLoop) foldJoinKey(er *eventRank, pend *foldPending) bool {
	g := &l.fold
	w := l.w
	if g.ranks == nil {
		g.keys = make([]foldKey, w.size)
		g.ranks = make([]*eventRank, w.size)
		g.order = make([]int32, 0, w.size)
	}
	r := er.proc.rank
	g.keys[r] = pend.key
	g.pend = pend
	g.ranks[r] = er
	g.order = append(g.order, int32(r))
	g.joined++
	if g.joined == w.size-l.done {
		return l.resolveFold()
	}
	er.wait = waitFold
	er.proc.park()
	if er.foldDone {
		er.foldDone = false
		return true
	}
	return false
}

// resolveFold runs on the last joiner's stack once every live rank has
// gathered: verify the invocation is uniform, fold it, and wake everyone.
// A key carrying a timed loop (Comm.Repeat) folds every repetition here,
// back to back: nothing but the fold itself touches a rank between two
// calls of the loop, so each repetition enters with the state the last one
// left. A validated shape always folds (simulate cannot refuse), so only a
// cancel stops a batch halfway, and then no number is reported: no number
// depends on whether a loop was batched. FoldStats.Folded counts one
// invocation per repetition run.
func (l *eventLoop) resolveFold() bool {
	w := l.w
	if l.fold.joined == w.size {
		if sh := l.tryFold(); sh != nil {
			w.foldStats.Folded += int64(sh.simulate(l, l.fold.keys[0].rep))
			l.foldRelease(true)
			return true
		}
	}
	w.foldStats.Fallback++
	l.foldRelease(false)
	return false
}

// foldRelease empties the gather and wakes every parked joiner with the
// resolve verdict. The resolver itself (rankRunning) just returns. Woken
// ranks drain FIFO through the loop's foldWake list — run order cannot
// change a virtual time (Trace is nil on folded worlds), only bookkeeping.
func (l *eventLoop) foldRelease(folded bool) {
	g := &l.fold
	for _, r := range g.order {
		er := g.ranks[r]
		g.ranks[r] = nil
		if er.state == rankBlocked {
			er.foldDone = folded
			er.state = rankRunnable
			er.wait = waitAny
			l.foldWake = append(l.foldWake, er)
		}
	}
	g.order = g.order[:0]
	g.joined = 0
}

// releaseFoldStalled is the deadlock safety valve: when the outermost loop
// frame finds nothing runnable while a partial gather is pending, the whole
// world is stalled, and the gathered ranks fall back to per-rank execution,
// preserving the unfolded engine's semantics (including real deadlocks).
func (l *eventLoop) releaseFoldStalled() bool {
	if l.fold.joined == 0 {
		return false
	}
	l.w.foldStats.Released++
	l.foldRelease(false)
	return true
}

// tryFold validates a full gather and returns the invocation's analyzed
// shape, or nil when it must fall back: every rank must have joined with
// the identical key (same collective, shape, sequence number and timed
// loop — the proof they are in the same invocation), no delivery may have
// raced into a mailbox after its rank joined, and the shape must fold.
func (l *eventLoop) tryFold() *foldShape {
	w := l.w
	g := &l.fold
	p := w.size
	key0 := g.keys[0]
	for r := 1; r < p; r++ {
		if g.keys[r] != key0 {
			return nil
		}
	}
	for r := 0; r < p; r++ {
		// Proc-side mirror of mailbox npend: one line the resolver's token
		// scan is about to touch anyway, not a cold mailbox line per rank.
		if l.ranks[r].proc.mbPend != 0 {
			return nil
		}
	}
	sk := key0.shape
	sh := w.foldShapes[sk]
	if sh == nil {
		sh = l.buildFoldShapeProbe(sk, g.pend)
		if w.foldShapes == nil {
			w.foldShapes = make(map[shapeKey]*foldShape, 8)
		}
		w.foldShapes[sk] = sh
	}
	if !sh.ok {
		if w.foldNo == nil {
			w.foldNo = make(map[shapeKey]struct{}, 8)
		}
		w.foldNo[sk] = struct{}{}
		return nil
	}
	return sh
}

const foldFNV = 14695981039346656037

func foldMix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// foldExtract is the kind- and byte-level digest of one rank-complete step
// walk: per-step ops and deltas from rank 0, the surviving global delta
// kind, and the (recv bytes, send bytes) of every (rank, step) — all a
// shape analysis needs, with no reference to any schedule object. Streaming
// extraction keeps at most one rank's step list alive at a time, so a probe
// pass over 64Ki ranks holds two int32 arrays instead of 64Ki compiled
// schedules.
type foldExtract struct {
	p, ns        int
	steps        []foldStep
	kind         foldKind
	nslots       int
	slotDeltas   []int32
	nArr, sendNA []int32 // p*ns each; meaningful on exchange/reduce steps
}

// foldExtractSteps walks every rank's step list (rank 0's is passed
// directly; stepsOf produces the rest, and may reuse one buffer between
// calls) and digests them, returning nil as soon as any uniformity
// requirement fails: same length and op sequence everywhere, only
// exchange/reduce/copy primitives, one global self-inverse peer delta
// family across all steps, and no truncating message. The digest's byte
// arrays are carved from scr.extract, so they are valid only until the
// world's next extraction.
func foldExtractSteps(scr *foldScratch, p int, steps0 []collStep, stepsOf func(r int) []collStep) *foldExtract {
	ns := len(steps0)
	fx := &foldExtract{p: p, ns: ns, steps: make([]foldStep, ns)}
	hasExch := false
	for k, st := range steps0 {
		fs := &fx.steps[k]
		fs.op = st.op
		fs.slot = -1
		switch st.op {
		case opReduce, opReduceNC, opCopy:
			// Local; no peers.
		case opExchange:
			// Rank 0 exposes the deltas directly: 0^d == (0+d) mod p == d.
			if st.sendPeer < 0 || st.sendPeer >= p || st.peer < 0 || st.peer >= p {
				return nil
			}
			fs.sendDelta, fs.recvDelta = int32(st.sendPeer), int32(st.peer)
			hasExch = true
		default:
			return nil
		}
	}
	if need := 2 * p * ns; cap(scr.extract) < need {
		// The first extraction sizes the buffer for Rabenseifner's
		// allreduce (3*log2(p) steps), the longest logarithmic schedule
		// the registry builds, so the shapes of one world share it.
		scr.extract = make([]int32, 2*p*max(ns, 3*collective.Log2Ceil(p)))
	}
	buf := scr.extract[:2*p*ns]
	clear(buf)
	fx.nArr, fx.sendNA = buf[:p*ns:p*ns], buf[p*ns:]
	// Both delta kinds start as candidates and are eliminated per (rank,
	// step); a shape may not mix kinds (modular and xor wires alias
	// differently across ranks), so one survivor must explain every step.
	xorOK, modOK := hasExch, hasExch
	for r := 0; r < p; r++ {
		st := stepsOf(r)
		if len(st) != ns {
			return nil
		}
		base := r * ns
		for k := 0; k < ns; k++ {
			fs := &fx.steps[k]
			if st[k].op != fs.op {
				return nil
			}
			switch fs.op {
			case opExchange:
				if xorOK && (st[k].sendPeer != r^int(fs.sendDelta) || st[k].peer != r^int(fs.recvDelta)) {
					xorOK = false
				}
				if modOK && (st[k].sendPeer != foldApply(foldKindMod, r, int(fs.sendDelta), p) ||
					st[k].peer != foldApply(foldKindMod, r, int(fs.recvDelta), p)) {
					modOK = false
				}
				if !xorOK && !modOK {
					return nil
				}
				fx.nArr[base+k] = int32(st[k].n)
				fx.sendNA[base+k] = int32(st[k].sendN)
			case opReduce:
				fx.nArr[base+k] = int32(st[k].n)
			}
		}
	}
	switch {
	case !hasExch:
		fx.kind = foldKindNone
	case xorOK && fx.checkKind(foldKindXor):
		fx.kind = foldKindXor
	case modOK && fx.checkKind(foldKindMod):
		fx.kind = foldKindMod
	default:
		return nil
	}
	// Wire slots, one per distinct send delta.
	for k := range fx.steps {
		fs := &fx.steps[k]
		if fs.op != opExchange {
			continue
		}
		slot := int32(-1)
		for i, sd := range fx.slotDeltas {
			if sd == fs.sendDelta {
				slot = int32(i)
				break
			}
		}
		if slot < 0 {
			slot = int32(len(fx.slotDeltas))
			fx.slotDeltas = append(fx.slotDeltas, fs.sendDelta)
		}
		fs.slot = slot
	}
	fx.nslots = len(fx.slotDeltas)
	return fx
}

// checkKind verifies a surviving candidate end to end: every exchange
// step's delta pair must be self-inverse under the kind (the rank sending
// to r is the rank r receives from), and no message may truncate (the
// per-rank path errors on truncation; a fold must surface that too, so
// such shapes do not fold).
func (fx *foldExtract) checkKind(kind foldKind) bool {
	p, ns := fx.p, fx.ns
	for k := range fx.steps {
		fs := &fx.steps[k]
		if fs.op != opExchange {
			continue
		}
		if kind == foldKindXor {
			if fs.sendDelta != fs.recvDelta {
				return false
			}
		} else if (int(fs.sendDelta)+int(fs.recvDelta))%p != 0 {
			return false
		}
		for r := 0; r < p; r++ {
			sender := foldApply(kind, r, int(fs.recvDelta), p)
			if fx.sendNA[sender*ns+k] > fx.nArr[r*ns+k] {
				return false
			}
		}
	}
	return true
}

// structEqual is the exact comparison behind the structural-signature hash.
func (fx *foldExtract) structEqual(w *World, a, b int) bool {
	if a == b {
		return true
	}
	ns := fx.ns
	ba, bb := a*ns, b*ns
	for k := range fx.steps {
		fs := &fx.steps[k]
		switch fs.op {
		case opExchange:
			if fx.nArr[ba+k] != fx.nArr[bb+k] || fx.sendNA[ba+k] != fx.sendNA[bb+k] {
				return false
			}
			da := foldApply(fx.kind, a, int(fs.sendDelta), fx.p)
			db := foldApply(fx.kind, b, int(fs.sendDelta), fx.p)
			if w.link(a, da) != w.link(b, db) {
				return false
			}
		case opReduce:
			if fx.nArr[ba+k] != fx.nArr[bb+k] {
				return false
			}
		}
	}
	return true
}

// buildFoldShapeFx turns an extracted digest into a full shape: structural
// classes (signature over per-step bytes and outbound link, interned by
// hash with exact verification, then refined so every class agrees on the
// class of each step peer), per-class byte snapshots, and this world's
// price tables.
func buildFoldShapeFx(w *World, fx *foldExtract) *foldShape {
	p, ns := fx.p, fx.ns
	sh := &foldShape{kind: fx.kind, steps: fx.steps,
		nslots: fx.nslots, slotDeltas: fx.slotDeltas}
	class := make([]int32, p)
	var reps []int32
	buckets := make(map[uint64][]int32)
	for r := 0; r < p; r++ {
		h := uint64(foldFNV)
		base := r * ns
		for k := range sh.steps {
			fs := &sh.steps[k]
			switch fs.op {
			case opExchange:
				gdst := foldApply(fx.kind, r, int(fs.sendDelta), p)
				h = foldMix(h, uint64(fx.nArr[base+k]))
				h = foldMix(h, uint64(fx.sendNA[base+k]))
				h = foldMix(h, uint64(w.link(r, gdst)))
			case opReduce:
				h = foldMix(h, uint64(fx.nArr[base+k]))
			}
		}
		id := int32(-1)
		for _, cand := range buckets[h] {
			if fx.structEqual(w, r, int(reps[cand])) {
				id = cand
				break
			}
		}
		if id < 0 {
			id = int32(len(reps))
			reps = append(reps, int32(r))
			buckets[h] = append(buckets[h], id)
		}
		class[r] = id
	}
	sh.class = class
	sh.nclass = sh.refinePartition(&w.foldScratch.refine, class, len(reps))
	sh.reps = foldReps(class, sh.nclass)
	sh.identIdx = make([]int32, sh.nclass)
	for i := range sh.identIdx {
		sh.identIdx[i] = int32(i)
	}
	sh.sendCls, sh.recvCls = sh.peerTables(class, sh.nclass, sh.reps)
	sh.repN = make([][]int32, sh.nclass)
	sh.repSendN = make([][]int32, sh.nclass)
	for i := 0; i < sh.nclass; i++ {
		rep := int(sh.reps[i])
		sh.repN[i] = append([]int32(nil), fx.nArr[rep*ns:(rep+1)*ns]...)
		sh.repSendN[i] = append([]int32(nil), fx.sendNA[rep*ns:(rep+1)*ns]...)
	}
	sh.costs = w.foldCostsFor(sh)
	sh.ok = true
	return sh
}

// foldCostsFor prices a shape's per-(class, step) table under this world's
// model — the same pure netmodel calls priceTo makes per rank. A per-rank
// table's shape gets one row, one entry per distinct priced operation.
func (w *World) foldCostsFor(sh *foldShape) [][]foldCost {
	model := w.cfg.Model
	py := w.cfg.PyMode
	fullSub := w.fullSub
	if t := sh.tab; t != nil {
		cc := make([]foldCost, len(t.prices))
		for i, pe := range t.prices {
			if pe.compute {
				cc[i].compute = model.Compute(int(pe.n), py, fullSub)
			} else {
				cc[i] = w.foldMsgCost(pe.link, int(pe.n))
			}
		}
		return [][]foldCost{cc}
	}
	p := w.size
	costs := make([][]foldCost, sh.nclass)
	for i := 0; i < sh.nclass; i++ {
		rep := int(sh.reps[i])
		cc := make([]foldCost, len(sh.steps))
		for k := range sh.steps {
			fs := &sh.steps[k]
			switch fs.op {
			case opExchange:
				gdst := foldApply(sh.kind, rep, int(fs.sendDelta), p)
				cc[k] = w.foldMsgCost(w.link(rep, gdst), int(sh.repSendN[i][k]))
			case opReduce:
				cc[k].compute = model.Compute(int(sh.repN[i][k]), py, fullSub)
			}
		}
		costs[i] = cc
	}
	return costs
}

// foldMsgCost prices one collective message of n bytes over link.
func (w *World) foldMsgCost(link topology.LinkClass, n int) foldCost {
	model := w.cfg.Model
	pc := model.PtPt(link, n, w.cfg.PyMode, w.fullSub)
	c := foldCost{sendOver: pc.SendOverhead, wire: pc.Wire, transmit: pc.Transmit,
		recvOver: pc.RecvOverhead, eager: pc.Eager}
	if w.cfg.PyMode {
		// Collective tags are always internal (> MaxUserTag).
		c.pyLock = model.PyOpLock(link, n, true, w.fullSub)
	}
	return c
}

// foldRefine is refinePartition's scratch, reused across deltas and calls
// (single-threaded, on the World).
type foldRefine struct {
	next []int32
	// firstPeer and firstID hold, per class, the peer class of the first
	// member met in the current pass (-1 before) and the label that pair
	// received.
	firstPeer, firstID []int32
	// more labels a class's further (class, peer class) pairs.
	more map[int64]int32
}

// refinePartition refines cls by every exchange step's send and recv peer
// classes until stable: members of a class agree on the class of each
// peer. The key includes the current class, so refinement only splits and
// terminates; labels stay in first-seen rank order. A delta that split
// nothing cannot split the same partition later, so it is skipped until
// the next split: ring allgather repeats +1 and -1 on all p-1 steps.
//
// Refining by one delta is one pass over the ranks (Paige and Tarjan's
// linear refinement step): each class keeps its first member's peer class
// and that pair's label, so a rank whose peer class matches costs two
// loads, and only a class that meets a second peer class labels its
// further pairs through a map. The buffers live in rs, so a warm
// refinement allocates nothing whatever the class count.
func (sh *foldShape) refinePartition(rs *foldRefine, cls []int32, ncls int) int {
	p := len(cls)
	rs.next = foldGrowI32(rs.next, p)
	next := rs.next
	// stable remembers up to 8 deltas that split nothing since the last
	// split; further ones are refined again.
	var stable [8]int32
	nstable := 0
	refineBy := func(delta int32) {
		if slices.Contains(stable[:nstable], delta) {
			return
		}
		rs.firstPeer = foldGrowI32(rs.firstPeer, ncls)
		rs.firstID = foldGrowI32(rs.firstID, ncls)
		firstPeer, firstID := rs.firstPeer, rs.firstID
		for i := range firstPeer {
			firstPeer[i] = -1
		}
		n := int32(0)
		spilled := false
		for r := 0; r < p; r++ {
			c := cls[r]
			pc := cls[foldApply(sh.kind, r, int(delta), p)]
			switch fp := firstPeer[c]; {
			case fp == pc:
				next[r] = firstID[c]
			case fp < 0:
				firstPeer[c], firstID[c] = pc, n
				next[r] = n
				n++
			default:
				if rs.more == nil {
					rs.more = make(map[int64]int32)
				}
				key := int64(c)<<32 | int64(pc)
				id, ok := rs.more[key]
				if !ok {
					id = n
					n++
					rs.more[key] = id
				}
				next[r] = id
				spilled = true
			}
		}
		if spilled {
			clear(rs.more)
		}
		if int(n) != ncls {
			ncls = int(n)
			copy(cls, next)
			nstable = 0
		} else if nstable < len(stable) {
			stable[nstable] = delta
			nstable++
		}
	}
	for {
		if ncls <= 1 || ncls >= p {
			return ncls
		}
		before := ncls
		for k := range sh.steps {
			fs := &sh.steps[k]
			if fs.op != opExchange {
				continue
			}
			refineBy(fs.sendDelta)
			refineBy(fs.recvDelta)
		}
		if ncls == before {
			return ncls
		}
	}
}

// foldReps picks the first member of each class as its representative.
func foldReps(cls []int32, ncls int) []int32 {
	reps := make([]int32, ncls)
	seen := make([]bool, ncls)
	found := 0
	for r := 0; r < len(cls) && found < ncls; r++ {
		if c := cls[r]; !seen[c] {
			seen[c] = true
			reps[c] = int32(r)
			found++
		}
	}
	return reps
}

// peerTables tabulates, per class and exchange step, the class of the
// representative's send and recv peers — valid for every member because the
// partition is refined to the peer fixpoint.
func (sh *foldShape) peerTables(cls []int32, ncls int, reps []int32) (sendCls, recvCls [][]int32) {
	p := len(cls)
	ns := len(sh.steps)
	sendCls = make([][]int32, ncls)
	recvCls = make([][]int32, ncls)
	for i := 0; i < ncls; i++ {
		rep := int(reps[i])
		sc := make([]int32, ns)
		rc := make([]int32, ns)
		for k := 0; k < ns; k++ {
			fs := &sh.steps[k]
			if fs.op != opExchange {
				continue
			}
			sc[k] = cls[foldApply(sh.kind, rep, int(fs.sendDelta), p)]
			rc[k] = cls[foldApply(sh.kind, rep, int(fs.recvDelta), p)]
		}
		sendCls[i] = sc
		recvCls[i] = rc
	}
	return sendCls, recvCls
}

// foldTok is the interning key of a rank's entry state: structural class,
// exact clock bits, and link-busy descriptor (symbolic pointer identity
// and/or a digest of live materialized per-slot values; salt disambiguates
// digest collisions, which are verified exactly against the stored seeds).
type foldTok struct {
	sc    int32
	salt  uint32
	clock uint64
	ptr   *foldLB
	dirty bool
	hash  uint64
}

type foldTokInfo struct {
	rep   int32
	seeds []vtime.Micros
}

// foldScratch holds simulate's reusable buffers (single-threaded, on the
// World so repeated invocations allocate nothing).
type foldScratch struct {
	tokOf                  []int32
	seeds                  []vtime.Micros
	clock, cp, sr, arr, cr []vtime.Micros
	lb                     []vtime.Micros
	// entry and esum are a batched loop's per-class entry clocks and timed
	// elapsed sums.
	entry, esum []vtime.Micros
	entryLB     []*foldLB
	// msg is a per-rank table's message state, per send step: the eager
	// arrival or rendezvous sender-ready time once posted, then a
	// rendezvous's completion instant once received.
	msg []vtime.Micros
	// Token interning state: the map's buckets and the info slice survive
	// across invocations (cleared, not reallocated), and dirty-token seed
	// snapshots are carved from one arena chunk instead of allocated each.
	tokMap   map[foldTok]int32
	toks     []foldTokInfo
	seedPool []vtime.Micros
	seedUsed int
	// clsTok memoizes, per structural class, the first token interned for
	// that class this invocation (-1 when unseen), with tokKeys holding
	// each token's key in parallel to toks. Ranks of one structural class
	// share an identical history in the steady folded state, so the memo
	// compare replaces a map hash of the 56-byte key on all but the first
	// rank of each class.
	clsTok  []int32
	tokKeys []foldTok
	// refine is refinePartition's scratch, shared by the structural
	// analysis and the entry partitions.
	refine foldRefine
	// extract backs foldExtractSteps' per-(rank, step) byte arrays.
	extract []int32
}

// snapSeeds copies a dirty rank's seed vector into the arena and returns the
// stable snapshot.
func (scr *foldScratch) snapSeeds(seeds []vtime.Micros) []vtime.Micros {
	n := len(seeds)
	if cap(scr.seedPool)-scr.seedUsed < n {
		c := 2 * cap(scr.seedPool)
		if c < 64*n {
			c = 64 * n
		}
		// Earlier snapshots keep referencing the old chunk; only the arena
		// cursor moves to the fresh one.
		scr.seedPool = make([]vtime.Micros, c)
		scr.seedUsed = 0
	}
	snap := scr.seedPool[scr.seedUsed : scr.seedUsed+n : scr.seedUsed+n]
	scr.seedUsed += n
	copy(snap, seeds)
	return snap
}

func foldGrowM(s []vtime.Micros, n int) []vtime.Micros {
	if cap(s) < n {
		return make([]vtime.Micros, n)
	}
	return s[:n]
}

func foldGrowI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func foldI32Equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

func foldSeedsEqual(a, b []vtime.Micros) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

func foldHashSeeds(seeds []vtime.Micros) uint64 {
	h := uint64(foldFNV)
	for _, v := range seeds {
		h = foldMix(h, math.Float64bits(float64(v)))
	}
	return h
}

// effSeeds fills seeds (len nslots) with the rank's effective link-busy
// value per wire slot: live materialized entries first, overlaid by live
// same-kind symbolic entries (which a materialization would overwrite; the
// symbolic value is never older than the stored one for the same wire).
func (sh *foldShape) effSeeds(pr *Proc, seeds []vtime.Micros) {
	for i := range seeds {
		seeds[i] = 0
	}
	now := pr.clock.Now()
	p := pr.world.size
	if pr.lbDirty {
		if pr.linkBusy != nil {
			for gdst, v := range pr.linkBusy {
				if v > now {
					if s := sh.slotOfDelta(foldInvDelta(sh.kind, pr.rank, gdst, p)); s >= 0 {
						seeds[s] = v
					}
				}
			}
		} else {
			for i := 0; i < int(pr.lbSmallN); i++ {
				if v := pr.lbSmallVal[i]; v > now {
					if s := sh.slotOfDelta(foldInvDelta(sh.kind, pr.rank, int(pr.lbSmallDst[i]), p)); s >= 0 {
						seeds[s] = v
					}
				}
			}
			for gdst, v := range pr.linkBusySparse {
				if v > now {
					if s := sh.slotOfDelta(foldInvDelta(sh.kind, pr.rank, int(gdst), p)); s >= 0 {
						seeds[s] = v
					}
				}
			}
		}
	}
	if f := pr.foldLB; f != nil && f.kind == sh.kind {
		for j, d := range f.deltas {
			if f.vals[j] > now {
				if s := sh.slotOfDelta(int(d)); s >= 0 {
					seeds[s] = f.vals[j]
				}
			}
		}
	}
}

// partitionFor returns the refined partition of an entry-token pattern
// that is not the structural one, from the shape's cache or freshly built;
// nil when it exceeds foldMaxClasses.
func (sh *foldShape) partitionFor(rs *foldRefine, tokOf []int32, ntok int) *foldPartition {
	for _, cand := range sh.parts {
		if foldI32Equal(cand.tok, tokOf) {
			return cand
		}
	}
	part := sh.buildPartition(rs, tokOf, ntok)
	if part == nil {
		return nil
	}
	if len(sh.parts) >= foldMaxPartitions {
		sh.parts = sh.parts[:0]
	}
	sh.parts = append(sh.parts, part)
	return part
}

// buildPartition refines an observed entry-token pattern against the shape.
func (sh *foldShape) buildPartition(rs *foldRefine, tokOf []int32, ntok int) *foldPartition {
	cls := append([]int32(nil), tokOf...)
	ncls := sh.refinePartition(rs, cls, ntok)
	if ncls > foldMaxClasses {
		return nil
	}
	part := &foldPartition{
		tok:  append([]int32(nil), tokOf...),
		cls:  cls,
		ncls: ncls,
		reps: foldReps(cls, ncls),
	}
	part.costIdx = make([]int32, ncls)
	for i, rep := range part.reps {
		part.costIdx[i] = sh.class[rep]
	}
	part.sendCls, part.recvCls = sh.peerTables(cls, ncls, part.reps)
	return part
}

// simulate folds one gathered invocation: classify entry states, pick (or
// build) the refined partition, run the coupled per-class recurrence, and
// fan exit state out to every rank.
//
// A batched timed loop (Comm.Repeat) runs the recurrence once per
// repetition on the first repetition's partition and fans out once. That
// partition stays exact: its classes leave every repetition with one exit
// state each and stay peer-closed, which is all a partition needs (the
// per-call loop re-derives the same classes from the exit slabs' pointer
// identities). Link-busy values carried between repetitions at or below
// the clock act as the zero effSeeds would read, since the recurrence only
// maxes them against times at or after the clock. Per class, each timed
// repetition adds exit minus entry clock to a sum that starts at zero —
// the float64 operations Comm.Repeat's per-call loop makes on each member
// rank. A cancel latched between two repetitions stops the batch there:
// the state reached fans out and every rank fails in schedFoldDrive, so a
// partial sum is never read. simulate returns the repetitions it ran.
func (sh *foldShape) simulate(l *eventLoop, loop foldRepeat) int {
	if sh.tab != nil {
		return sh.simulateTable(l, loop)
	}
	w := l.w
	p := w.size
	scr := &w.foldScratch
	nslots := sh.nslots

	// 1. Per-rank entry tokens. Cross-kind symbolic state normalizes first:
	// live state materializes into the rank's real store; a dead cross-kind
	// pointer stays as-is — its entries are unobservable (every read maxes
	// against the clock), but its identity still encodes the previous
	// invocation's partition, keeping entry-token patterns stable across
	// invocations so the partition cache can hit.
	ndirty := 0
	for r := 0; r < p; r++ {
		pr := l.ranks[r].proc
		if f := pr.foldLB; f != nil && f.kind != sh.kind && foldEntriesLive(f, pr.clock.Now()) {
			pr.materializeFoldLB()
		}
		if pr.lbDirty {
			ndirty++
		}
	}
	// When at least half the world enters with materialized per-rank link
	// state (the aggregation reduce leaves every rank dirty), interning and
	// refinement would only rediscover near-singleton classes at O(p) map
	// churn. Run the recurrence on the identity partition instead — always
	// valid, since singleton classes are trivially peer-closed — which still
	// replaces the collective's message traffic with straight-line float math.
	ident := 2*ndirty >= p
	scr.tokOf = foldGrowI32(scr.tokOf, p)
	tokOf := scr.tokOf
	scr.seeds = foldGrowM(scr.seeds, nslots)
	seeds := scr.seeds
	var toks []foldTokInfo
	if !ident {
		if scr.tokMap == nil {
			scr.tokMap = make(map[foldTok]int32, 16)
		} else {
			clear(scr.tokMap)
		}
		tokMap := scr.tokMap
		toks = scr.toks[:0]
		tokKeys := scr.tokKeys[:0]
		scr.seedUsed = 0
		scr.clsTok = foldGrowI32(scr.clsTok, sh.nclass)
		clsTok := scr.clsTok
		for i := range clsTok {
			clsTok[i] = -1
		}
		var lastKey foldTok
		lastTok := int32(-1)
		for r := 0; r < p; r++ {
			pr := l.ranks[r].proc
			key := foldTok{sc: sh.class[r], clock: math.Float64bits(float64(pr.clock.Now())),
				ptr: pr.foldLB, dirty: pr.lbDirty}
			if key.dirty {
				sh.effSeeds(pr, seeds)
				key.hash = foldHashSeeds(seeds)
			}
			if lastTok >= 0 && key == lastKey &&
				(!key.dirty || foldSeedsEqual(seeds, toks[lastTok].seeds)) {
				tokOf[r] = lastTok
				continue
			}
			// Class memo: in the steady folded state every rank of a
			// structural class carries the same token, so only the class's
			// first rank pays the map.
			if t := clsTok[key.sc]; t >= 0 && key == tokKeys[t] &&
				(!key.dirty || foldSeedsEqual(seeds, toks[t].seeds)) {
				tokOf[r] = t
				lastKey, lastTok = key, t
				continue
			}
			var id int32
			probe := key
			for {
				got, ok := tokMap[probe]
				if !ok {
					id = int32(len(toks))
					info := foldTokInfo{rep: int32(r)}
					if key.dirty {
						info.seeds = scr.snapSeeds(seeds)
					}
					toks = append(toks, info)
					tokKeys = append(tokKeys, key)
					tokMap[probe] = id
					break
				}
				if !key.dirty || foldSeedsEqual(seeds, toks[got].seeds) {
					id = got
					break
				}
				probe.salt++
			}
			tokOf[r] = id
			if clsTok[key.sc] < 0 {
				clsTok[key.sc] = id
			}
			lastKey, lastTok = key, id
		}
		scr.toks = toks // keep the grown capacity for the next invocation
		scr.tokKeys = tokKeys
		ident = 2*len(toks) >= p
	}

	// 2. Partition. When the token pattern equals the structural pattern
	// (the steady benchmark case: every rank enters with identical clock and
	// link state), the precomputed structural partition is already the
	// fixpoint. Otherwise look up (or build) the refined partition for this
	// entry pattern; patterns repeat across iterations and sizes, so the
	// refinement runs once per pattern, not per invocation.
	var (
		cls              []int32
		ncls             int
		reps             []int32
		costIdx          []int32
		sendCls, recvCls [][]int32
		part             *foldPartition
	)
	if !ident && !foldI32Equal(tokOf, sh.class) {
		// Past foldMaxClasses, fall to the identity partition.
		part = sh.partitionFor(&scr.refine, tokOf, len(toks))
		ident = part == nil
	}
	switch {
	case ident:
		// Identity partition: class i is rank i; peers are computed from the
		// step deltas directly, costs index through the structural classes.
		ncls = p
		costIdx = sh.class
	case part == nil:
		cls, ncls, reps = sh.class, sh.nclass, sh.reps
		costIdx = sh.identIdx
		sendCls, recvCls = sh.sendCls, sh.recvCls
	default:
		cls, ncls, reps = part.cls, part.ncls, part.reps
		costIdx = part.costIdx
		sendCls, recvCls = part.sendCls, part.recvCls
	}

	// 3. Entry state per class, read from each representative.
	ns := len(sh.steps)
	scr.clock = foldGrowM(scr.clock, ncls)
	scr.cp = foldGrowM(scr.cp, ncls)
	scr.sr = foldGrowM(scr.sr, ncls)
	scr.arr = foldGrowM(scr.arr, ncls)
	scr.cr = foldGrowM(scr.cr, ncls)
	scr.lb = foldGrowM(scr.lb, ncls*nslots)
	clock, cp, sr, arr, cr, lb := scr.clock, scr.cp, scr.sr, scr.arr, scr.cr, scr.lb
	if cap(scr.entryLB) < ncls {
		scr.entryLB = make([]*foldLB, ncls)
	}
	entryLB := scr.entryLB[:ncls]
	for i := 0; i < ncls; i++ {
		rep := i
		if !ident {
			rep = int(reps[i])
		}
		pr := l.ranks[rep].proc
		clock[i] = pr.clock.Now()
		if nslots > 0 {
			sh.effSeeds(pr, lb[i*nslots:(i+1)*nslots])
		}
		entryLB[i] = pr.foldLB
	}

	// 4. The coupled recurrence, once per repetition: per exchange step,
	// three phases over all classes (post, receive, drain), each line
	// mirroring the exact float64 operation order of postSendPriced /
	// finishRecv / completeSend.
	py := w.cfg.PyMode
	nrep := max(loop.reps, 1)
	var entry, esum []vtime.Micros
	if loop.timed(nrep - 1) {
		scr.entry = foldGrowM(scr.entry, ncls)
		scr.esum = foldGrowM(scr.esum, ncls)
		entry, esum = scr.entry, scr.esum
		clear(esum)
	}
	for j := 0; j < nrep; j++ {
		if j > 0 && w.cancelRequested() {
			nrep = j
			break
		}
		timed := loop.timed(j)
		if timed {
			copy(entry, clock)
		}
		for k := 0; k < ns; k++ {
			fs := &sh.steps[k]
			switch fs.op {
			case opReduce:
				for i := 0; i < ncls; i++ {
					clock[i] += sh.costs[costIdx[i]][k].compute
				}
			case opExchange:
				slot := int(fs.slot)
				for i := 0; i < ncls; i++ {
					c := &sh.costs[costIdx[i]][k]
					t := clock[i]
					if py {
						t += c.pyLock
					}
					t += c.sendOver
					cp[i] = t
					if c.eager {
						start := t
						if b := lb[i*nslots+slot]; b > start {
							start = b
						}
						lb[i*nslots+slot] = start + c.transmit
						arr[i] = start + c.wire
					} else {
						sr[i] = t
					}
				}
				for i := 0; i < ncls; i++ {
					var src int32
					if ident {
						src = int32(foldApply(sh.kind, i, int(fs.recvDelta), p))
					} else {
						src = recvCls[i][k]
					}
					c := &sh.costs[costIdx[src]][k]
					t := cp[i]
					if c.eager {
						if a := arr[src]; a > t {
							t = a
						}
					} else {
						d := sr[src]
						if t > d {
							d = t
						}
						d += c.wire
						if d > t {
							t = d
						}
					}
					t += c.recvOver
					cr[i] = t
				}
				for i := 0; i < ncls; i++ {
					c := &sh.costs[costIdx[i]][k]
					t := cr[i]
					if !c.eager {
						var dst int32
						if ident {
							dst = int32(foldApply(sh.kind, i, int(fs.sendDelta), p))
						} else {
							dst = sendCls[i][k]
						}
						d := sr[i]
						if v := cp[dst]; v > d {
							d = v
						}
						d += c.wire
						if d > t {
							t = d
						}
					}
					clock[i] = t
				}
			}
		}
		if timed {
			for i := 0; i < ncls; i++ {
				esum[i] += clock[i] - entry[i]
			}
		}
	}

	// 5. Exit link state per class (live slots plus live carried symbolic
	// entries the shape's slots do not cover), then fan out. The exit object
	// exists even when no entry is live: its pointer identity marks the
	// rank's exit class, so the next invocation's entry tokens reproduce this
	// partition exactly instead of merging classes whose exit clocks happen
	// to coincide — that keeps token patterns stable and cacheable. The
	// objects come from one slab: they escape into the ranks, so the slab is
	// the invocation's only mandatory allocation.
	slab := make([]foldLB, ncls)
	for i := 0; i < ncls; i++ {
		f := &slab[i]
		f.kind = sh.kind
		ec := clock[i]
		for s := 0; s < nslots; s++ {
			if v := lb[i*nslots+s]; v > ec {
				f.deltas = append(f.deltas, sh.slotDeltas[s])
				f.vals = append(f.vals, v)
			}
		}
		if ef := entryLB[i]; ef != nil {
			for j, d := range ef.deltas {
				if ef.vals[j] > ec && sh.slotOfDelta(int(d)) < 0 {
					f.deltas = append(f.deltas, d)
					f.vals = append(f.vals, ef.vals[j])
				}
			}
		}
	}
	for r := 0; r < p; r++ {
		pr := l.ranks[r].proc
		i := r
		if !ident {
			i = int(cls[r])
		}
		if esum != nil {
			pr.repeatE = esum[i]
		}
		pr.clock.Set(clock[i])
		pr.foldLB = &slab[i]
		// No schedule was ever compiled, but each invocation still consumed
		// one of the communicator's collective sequence numbers (every
		// fallback or per-rank path bumps it through nextCollTag), so advance
		// it here to keep tag sequences identical across folded, fallback
		// and fold-off executions.
		pr.comm0.collSeq += nrep
	}
	return nrep
}

// Table actions: the clock operations of one table step, each the work of
// one per-rank primitive.
const (
	foldActPost    = iota // inject the step's send (postSendPriced)
	foldActRecv           // consume the matched message (finishRecv)
	foldActDrain          // complete the step's send (drainStep, completeSend)
	foldActCompute        // charge a local reduction (chargeCompute)
)

// foldTable is the analysis of a shape with no class symmetry: every rank's
// probe steps in one array, rank by rank, each receive matched to the send
// it consumes, and one order of all their clock actions in which every
// action follows each action it reads (a receive its send's post, a drain
// its send's receive). Messages of one invocation share one tag, so the
// k-th receive at r from s consumes the k-th send from s to r. The order is
// fixed at analysis because dependencies are structural: it assumes every
// send is a rendezvous, whose drain waits on the receiver, and an eager
// world only has fewer dependencies.
type foldTable struct {
	rank  []int32 // step -> its rank
	peer  []int32 // send step -> destination rank
	match []int32 // receive step -> the send step it consumes
	price []int32 // send or reduce step -> its entry in prices
	// prices holds the distinct priced operations, which foldCostsFor
	// prices per world.
	prices []foldTabPrice
	order  []uint32 // step<<2 | action
}

// foldTabPrice is one distinct priced operation of a table: a message of n
// bytes over link, or (compute) a local reduction of n bytes.
type foldTabPrice struct {
	link    topology.LinkClass
	n       int32
	compute bool
}

// buildFoldTable compiles every rank's steps (compile reports false for a
// builder that drew staging storage) into a table, or returns nil when the
// shape cannot be evaluated by itself: a peer or byte count out of range,
// more than foldMaxTableSteps steps, a message without its receive or a
// receive without its message, a message larger than its receive (the
// per-rank path raises ErrTruncate), a posted send never drained, or no
// order of the actions (a schedule that deadlocks once every send is a
// rendezvous).
func buildFoldTable(w *World, compile func(r int) ([]collStep, bool)) *foldTable {
	p := w.size
	off := make([]int32, p+1)
	var ops []collOp
	var rank, dst, src, sendN, recvN []int32
	for r := 0; r < p; r++ {
		steps, ok := compile(r)
		if !ok || len(ops)+len(steps) > foldMaxTableSteps {
			return nil
		}
		for i := range steps {
			st := &steps[i]
			d, s, sn, rn := 0, 0, 0, 0
			switch st.op {
			case opPost, opSend:
				d, sn = st.peer, st.n
			case opRecv:
				s, rn = st.peer, st.n
			case opExchange:
				d, sn, s, rn = st.sendPeer, st.sendN, st.peer, st.n
			case opReduce:
				rn = st.n
			}
			if d < 0 || d >= p || s < 0 || s >= p || sn < 0 || rn < 0 ||
				sn > math.MaxInt32 || rn > math.MaxInt32 {
				return nil
			}
			ops = append(ops, st.op)
			rank = append(rank, int32(r))
			dst = append(dst, int32(d))
			src = append(src, int32(s))
			sendN = append(sendN, int32(sn))
			recvN = append(recvN, int32(rn))
		}
		off[r+1] = int32(len(ops))
	}
	n := len(ops)
	t := &foldTable{rank: rank, peer: dst, match: make([]int32, n), price: make([]int32, n)}

	// Match receives to sends FIFO per (sender, receiver) pair: the sends of
	// a pair are chained in program order, and each receive takes the head.
	type fifo struct{ head, tail int32 }
	pairs := make(map[uint64]fifo)
	next := make([]int32, n)
	prices := make(map[foldTabPrice]int32)
	for g := 0; g < n; g++ {
		t.match[g], t.price[g] = -1, -1
		var pe foldTabPrice
		switch ops[g] {
		case opPost, opSend, opExchange:
			pe = foldTabPrice{link: w.link(int(rank[g]), int(dst[g])), n: sendN[g]}
			key := uint64(rank[g])<<32 | uint64(dst[g])
			q, ok := pairs[key]
			if ok {
				next[q.tail] = int32(g)
				q.tail = int32(g)
			} else {
				q = fifo{int32(g), int32(g)}
			}
			next[g] = -1
			pairs[key] = q
		case opReduce:
			pe = foldTabPrice{n: recvN[g], compute: true}
		default:
			continue
		}
		id, ok := prices[pe]
		if !ok {
			id = int32(len(t.prices))
			t.prices = append(t.prices, pe)
			prices[pe] = id
		}
		t.price[g] = id
	}
	for g := 0; g < n; g++ {
		if ops[g] != opRecv && ops[g] != opExchange {
			continue
		}
		key := uint64(src[g])<<32 | uint64(rank[g])
		q, ok := pairs[key]
		if !ok || q.head < 0 || sendN[q.head] > recvN[g] {
			return nil
		}
		t.match[g] = q.head
		q.head = next[q.head]
		pairs[key] = q
	}
	for _, q := range pairs {
		if q.head >= 0 {
			return nil
		}
	}
	if t.order = foldTableOrder(ops, off, t); t.order == nil {
		return nil
	}
	return t
}

// foldTableOrder runs the table's ranks symbolically, each as far as its
// inputs allow, and returns the actions in the order they ran; nil when
// some rank never finishes, posts again before draining, drains with
// nothing posted, or ends with a post undrained (per-rank execution panics
// or leaves the send open on those).
func foldTableOrder(ops []collOp, off []int32, t *foldTable) []uint32 {
	p := len(off) - 1
	n := len(ops)
	order := make([]uint32, 0, 2*n)
	posted := make([]bool, n)
	recvd := make([]bool, n)
	cur := make([]int32, p)
	copy(cur, off[:p])
	phase := make([]uint8, p)
	pend := make([]int32, p)
	// waitOn is the send step a blocked rank waits on (-1 when not blocked):
	// its receipt when waitRecv (a drain), its post otherwise (a receive).
	waitOn := make([]int32, p)
	waitRecv := make([]bool, p)
	for r := range pend {
		pend[r], waitOn[r] = -1, -1
	}
	stack := make([]int32, p)
	for i := range stack {
		stack[i] = int32(p - 1 - i)
	}
	emit := func(g int32, act uint32) { order = append(order, uint32(g)<<2|act) }
	post := func(g int32) {
		emit(g, foldActPost)
		posted[g] = true
		if d := t.peer[g]; waitOn[d] == g && !waitRecv[d] {
			waitOn[d] = -1
			stack = append(stack, d)
		}
	}
	recv := func(g int32) {
		s := t.match[g]
		emit(g, foldActRecv)
		recvd[s] = true
		if r := t.rank[s]; waitOn[r] == s && waitRecv[r] {
			waitOn[r] = -1
			stack = append(stack, r)
		}
	}
	done := 0
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
	run:
		for ; cur[r] < off[r+1]; cur[r]++ {
			g := cur[r]
			switch ops[g] {
			case opReduce:
				emit(g, foldActCompute)
			case opPost:
				if pend[r] >= 0 {
					return nil
				}
				post(g)
				pend[r] = g
			case opWaitSend:
				s := pend[r]
				if s < 0 {
					return nil
				}
				if !recvd[s] {
					waitOn[r], waitRecv[r] = s, true
					break run
				}
				emit(s, foldActDrain)
				pend[r] = -1
			case opRecv:
				if s := t.match[g]; !posted[s] {
					waitOn[r], waitRecv[r] = s, false
					break run
				}
				recv(g)
			case opSend, opExchange:
				if phase[r] == 0 {
					if pend[r] >= 0 {
						return nil
					}
					post(g)
					phase[r] = 1
				}
				if phase[r] == 1 && ops[g] == opExchange {
					if s := t.match[g]; !posted[s] {
						waitOn[r], waitRecv[r] = s, false
						break run
					}
					recv(g)
					phase[r] = 2
				}
				if !recvd[g] {
					waitOn[r], waitRecv[r] = g, true
					break run
				}
				emit(g, foldActDrain)
				phase[r] = 0
			}
		}
		if cur[r] == off[r+1] {
			if pend[r] >= 0 {
				return nil
			}
			done++
		}
	}
	if done != p {
		return nil
	}
	return order
}

// simulateTable folds one gathered invocation of a per-rank table shape:
// every rank is its own class, and each repetition runs the table's actions
// in their analysis order, with the float64 operations postSendPriced,
// finishRecv, drainStep and chargeCompute make per rank. Eager sends read
// and write the rank's real link-busy store through linkBusyUntil and
// holdLink, as per-rank execution does. A batched loop sums, checks for a
// cancel and advances the collective sequence as simulate does.
func (sh *foldShape) simulateTable(l *eventLoop, loop foldRepeat) int {
	w := l.w
	p := w.size
	t := sh.tab
	costs := sh.costs[0]
	py := w.cfg.PyMode
	scr := &w.foldScratch
	scr.clock = foldGrowM(scr.clock, p)
	scr.msg = foldGrowM(scr.msg, len(t.rank))
	clock, msg := scr.clock, scr.msg
	for r := range clock {
		clock[r] = l.ranks[r].proc.clock.Now()
	}
	nrep := max(loop.reps, 1)
	var entry, esum []vtime.Micros
	if loop.timed(nrep - 1) {
		scr.entry = foldGrowM(scr.entry, p)
		scr.esum = foldGrowM(scr.esum, p)
		entry, esum = scr.entry, scr.esum
		clear(esum)
	}
	for j := 0; j < nrep; j++ {
		if j > 0 && w.cancelRequested() {
			nrep = j
			break
		}
		timed := loop.timed(j)
		if timed {
			copy(entry, clock)
		}
		for _, ev := range t.order {
			g := ev >> 2
			r := t.rank[g]
			switch ev & 3 {
			case foldActPost:
				c := &costs[t.price[g]]
				tm := clock[r]
				if py {
					tm += c.pyLock
				}
				tm += c.sendOver
				if c.eager {
					// The link-busy store materializes symbolic state against
					// the rank's clock, so the clock is current first.
					pr := l.ranks[r].proc
					pr.clock.Set(tm)
					d := int(t.peer[g])
					start := vtime.Max(tm, pr.linkBusyUntil(d))
					pr.holdLink(d, start+c.transmit)
					msg[g] = start + c.wire
				} else {
					msg[g] = tm
				}
				clock[r] = tm
			case foldActRecv:
				s := t.match[g]
				c := &costs[t.price[s]]
				tm := clock[r]
				if c.eager {
					if a := msg[s]; a > tm {
						tm = a
					}
				} else {
					done := vtime.Max(msg[s], tm) + c.wire
					msg[s] = done
					if done > tm {
						tm = done
					}
				}
				clock[r] = tm + c.recvOver
			case foldActDrain:
				if !costs[t.price[g]].eager {
					if done := msg[g]; done > clock[r] {
						clock[r] = done
					}
				}
			case foldActCompute:
				clock[r] += costs[t.price[g]].compute
			}
		}
		if timed {
			for r := range esum {
				esum[r] += clock[r] - entry[r]
			}
		}
	}
	for r := 0; r < p; r++ {
		pr := l.ranks[r].proc
		if esum != nil {
			pr.repeatE = esum[r]
		}
		pr.clock.Set(clock[r])
		// As in simulate: one collective sequence number per invocation.
		pr.comm0.collSeq += nrep
	}
	return nrep
}
