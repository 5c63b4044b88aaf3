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
//      cache): every rank must run the same step-op sequence, built from
//      exchange/reduce/copy primitives only, with one global per-step peer
//      delta (xor "r^d" or modular "(r+d) mod p") that is its own inverse
//      across the step. Ranks collapse into structural classes by their
//      per-step (bytes, outbound link class) signature, refined until every
//      class agrees on the class of each step peer; per-class per-step
//      message prices come from the same netmodel calls the per-rank path
//      makes.
//   2. Each invocation classifies ranks by entry state (clock bits plus
//      live link-busy state), intersects that with the structural classes,
//      and re-refines to a fixpoint (cached per observed entry pattern). In
//      the steady benchmark loop every rank enters identically and this
//      collapses to the precomputed structural partition.
//   3. A coupled recurrence advances one clock per class through the steps,
//      performing literally the same float64 operations, in the same order,
//      as postSendPriced/finishRecv/completeSend would per rank — virtual
//      times stay bit-identical (TestEngineParity pins this).
//   4. Exit clocks fan out with Clock.Set; exit link-busy state fans out as
//      one shared symbolic foldLB per class, materialized lazily by the
//      next non-fold touch of the rank's link state.
//
// Anything irregular — sub-communicators, non-power-of-two fold ranks
// (opSend/opRecv steps), mixed forced algorithms, pending mailbox traffic,
// ranks with outstanding nonblocking collectives — fails eligibility or
// shape analysis and falls back to per-rank simulation, so folding can only
// change speed, never a number. A partial gather is released by the loop's
// safety valve (releaseFoldStalled) only when the whole world is stalled,
// so folding cannot introduce a deadlock the unfolded engine would not have
// had. A gather still waiting on a rank that is runnable, or buried under a
// nested loop frame, is not stalled: the frame unwinds to that rank instead.

import (
	"math"
	"slices"

	"repro/internal/topology"
	"repro/internal/vtime"
)

// FoldStats counts symmetry-folding outcomes on a world's event engine.
type FoldStats struct {
	// Folded counts collective invocations simulated per equivalence class.
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
	// foldMaxRanks bounds worlds eligible for folding: class ids are packed
	// three to a word during refinement.
	foldMaxRanks = 1 << 21
	// foldDenseRefine bounds the class count refined through a dense
	// (class x class) table; beyond it a map takes over.
	foldDenseRefine = 1024
	// foldMaxClasses aborts a fold whose refined partition approaches
	// per-rank size: the recurrence would not beat per-rank replay.
	foldMaxClasses = 16384
	// foldMaxPartitions bounds cached entry partitions per shape.
	foldMaxPartitions = 8
)

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
// snapshots) is deterministic in (algorithm, comm size, invocation shape,
// link tables) and shareable across worlds through schedfold.go's
// process-wide structure cache; costs and parts are per-world (prices
// depend on the model and PyMode; the partition cache mutates).
type foldShape struct {
	ok     bool
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
func (l *eventLoop) resolveFold() bool {
	w := l.w
	if l.fold.joined == w.size && l.tryFold() {
		w.foldStats.Folded++
		l.foldRelease(true)
		return true
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

// tryFold validates the gathered invocation and simulates it per class:
// every rank must have joined with the identical key (same collective,
// shape and sequence number — the proof they are in the same invocation),
// and no delivery may have raced into a mailbox after its rank joined.
func (l *eventLoop) tryFold() bool {
	w := l.w
	g := &l.fold
	p := w.size
	key0 := g.keys[0]
	for r := 1; r < p; r++ {
		if g.keys[r] != key0 {
			return false
		}
	}
	for r := 0; r < p; r++ {
		// Proc-side mirror of mailbox npend: one line the resolver's token
		// scan is about to touch anyway, not a cold mailbox line per rank.
		if l.ranks[r].proc.mbPend != 0 {
			return false
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
		return false
	}
	return sh.simulate(l)
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
// family across all steps, and no truncating message.
func foldExtractSteps(p int, steps0 []collStep, stepsOf func(r int) []collStep) *foldExtract {
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
	fx.nArr = make([]int32, p*ns)
	fx.sendNA = make([]int32, p*ns)
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
	sh.nclass = sh.refinePartition(class, len(reps))
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
// model — the same pure netmodel calls priceTo makes per rank.
func (w *World) foldCostsFor(sh *foldShape) [][]foldCost {
	model := w.cfg.Model
	py := w.cfg.PyMode
	fullSub := w.fullSub
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
				link := w.link(rep, gdst)
				sendN := int(sh.repSendN[i][k])
				pc := model.PtPt(link, sendN, py, fullSub)
				c := &cc[k]
				c.sendOver, c.wire, c.transmit = pc.SendOverhead, pc.Wire, pc.Transmit
				c.recvOver, c.eager = pc.RecvOverhead, pc.Eager
				if py {
					// Collective tags are always internal (> MaxUserTag).
					c.pyLock = model.PyOpLock(link, sendN, true, fullSub)
				}
			case opReduce:
				cc[k].compute = model.Compute(int(sh.repN[i][k]), py, fullSub)
			}
		}
		costs[i] = cc
	}
	return costs
}

// refinePartition refines cls by every exchange step's send and recv peer
// classes until stable: members of a class agree on the class of each
// peer. The key includes the current class, so refinement only splits and
// terminates; labels stay in first-seen rank order. A delta that split
// nothing cannot split the same partition later, so it is skipped until
// the next split: ring allgather repeats +1 and -1 on all p-1 steps.
func (sh *foldShape) refinePartition(cls []int32, ncls int) int {
	p := len(cls)
	next := make([]int32, p)
	var dense []int32
	// stable remembers up to 8 deltas that split nothing since the last
	// split; further ones are refined again. A fixed array keeps the
	// per-entry partitions of a warm run allocation-free.
	var stable [8]int32
	nstable := 0
	refineBy := func(delta int32) {
		if slices.Contains(stable[:nstable], delta) {
			return
		}
		n := 0
		if ncls <= foldDenseRefine {
			need := ncls * ncls
			if cap(dense) < need {
				dense = make([]int32, need)
			}
			tab := dense[:need]
			for i := range tab {
				tab[i] = -1
			}
			for r := 0; r < p; r++ {
				peer := foldApply(sh.kind, r, int(delta), p)
				key := int(cls[r])*ncls + int(cls[peer])
				id := tab[key]
				if id < 0 {
					id = int32(n)
					n++
					tab[key] = id
				}
				next[r] = id
			}
		} else {
			m := make(map[int64]int32, ncls+16)
			for r := 0; r < p; r++ {
				peer := foldApply(sh.kind, r, int(delta), p)
				key := int64(cls[r])<<32 | int64(cls[peer])
				id, ok := m[key]
				if !ok {
					id = int32(n)
					n++
					m[key] = id
				}
				next[r] = id
			}
		}
		if n != ncls {
			ncls = n
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
	entryLB                []*foldLB
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

// buildPartition refines an observed entry-token pattern against the shape.
func (sh *foldShape) buildPartition(tokOf []int32, ntok int) *foldPartition {
	cls := append([]int32(nil), tokOf...)
	ncls := sh.refinePartition(cls, ntok)
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
func (sh *foldShape) simulate(l *eventLoop) bool {
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
	)
	switch {
	case ident:
		// Identity partition: class i is rank i; peers are computed from the
		// step deltas directly, costs index through the structural classes.
		ncls = p
		costIdx = sh.class
	case foldI32Equal(tokOf, sh.class):
		cls, ncls, reps = sh.class, sh.nclass, sh.reps
		costIdx = sh.identIdx
		sendCls, recvCls = sh.sendCls, sh.recvCls
	default:
		var part *foldPartition
		for _, cand := range sh.parts {
			if foldI32Equal(cand.tok, tokOf) {
				part = cand
				break
			}
		}
		if part == nil {
			part = sh.buildPartition(tokOf, len(toks))
			if part == nil {
				return false
			}
			if len(sh.parts) >= foldMaxPartitions {
				sh.parts = sh.parts[:0]
			}
			sh.parts = append(sh.parts, part)
		}
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

	// 4. The coupled recurrence: per exchange step, three phases over all
	// classes (post, receive, drain), each line mirroring the exact float64
	// operation order of postSendPriced / finishRecv / completeSend.
	py := w.cfg.PyMode
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
		pr.clock.Set(clock[i])
		pr.foldLB = &slab[i]
		// No schedule was ever compiled, but the invocation still consumed
		// the communicator's collective sequence number (every fallback or
		// per-rank path bumps it through nextCollTag), so advance it here to
		// keep tag sequences identical across folded, fallback and fold-off
		// executions.
		pr.comm0.collSeq++
	}
	return true
}
