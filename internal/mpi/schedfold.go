package mpi

// Fold entry: how a collective invocation reaches the symmetry fold
// (fold.go) without any per-rank schedule object.
//
//   - At collective entry (startColl / barrierStart), an eligible rank does
//     not compile anything. It records the invocation key — (collective,
//     bytes, root, dtype, op, collective sequence number) — and returns the
//     schedFoldPending sentinel; the blocking drive joins the event loop's
//     gather with that key.
//   - The resolver compares keys (p integer compares), looks the shape up in
//     a value-keyed per-world cache, and simulates the whole invocation per
//     equivalence class, or per rank on a step table (fold.go). No per-rank
//     collSched is ever materialized on this path.
//   - The first time a shape key is seen in the process, the resolver
//     compiles one probe schedule per rank (streaming, into one reused
//     buffer) and verifies uniformity; a shape without it (a rooted tree, a
//     non-power-of-two world) is compiled once more into a per-rank table
//     with every receive matched to its send. The analyzed structure goes to
//     a process-wide cache keyed by (algorithm, comm size, invocation
//     shape, link signature) — so subsequent worlds of the same sweep pay
//     only a re-pricing pass, never a compile.
//   - Anything irregular — mismatched keys across ranks, pending traffic,
//     builders that draw staging storage, truncating messages, tables over
//     the step budget, sub-communicators, outstanding nonblocking
//     collectives, fault plans — falls back: the gathered ranks materialize
//     per-rank schedules through the unchanged replay path
//     (compileReplayColl) and drive them per rank. Folding can therefore
//     only change speed, never a number (the fold parity suite pins every
//     case against Config.DisableFold).
//   - A timed loop of identical calls (Comm.Repeat) carries its repetition
//     counts in the first call's key; one gather then resolves the whole
//     loop, so each rank parks once per loop instead of once per call.

import (
	"sync"
	"sync/atomic"

	"repro/internal/topology"
	"repro/internal/vtime"
)

// shapeKey identifies one collective invocation shape on the world
// communicator (context 0 is implied by eligibility).
type shapeKey struct {
	coll Collective
	n    int
	root int
	dt   DType
	op   Op
}

// foldKey is the per-invocation gather key: the shape plus the
// communicator's collective sequence number, which every member agrees on
// (collective calls are collectively ordered), plus the timed loop the
// invocation starts, if any. Key equality across all ranks proves they are
// entering the same invocation of the same collective, and the same loop.
type foldKey struct {
	shape shapeKey
	seq   int
	rep   foldRepeat
}

// foldRepeat is the timed loop a gather resolves in one go (Comm.Repeat):
// reps identical invocations, the first warmup of them untimed. The zero
// value is a single plain invocation.
type foldRepeat struct {
	reps, warmup int
}

// timed reports whether repetition j of a batched loop adds to the ranks'
// elapsed sums.
func (r foldRepeat) timed(j int) bool { return r.reps > 0 && j >= r.warmup }

// takeRepeat consumes the loop Comm.Repeat armed, if any: only the first
// collective entry of its callback may carry it.
func (p *Proc) takeRepeat() foldRepeat {
	r := p.repeat
	p.repeat = foldRepeat{}
	return r
}

// Repeat times a loop of one blocking collective: call, which must make
// exactly one blocking collective call on c, runs warmup+iters times, and
// Repeat returns the rank's virtual time summed over the timed calls. The
// sum is the loop
//
//	for i := 0; i < warmup+iters; i++ {
//		t0 := Wtime()
//		call()
//		if i >= warmup {
//			e += Wtime() - t0
//		}
//	}
//
// bit for bit. When the first call is fold-eligible, every rank joins one
// gather whose key carries (reps, warmup), and the resolver simulates the
// repetitions back to back with the same float64 operations per rank, so a
// rank parks once per loop. Everywhere else — a fallback, data-carrying,
// traced, fault-plan and fold-off worlds, sub-communicators — it is that
// loop.
func (c *Comm) Repeat(warmup, iters int, call func() error) (vtime.Micros, error) {
	reps := warmup + iters
	if reps <= 0 {
		return 0, nil
	}
	p := c.proc
	p.repeat = foldRepeat{reps: reps, warmup: warmup}
	p.repeatE = 0
	var e vtime.Micros
	for i := 0; i < reps; i++ {
		t0 := p.clock.Now()
		err := call()
		// A loop whose first call reached no collective entry leaves the
		// request armed; it must not reach the second.
		p.repeat = foldRepeat{}
		if err != nil {
			return e, err
		}
		if p.repeatDone {
			p.repeatDone = false
			return p.repeatE, nil
		}
		if i >= warmup {
			e += p.clock.Now() - t0
		}
	}
	return e, nil
}

// foldPending carries a deferred collective invocation from startColl to
// the blocking drive (or to collRequest, which materializes immediately:
// a nonblocking post must never park in a gather — overlap semantics
// depend on returning to the caller).
type foldPending struct {
	key  foldKey
	sel  Selection
	call collCall
}

// schedFoldPending is the sentinel startColl returns instead of a compiled
// schedule when the invocation is eligible for schedule folding. driveSched
// routes it to schedFoldDrive; collRequest materializes it.
var schedFoldPending = new(collSched)

// SchedFoldStats is the fold entry's view of FoldStats.
//
// Deprecated: read World.FoldStats, which carries every fold counter.
type SchedFoldStats struct {
	// GatherHits is FoldStats.Folded.
	GatherHits int64
	// Fallbacks is FoldStats.Fallback plus FoldStats.Released.
	Fallbacks int64
	// ClassesCompiled is FoldStats.ClassesCompiled.
	ClassesCompiled int64
	// StructHits is FoldStats.StructHits.
	StructHits int64
}

// SchedFoldStats returns the world's fold counters in the SchedFoldStats
// shape.
//
// Deprecated: read World.FoldStats.
func (w *World) SchedFoldStats() SchedFoldStats {
	f := w.foldStats
	return SchedFoldStats{
		GatherHits:      f.Folded,
		Fallbacks:       f.Fallback + f.Released,
		ClassesCompiled: f.ClassesCompiled,
		StructHits:      f.StructHits,
	}
}

// cacheOverflows counts, process-wide, every time a bounded cross-world
// cache (the schedStore freelist or the fold structure cache) refused an
// insert because its byte budget was full. A nonzero count over a
// huge-world sweep means reuse silently reverted to per-run rebuilds.
var cacheOverflows atomic.Int64

// CacheOverflowCount returns the process-wide count of cross-world cache
// budget overflows (schedule store, fold structure cache).
func CacheOverflowCount() int64 { return cacheOverflows.Load() }

// schedFoldEligible is the cheap per-rank pre-check run at collective entry:
// only full-world, context-0, buffer-free invocations on untraced,
// fault-free worlds with an empty mailbox and no outstanding nonblocking
// collectives may defer compilation.
func (l *eventLoop) schedFoldEligible(c *Comm, sk shapeKey) bool {
	w := l.w
	if !w.schedFoldOK || c.ctx != 0 || len(c.group) != w.size ||
		len(c.proc.activeScheds) != 0 {
		return false
	}
	if c.proc.mbPend != 0 {
		return false
	}
	if len(w.foldNo) != 0 {
		if _, no := w.foldNo[sk]; no {
			return false
		}
	}
	return true
}

// schedFoldDrive is the blocking drive of a deferred collective: join the
// key gather; on a fold the clock and link state already hold the exit
// values (and the collective sequence advanced) — of the whole loop, when
// the key carries one — so there is nothing left to do. A cancel may have
// cut the loop short (simulate), so a batched rank passes the cancellation
// checkpoint again before its sum counts. On fallback, materialize the
// per-rank schedule through the normal replay path and drive it — the
// exact per-rank execution.
func (c *Comm) schedFoldDrive() error {
	pend := &c.proc.foldPend
	er := c.proc.ev
	if er.loop.foldJoinKey(er, pend) {
		if pend.key.rep.reps > 0 {
			if err := c.proc.cancelEnter(pend.key.shape.coll); err != nil {
				return err
			}
			c.proc.repeatDone = true
		}
		return nil
	}
	s, err := c.materializePending(pend)
	if err != nil {
		return err
	}
	if s == nil {
		return nil
	}
	return c.driveSteps(s)
}

// materializePending compiles the per-rank schedule of a deferred
// invocation (fallback path, and every nonblocking post).
func (c *Comm) materializePending(pend *foldPending) (*collSched, error) {
	if pend.key.shape.coll == collBarrier {
		return c.compileBarrierSched(), nil
	}
	return c.compileReplayColl(pend.key.shape.coll, pend.sel, pend.call)
}

// foldStructKey identifies an analyzed schedule structure independently of
// any world: the selected algorithm (a stable registry pointer capturing
// the collective and the tuning decision), the world size, the invocation
// shape, and the placement's link signature. Identical keys compile to
// identical step structures and identical equivalence classes; message
// prices are per-world (model, PyMode) and recomputed on every hit.
// tableSteps is the step budget (foldMaxTableSteps) the analysis ran
// under: a table refused under one budget may fit another.
type foldStructKey struct {
	alg        *Algorithm
	p          int
	n          int
	root       int
	dt         DType
	op         Op
	linkSig    uint64
	tableSteps int
}

// foldStructCache shares analyzed shapes across worlds (sync.Map: sweeps
// run worlds in parallel). Entries are immutable *foldShape templates with
// nil costs/parts; negative results (ok=false) are cached too, so a sweep
// probes an unfoldable shape once per process, not once per world.
var foldStructCache sync.Map

// foldStructBytes bounds the structure cache; overflowing inserts are
// skipped (and counted), the per-world shape cache still works.
var foldStructBytes atomic.Int64

const foldStructMaxBytes = 256 << 20

// publishFoldStruct stores an analyzed structure within budget and reports
// whether it became the cached entry. It reserves the budget before
// LoadOrStore and refunds the reservation when the key was already there (a
// parallel world won the publish race, or a signature collision holds the
// slot), so only stored bytes stay charged; a leaked charge would
// accumulate until the budget refused every insert.
func publishFoldStruct(key foldStructKey, tmpl *foldShape) bool {
	fp := foldStructFootprint(tmpl)
	if foldStructBytes.Add(fp) > foldStructMaxBytes {
		foldStructBytes.Add(-fp)
		cacheOverflows.Add(1)
		return false
	}
	if _, loaded := foldStructCache.LoadOrStore(key, tmpl); loaded {
		foldStructBytes.Add(-fp)
		return false
	}
	return true
}

// foldStructFootprint estimates the retained bytes of a cached structure.
func foldStructFootprint(sh *foldShape) int64 {
	b := int64(256) + int64(len(sh.class))*4 + int64(len(sh.steps))*16 +
		int64(len(sh.reps)+len(sh.identIdx)+len(sh.slotDeltas))*4
	per := int64(len(sh.steps)) * 4
	b += int64(len(sh.sendCls)+len(sh.recvCls)+len(sh.repN)+len(sh.repSendN)) * (per + 24)
	b += int64(len(sh.dom))*4 + int64(len(sh.domLink))*8
	if t := sh.tab; t != nil {
		b += int64(len(t.rank)+len(t.peer)+len(t.match)+len(t.price)+len(t.order))*4 +
			int64(len(t.prices))*16
	}
	return b
}

// resolveFoldAlg resolves the algorithm a deferred invocation would have
// selected; only needed on a shape-cache miss (the steady state never
// walks the policy).
func resolveFoldAlg(c *Comm, sk shapeKey, sel Selection) (*Algorithm, error) {
	if sk.coll == collBarrier {
		return barrierAlg, nil
	}
	return c.algorithm(sk.coll, sel)
}

// buildFoldShapeProbe resolves a shape-cache miss for a key gather: fetch
// the analyzed structure from the process-wide cache (verifying the link
// tables exactly — the signature is a hash) or compile one probe schedule
// per rank and analyze them, then attach this world's price tables.
func (l *eventLoop) buildFoldShapeProbe(sk shapeKey, pend *foldPending) *foldShape {
	w := l.w
	c0 := l.ranks[0].proc.CommWorld()
	alg, err := resolveFoldAlg(c0, sk, pend.sel)
	if err != nil || alg == nil || alg.build == nil {
		return &foldShape{}
	}
	key := foldStructKey{alg: alg, p: w.size, n: sk.n, root: sk.root,
		dt: sk.dt, op: sk.op, linkSig: w.linkSig, tableSteps: foldMaxTableSteps}
	if v, ok := foldStructCache.Load(key); ok {
		tmpl := v.(*foldShape)
		if foldI32Equal(tmpl.dom, w.dom) && foldLinksEqual(tmpl.domLink, w.domLink) {
			w.foldStats.StructHits++
			if !tmpl.ok {
				return tmpl
			}
			shw := *tmpl
			shw.costs = w.foldCostsFor(&shw)
			shw.parts = nil
			return &shw
		}
		// A signature collision between distinct placements: build for this
		// world without fighting over the cache slot.
	}
	sh := l.probeAndAnalyze(alg, pend.call)
	w.foldStats.ClassesCompiled += int64(sh.nclass)
	tmpl := *sh
	tmpl.costs, tmpl.parts = nil, nil
	tmpl.dom, tmpl.domLink = w.dom, w.domLink
	publishFoldStruct(key, &tmpl)
	return sh
}

// probeAndAnalyze compiles every rank's schedule for the deferred call into
// a reused probe buffer (streaming — rank r's steps are consumed before
// rank r+1 compiles) and runs the uniformity analysis on them. A shape
// without class symmetry is compiled a second time into a per-rank table
// (fold.go's foldTable). No pool, no tag, no replay cache is touched: the
// probes exist only to prove the shape.
func (l *eventLoop) probeAndAnalyze(alg *Algorithm, call collCall) *foldShape {
	w := l.w
	var probe collSched
	compile := func(r int) ([]collStep, bool) {
		cr := l.ranks[r].proc.CommWorld()
		probe.c = cr
		probe.steps = probe.steps[:0]
		probe.dt, probe.op = call.dt, call.op
		if err := alg.build(cr, call, &probe); err != nil {
			return nil, false
		}
		if len(probe.bufs) != 0 || len(probe.ints) != 0 {
			// The builder drew staging storage: its steps reference world
			// memory and can never fold. Release and refuse.
			for i, b := range probe.bufs {
				cr.proc.arena.put(b)
				probe.bufs[i] = nil
			}
			probe.bufs = probe.bufs[:0]
			for i, b := range probe.ints {
				cr.proc.arena.putInts(b)
				probe.ints[i] = nil
			}
			probe.ints = probe.ints[:0]
			return nil, false
		}
		return probe.steps, true
	}
	steps0, ok := compile(0)
	if !ok {
		return &foldShape{}
	}
	steps0 = append([]collStep(nil), steps0...)
	fx := foldExtractSteps(w.size, steps0, func(r int) []collStep {
		if r == 0 {
			return steps0
		}
		s, good := compile(r)
		ok = ok && good
		return s
	})
	switch {
	case !ok:
		return &foldShape{}
	case fx != nil:
		return buildFoldShapeFx(w, fx)
	}
	tab := buildFoldTable(w, compile)
	if tab == nil {
		return &foldShape{}
	}
	sh := &foldShape{ok: true, tab: tab}
	sh.costs = w.foldCostsFor(sh)
	return sh
}

func foldLinksEqual(a, b []topology.LinkClass) bool {
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
