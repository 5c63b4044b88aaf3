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
//     equivalence class (fold.go). No per-rank collSched is ever
//     materialized on this path.
//   - The first time a shape key is seen in the process, the resolver
//     compiles one probe schedule per rank (streaming, into one reused
//     buffer), verifies uniformity, and publishes the analyzed structure to
//     a process-wide cache keyed by (algorithm, comm size, invocation
//     shape, link signature) — so subsequent worlds of the same sweep pay
//     only a per-class re-pricing pass, never a compile.
//   - Anything irregular — mismatched keys across ranks, unfoldable shapes,
//     sub-communicators, pending traffic, outstanding nonblocking
//     collectives, fault plans — falls back: the gathered ranks materialize
//     per-rank schedules through the unchanged replay path
//     (compileReplayColl) and drive them per rank. Folding can therefore
//     only change speed, never a number (the fold parity suite pins every
//     case against Config.DisableFold).

import (
	"sync"
	"sync/atomic"

	"repro/internal/topology"
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
// (collective calls are collectively ordered). Key equality across all
// ranks proves they are entering the same invocation of the same
// collective.
type foldKey struct {
	shape shapeKey
	seq   int
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

// SchedFoldStats counts the fold entry's outcomes on a world's event
// engine, alongside the simulation-level FoldStats.
type SchedFoldStats struct {
	// GatherHits counts collective invocations resolved entirely at class
	// level: no rank compiled, replayed or scrubbed a schedule object.
	GatherHits int64
	// Fallbacks counts key gathers that fell back to per-rank schedules
	// (mismatched keys, unfoldable shape, raced-in traffic, or a stalled
	// partial gather released by the safety valve).
	Fallbacks int64
	// ClassesCompiled counts equivalence classes compiled by probe shape
	// analysis (process-wide structure-cache misses attributed to this
	// world).
	ClassesCompiled int64
	// StructHits counts shape lookups served by the process-wide structure
	// cache: the world re-priced a cached structure instead of compiling
	// any schedule.
	StructHits int64
}

// SchedFoldStats returns the world's fold-entry counters. Every gather is
// a key gather, so GatherHits and Fallbacks are the FoldStats outcomes seen
// from this layer. Advisory: folding is bit-identical to per-rank
// execution.
func (w *World) SchedFoldStats() SchedFoldStats {
	s := w.schedFoldStats
	s.GatherHits = w.foldStats.Folded
	s.Fallbacks = w.foldStats.Fallback + w.foldStats.Released
	return s
}

// cacheOverflows counts, process-wide, every time a bounded cross-world
// cache (the schedStore freelist, the shared stepCache, or the fold
// structure cache) refused an insert because its byte budget was full.
// A nonzero count over a huge-world sweep means reuse silently reverted to
// per-run rebuilds; scripts/bench.sh fails loudly on it.
var cacheOverflows atomic.Int64

// CacheOverflowCount returns the process-wide count of cross-world cache
// budget overflows (schedule store, step cache, fold structure cache).
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
// values (and the collective sequence advanced), so there is nothing left
// to do. On fallback, materialize the per-rank schedule through the normal
// replay path and drive it — the exact per-rank execution.
func (c *Comm) schedFoldDrive() error {
	pend := &c.proc.foldPend
	er := c.proc.ev
	if er.loop.foldJoinKey(er, pend) {
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
type foldStructKey struct {
	alg     *Algorithm
	p       int
	n       int
	root    int
	dt      DType
	op      Op
	linkSig uint64
}

// foldStructCache shares analyzed shapes across worlds (sync.Map: sweeps
// run worlds in parallel). Entries are immutable *foldShape templates with
// nil costs/parts; negative results (ok=false) are cached too, so a sweep
// probes an unfoldable shape once per process, not once per world.
var foldStructCache sync.Map

// foldStructBytes bounds the structure cache the way stepCacheBytes bounds
// the step cache; overflowing inserts are skipped (and counted), the
// per-world shape cache still works.
var foldStructBytes atomic.Int64

const foldStructMaxBytes = 256 << 20

// foldStructFootprint estimates the retained bytes of a cached structure.
func foldStructFootprint(sh *foldShape) int64 {
	b := int64(256) + int64(len(sh.class))*4 + int64(len(sh.steps))*16 +
		int64(len(sh.reps)+len(sh.identIdx)+len(sh.slotDeltas))*4
	per := int64(len(sh.steps)) * 4
	b += int64(len(sh.sendCls)+len(sh.recvCls)+len(sh.repN)+len(sh.repSendN)) * (per + 24)
	b += int64(len(sh.dom))*4 + int64(len(sh.domLink))*8
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
		dt: sk.dt, op: sk.op, linkSig: w.linkSig}
	if v, ok := foldStructCache.Load(key); ok {
		tmpl := v.(*foldShape)
		if foldI32Equal(tmpl.dom, w.dom) && foldLinksEqual(tmpl.domLink, w.domLink) {
			w.schedFoldStats.StructHits++
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
	w.schedFoldStats.ClassesCompiled += int64(sh.nclass)
	tmpl := *sh
	tmpl.costs, tmpl.parts = nil, nil
	tmpl.dom, tmpl.domLink = w.dom, w.domLink
	if fp := foldStructFootprint(&tmpl); foldStructBytes.Add(fp) <= foldStructMaxBytes {
		foldStructCache.LoadOrStore(key, &tmpl)
	} else {
		foldStructBytes.Add(-fp)
		cacheOverflows.Add(1)
	}
	return sh
}

// probeAndAnalyze compiles every rank's schedule for the deferred call into
// a reused probe buffer (streaming — rank r's steps are consumed before
// rank r+1 compiles) and runs the uniformity analysis on them. No pool, no
// tag, no replay cache is touched: the probes exist only to prove the
// shape.
func (l *eventLoop) probeAndAnalyze(alg *Algorithm, call collCall) *foldShape {
	w := l.w
	var probe collSched
	bad := false
	compile := func(r int) []collStep {
		cr := l.ranks[r].proc.CommWorld()
		probe.c = cr
		probe.steps = probe.steps[:0]
		probe.dt, probe.op = call.dt, call.op
		if err := alg.build(cr, call, &probe); err != nil {
			bad = true
			return nil
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
			bad = true
			return nil
		}
		return probe.steps
	}
	steps0 := compile(0)
	if bad {
		return &foldShape{}
	}
	steps0 = append([]collStep(nil), steps0...)
	fx := foldExtractSteps(w.size, steps0, func(r int) []collStep {
		if r == 0 {
			return steps0
		}
		s := compile(r)
		if bad {
			return nil
		}
		return s
	})
	if fx == nil {
		return &foldShape{}
	}
	return buildFoldShapeFx(w, fx)
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
