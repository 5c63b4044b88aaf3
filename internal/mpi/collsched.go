package mpi

// This file implements the schedule-driven collective execution engine.
// Every collective algorithm compiles, at call time, into a flat sequence of
// primitive steps (post a send, drain a handshake, receive, reduce locally,
// copy locally) over buffers fixed at build time. Blocking collectives build
// the schedule and drive it to completion in place; the nonblocking I*
// collectives return the schedule wrapped in a Request and advance it
// incrementally through Test/Wait and the rank's Progress hook. Because the
// executor performs exactly the primitive calls the old monolithic
// collectives made, in exactly the same order, a blocking drive reproduces
// the legacy virtual-time numbers bit for bit.
//
// Schedules, their step slices and their staging buffers are pooled on the
// owning Proc (steps and schedules in freelists, buffers in the scratch
// arena), so steady-state collective traffic allocates nothing.

import (
	"repro/internal/netmodel"
	"repro/internal/topology"
)

// collOp enumerates the primitive step kinds of a compiled schedule.
type collOp uint8

const (
	// opPost injects a send toward a peer (postSend): eager sends complete
	// at post time, rendezvous sends leave a handshake for opWaitSend.
	opPost collOp = iota
	// opWaitSend drains the handshake left by the last opPost; it is a
	// no-op after an eager post.
	opWaitSend
	// opRecv consumes the peer's message of this collective into dst.
	opRecv
	// opReduce charges the local-reduction compute cost for n bytes and
	// folds src into dst (the fold is skipped in timing-only worlds, the
	// charge never is — exactly like the monolithic implementations).
	opReduce
	// opReduceNC folds src into dst without charging compute: the second
	// fold of a Scan round rides on the first fold's charge.
	opReduceNC
	// opCopy moves n bytes from src to dst locally (block placement,
	// rotations); skipped when either side is nil.
	opCopy
	// opSend fuses post+waitSend: inject toward peer, then drain the
	// handshake. Fused steps execute the same primitives in the same order
	// as their unfused spelling — they exist to halve the dispatch count
	// of the hot schedules; the schedule's phase cursor makes them
	// resumable mid-step for the incremental executors.
	opSend
	// opExchange fuses post+recv+waitSend (the deadlock-free Sendrecv
	// ordering): send src to sendPeer, receive from peer into dst, drain.
	opExchange
)

// collStep is one primitive step. Buffer views are resolved at build time.
// peer/n/dst describe the receive side (or the send side for pure sends);
// sendPeer/sendN/src describe the send side of an opExchange.
type collStep struct {
	op       collOp
	peer     int
	n        int
	sendPeer int
	sendN    int
	dst, src []byte
}

// stepPrice caches a post step's resolved destination and message price.
// Replay-cached schedules carry one per step, filled on first execution:
// both are constants of the (schedule, world) pair, and skipping the
// per-post link classification and price lookup is measurable at large
// rank counts. It lives beside the steps (not inside collStep) so the step
// arrays of one-off schedules stay small.
type stepPrice struct {
	gdst   int
	link   topology.LinkClass
	cost   netmodel.PtPtCost
	priced bool
}

// collSched is a compiled collective invocation: the step list, the
// execution cursor, and the staging buffers to release on completion.
type collSched struct {
	c     *Comm
	tag   int
	dt    DType
	op    Op
	steps []collStep
	pc    int

	// coll labels the invocation for fault injection and diagnostics
	// (which collective a kill rule matched, where a survivor was blocked);
	// empty for unlabeled builders. faultEntered marks that the
	// collective-entry fault hook has run for this invocation, so a
	// nonblocking collective's Wait-side driveSched does not double-count.
	coll         Collective
	faultEntered bool

	// pending is the handshake of the last opPost (nil after an eager
	// post); pendingSet distinguishes "eager post outstanding" from "no
	// post outstanding" so builder bugs trip the panic below.
	pending    *rendezvous
	pendingSet bool

	// owner is the Request driving this schedule, nil for blocking drives.
	owner *Request

	// phase is the sub-step cursor of the fused ops: 0 = nothing done yet,
	// 1 = posted (opSend: draining; opExchange: receiving), 2 = opExchange
	// received, draining. At most one fused step is in flight, so one
	// cursor per schedule suffices; pc only advances when a step fully
	// completes.
	phase uint8

	// cached marks a schedule retained by the replay cache (eventsched.go):
	// finish releases it for the next replay instead of tearing it down;
	// inUse guards against replaying it while a previous invocation is
	// still in flight; prices caches the post steps' message prices across
	// replays (one entry per posting step, in post order, cursor postIdx).
	cached, inUse bool
	prices        []stepPrice
	postIdx       int

	// bufs and ints are arena staging allocations released by finish.
	bufs [][]byte
	ints [][]int
}

// getSched draws a pooled schedule, stamps it with the communicator's next
// per-invocation collective tag, and resets its cursor and freelists. A
// fresh schedule starts empty and grows its steps by append.
func (c *Comm) getSched() *collSched {
	p := c.proc
	var s *collSched
	if n := len(p.schedFree); n > 0 {
		s = p.schedFree[n-1]
		p.schedFree[n-1] = nil
		p.schedFree = p.schedFree[:n-1]
	} else if s = getPooledSched(); s == nil {
		s = &collSched{}
	}
	s.c = c
	s.tag = c.nextCollTag()
	s.dt, s.op = 0, 0
	s.steps = s.steps[:0]
	s.pc = 0
	s.phase = 0
	s.pending, s.pendingSet = nil, false
	s.owner = nil
	s.cached, s.inUse = false, false
	s.prices, s.postIdx = s.prices[:0], 0
	s.coll, s.faultEntered = "", false
	return s
}

// finish releases the schedule's staging buffers to the rank's arena, drops
// buffer references held by the steps, unregisters it from the rank's
// progress list and returns it to the pool. A replay-cached schedule keeps
// its steps (they hold no buffers) and is merely released for the next
// replay.
func (s *collSched) finish() {
	p := s.c.proc
	if s.cached {
		for i, act := range p.activeScheds {
			if act == s {
				p.activeScheds = append(p.activeScheds[:i], p.activeScheds[i+1:]...)
				break
			}
		}
		s.pending, s.pendingSet = nil, false
		s.phase = 0
		s.owner = nil
		s.inUse = false
		s.faultEntered = false
		return
	}
	for i, b := range s.bufs {
		p.arena.put(b)
		s.bufs[i] = nil
	}
	s.bufs = s.bufs[:0]
	for i, b := range s.ints {
		p.arena.putInts(b)
		s.ints[i] = nil
	}
	s.ints = s.ints[:0]
	for i := range s.steps {
		s.steps[i].dst, s.steps[i].src = nil, nil
	}
	for i, act := range p.activeScheds {
		if act == s {
			p.activeScheds = append(p.activeScheds[:i], p.activeScheds[i+1:]...)
			break
		}
	}
	s.owner = nil
	if cap(p.schedFree) == 0 {
		// First release after a Run reset: size the freelist once for the
		// handful of schedules a rank cycles through, instead of paying the
		// 1→2→4 append-doubling chain on every rank of every Run.
		p.schedFree = make([]*collSched, 0, 8)
	}
	p.schedFree = append(p.schedFree, s)
}

// scratch draws an arena staging buffer owned by the schedule (released by
// finish, i.e. when the collective completes).
func (s *collSched) scratch(n int) []byte {
	b := s.c.proc.arena.get(n)
	s.bufs = append(s.bufs, b)
	return b
}

// Step emitters. send and exchange mirror the blocking primitives the
// monolithic collectives were written in: send = post+waitSend, exchange =
// post+recv+waitSend (the deadlock-free Sendrecv ordering).

func (s *collSched) emit(st collStep) { s.steps = append(s.steps, st) }

func (s *collSched) post(peer int, buf []byte, n int) {
	s.emit(collStep{op: opPost, peer: peer, src: buf, n: n})
}

func (s *collSched) waitSend() { s.emit(collStep{op: opWaitSend}) }

func (s *collSched) send(peer int, buf []byte, n int) {
	s.emit(collStep{op: opSend, peer: peer, src: buf, n: n})
}

func (s *collSched) recv(peer int, buf []byte, n int) {
	s.emit(collStep{op: opRecv, peer: peer, dst: buf, n: n})
}

func (s *collSched) exchange(dst int, sbuf []byte, sn int, src int, rbuf []byte, rn int) {
	s.emit(collStep{op: opExchange, sendPeer: dst, src: sbuf, sendN: sn, peer: src, dst: rbuf, n: rn})
}

func (s *collSched) reduce(dst, src []byte, n int) {
	s.emit(collStep{op: opReduce, dst: dst, src: src, n: n})
}

func (s *collSched) reduceNC(dst, src []byte, n int) {
	s.emit(collStep{op: opReduceNC, dst: dst, src: src, n: n})
}

func (s *collSched) copyStep(dst, src []byte, n int) {
	s.emit(collStep{op: opCopy, dst: dst, src: src, n: n})
}

// postStep injects the sending half of a posting step, through the
// schedule's per-step price cache when it has one.
func (s *collSched) postStep(peer int, buf []byte, n int) {
	if s.pendingSet {
		panic("mpi: collective schedule posted twice without waitSend")
	}
	c := s.c
	if len(s.prices) != 0 {
		pr := &s.prices[s.postIdx]
		s.postIdx++
		if !pr.priced {
			pr.gdst = c.group[peer]
			var cost *netmodel.PtPtCost
			pr.link, cost = c.proc.priceTo(pr.gdst, n)
			pr.cost, pr.priced = *cost, true
		}
		s.pending = c.postSendPriced(pr.gdst, s.tag, buf, n, pr.link, &pr.cost)
	} else {
		s.pending = c.postSend(peer, s.tag, buf, n)
	}
	s.pendingSet = true
}

// drainStep completes the outstanding posted send, reporting false when
// the handshake has not been reported yet.
func (s *collSched) drainStep() bool {
	if s.pending != nil {
		done, ok := s.pending.tryDone()
		if !ok {
			return false
		}
		s.c.proc.clock.AdvanceTo(done)
		s.c.proc.putRendezvous(s.pending)
	}
	s.pending, s.pendingSet = nil, false
	return true
}

// execStep runs steps[pc], reporting false when the step cannot complete
// right now (nothing is consumed or charged in that case, so the step —
// resumable mid-way through a fused op via the phase cursor — can be
// retried). It never parks: the event loop replays schedules on stacks
// that must not.
func (s *collSched) execStep() (bool, error) {
	c := s.c
	st := &s.steps[s.pc]
	switch st.op {
	case opSend:
		if s.phase == 0 {
			s.postStep(st.peer, st.src, st.n)
			s.phase = 1
		}
		if !s.drainStep() {
			return false, nil
		}
		s.phase = 0
	case opExchange:
		if s.phase == 0 {
			s.postStep(st.sendPeer, st.src, st.sendN)
			s.phase = 1
		}
		if s.phase == 1 {
			_, ok, err := c.tryRecvBytes(st.peer, s.tag, st.dst, st.n)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
			s.phase = 2
		}
		if !s.drainStep() {
			return false, nil
		}
		s.phase = 0
	case opPost:
		s.postStep(st.peer, st.src, st.n)
	case opWaitSend:
		if !s.pendingSet {
			panic("mpi: collective schedule waitSend without post")
		}
		if !s.drainStep() {
			return false, nil
		}
	case opRecv:
		// Error paths leave any posted send pending; the caller drains it
		// (drainPending) before abandoning the schedule.
		_, ok, err := c.tryRecvBytes(st.peer, s.tag, st.dst, st.n)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	case opReduce:
		c.chargeCompute(st.n)
		if st.dst != nil && st.src != nil {
			if err := reduceInto(st.dst[:st.n], st.src[:st.n], s.dt, s.op); err != nil {
				return false, err
			}
		}
	case opReduceNC:
		if st.dst != nil && st.src != nil {
			if err := reduceInto(st.dst[:st.n], st.src[:st.n], s.dt, s.op); err != nil {
				return false, err
			}
		}
	case opCopy:
		if st.dst != nil && st.src != nil {
			copy(st.dst[:st.n], st.src[:st.n])
		}
	}
	s.pc++
	return true, nil
}

// drainPending completes an outstanding posted send after a failed receive
// step, mirroring sendrecvRaw's error path: the message was already
// injected, so its handshake must be drained (and recycled) even though
// the schedule is being abandoned. Once the world is in failure mode the
// handshake's peer may be dead, so the drain is dropped instead of
// blocking (the handshake object is abandoned to the GC).
func (s *collSched) drainPending() {
	if s.pendingSet && s.pending != nil {
		p := s.c.proc
		if p.failure == nil && !p.world.failedFlag.Load() {
			_ = s.c.completeSend(s.pending)
		}
	}
	s.pending, s.pendingSet = nil, false
}

// driveSched executes the remaining steps with blocking semantics and
// releases the schedule. This is the whole execution of a blocking
// collective and the tail of a collective Request's Wait; the steps run on
// the event loop (driveSteps), two coroutine switches in total.
func (c *Comm) driveSched(s *collSched) error {
	if c.proc.world.cancelOn {
		// Cancellation checkpoint before any step runs: the canonical
		// deterministic cancel site (cancel.go). The sentinel carries no
		// schedule to release; a real one is finished like any errored
		// drive.
		coll := Collective("")
		if s != schedFoldPending {
			coll = s.coll
		} else {
			coll = c.proc.foldPend.key.shape.coll
		}
		if err := c.proc.cancelEnter(coll); err != nil {
			if s != schedFoldPending {
				s.drainPending()
				s.finish()
			}
			return err
		}
	}
	if s == schedFoldPending {
		// Schedule folding deferred the compile (schedfold.go): gather on
		// the invocation key; only a fallback materializes a schedule. The
		// fault hook below cannot be skipped by this: fault plans disable
		// the deferral outright.
		return c.schedFoldDrive()
	}
	if c.proc.world.faults != nil && !s.faultEntered {
		s.faultEntered = true
		if err := c.proc.faultCollEnter(s); err != nil {
			s.drainPending()
			s.finish()
			return err
		}
	}
	return c.driveSteps(s)
}

// advancePrefix executes the deterministic prefix of a schedule: local
// steps and message injections, stopping before the first step whose
// completion depends on another rank (a receive, or draining a rendezvous
// handshake). Running it at I*-post time is what lets eager rounds overlap
// with compute injected before Wait, while keeping the virtual-time outcome
// independent of the order the loop runs ranks in.
func (s *collSched) advancePrefix() error {
	for s.pc < len(s.steps) {
		st := &s.steps[s.pc]
		switch st.op {
		case opRecv:
			return nil
		case opWaitSend:
			if s.pending != nil {
				return nil
			}
		case opSend:
			// Inject, then stop only if draining depends on the receiver.
			if s.phase == 0 {
				s.postStep(st.peer, st.src, st.n)
				s.phase = 1
			}
			if s.pending != nil {
				return nil
			}
			s.pending, s.pendingSet = nil, false
			s.phase = 0
			s.pc++
			continue
		case opExchange:
			// Inject the send half; the receive half depends on the peer.
			if s.phase == 0 {
				s.postStep(st.sendPeer, st.src, st.sendN)
				s.phase = 1
			}
			return nil
		}
		if _, err := s.execStep(); err != nil {
			return err
		}
	}
	return nil
}

// tryDrive advances the schedule as far as possible without blocking and
// reports whether it ran to completion. It does not release the schedule.
func (s *collSched) tryDrive() (bool, error) {
	for s.pc < len(s.steps) {
		ok, err := s.execStep()
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Collective messages are stamped with a per-invocation tag above
// MaxUserTag: the communicator's k-th collective uses tagCollBase+k on
// every member (collective calls are collectively ordered, so the counters
// agree across ranks). Distinct invocations therefore never share a tag,
// which keeps the posted prefix of a later nonblocking collective from
// overtaking an earlier one's traffic, and keeps collective traffic from
// ever matching a user-tag receive.
const tagCollBase = MaxUserTag + 1

// nextCollTag returns the tag of the communicator's next collective.
func (c *Comm) nextCollTag() int {
	t := tagCollBase + c.collSeq
	c.collSeq++
	return t
}

// startColl selects the algorithm for one collective invocation, compiles
// its schedule and returns it ready to drive. Buffer-free invocations
// eligible for schedule folding defer the compile entirely (the
// schedFoldPending sentinel; see schedfold.go) — in the steady folded
// state no schedule object ever exists for them. Ineligible
// buffer-free invocations hit the replay cache: the schedule compiled for
// this (algorithm, size, root, dtype, op) shape is re-armed instead of
// rebuilt (see eventsched.go).
func (c *Comm) startColl(coll Collective, sel Selection, call collCall) (*collSched, error) {
	if call.replayable() {
		key := foldKey{shape: shapeKey{coll: coll, n: call.n, root: call.root,
			dt: call.dt, op: call.op}, seq: c.collSeq}
		if c.proc.ev.loop.schedFoldEligible(c, key.shape) {
			c.proc.foldPend = foldPending{key: key, sel: sel, call: call}
			return schedFoldPending, nil
		}
		return c.compileReplayColl(coll, sel, call)
	}
	alg, err := c.algorithm(coll, sel)
	if err != nil {
		return nil, err
	}
	s := c.getSched()
	s.dt, s.op = call.dt, call.op
	s.coll = coll
	if err := alg.build(c, call, s); err != nil {
		s.finish()
		return nil, err
	}
	return s, nil
}

// compileReplayColl is the per-rank compile/replay of a buffer-free
// collective invocation — the schedule-fold fallback path and the whole
// path when schedule folding is off.
func (c *Comm) compileReplayColl(coll Collective, sel Selection, call collCall) (*collSched, error) {
	key := replayKey{ctx: c.ctx, coll: coll, n: call.n, root: call.root, dt: call.dt, op: call.op}
	s, known := c.replaySched(key)
	if s != nil {
		s.coll = coll
		return s, nil
	}
	alg, err := c.algorithm(coll, sel)
	if err != nil {
		return nil, err
	}
	build := func(s *collSched) error { return alg.build(c, call, s) }
	if known {
		// An overlapping invocation of the same shape is still in
		// flight; run this one as an uncached one-off.
		s, err := c.buildSched(call.dt, call.op, build)
		if s != nil {
			s.coll = coll
		}
		return s, err
	}
	s, err = c.compileCachedSched(key, call.dt, call.op, build)
	if s != nil {
		s.coll = coll
	}
	return s, err
}

// collRequest wraps a compiled schedule (nil for a trivially complete
// collective) into a Request, executes the deterministic prefix, and
// registers the schedule with the rank's progress list.
func (c *Comm) collRequest(s *collSched) (*Request, error) {
	if c.proc.world.cancelOn {
		coll := Collective("")
		switch {
		case s == schedFoldPending:
			coll = c.proc.foldPend.key.shape.coll
		case s != nil:
			coll = s.coll
		}
		if err := c.proc.cancelEnter(coll); err != nil {
			if s != nil && s != schedFoldPending {
				s.finish()
			}
			return nil, err
		}
	}
	if s == schedFoldPending {
		// A nonblocking post must never park in a key gather (overlap
		// semantics depend on returning to the caller), so the deferred
		// compile materializes here unconditionally.
		var err error
		if s, err = c.materializePending(&c.proc.foldPend); err != nil {
			return nil, err
		}
	}
	r := c.proc.getRequest()
	r.comm = c
	if s == nil {
		r.complete(Status{}, nil)
		return r, nil
	}
	if c.proc.world.faults != nil && !s.faultEntered {
		s.faultEntered = true
		if err := c.proc.faultCollEnter(s); err != nil {
			s.finish()
			r.complete(Status{}, err)
			r.release() // the caller never sees this request
			return nil, err
		}
	}
	r.sched = s
	s.owner = r
	if err := s.advancePrefix(); err != nil {
		s.drainPending()
		s.finish()
		r.sched = nil
		r.complete(Status{}, err)
		r.release() // the caller never sees this request
		return nil, err
	}
	if s.pc == len(s.steps) {
		s.finish()
		r.sched = nil
		r.complete(Status{}, nil)
		return r, nil
	}
	c.proc.activeScheds = append(c.proc.activeScheds, s)
	return r, nil
}

// Progress gives every outstanding nonblocking collective on this rank a
// chance to advance without blocking, the analogue of an MPI progress-engine
// poll. Completion (or an execution error) is recorded on the owning
// Request and surfaced by its Test/Wait. When collectives remain
// outstanding, Progress yields the rank to the event loop before
// returning.
func (p *Proc) Progress() {
	for i := len(p.activeScheds) - 1; i >= 0; i-- {
		s := p.activeScheds[i]
		done, err := s.tryDrive()
		if done || err != nil {
			if err != nil {
				s.drainPending()
			}
			r := s.owner
			s.finish()
			r.sched = nil
			r.complete(Status{}, err)
		}
	}
	if len(p.activeScheds) != 0 {
		p.yieldPoll()
	}
}
