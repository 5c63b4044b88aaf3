package mpi

// The event loop: a discrete-event executor that runs an entire world on
// one goroutine, and the runtime's only engine. The virtual-time numbers a
// world computes depend only on message timestamps, never on real
// scheduling, so nothing is gained by giving every rank an OS-scheduled
// goroutine: ranks are coroutines (iter.Pull), a binary-heap run queue
// orders resumptions by (virtual time, rank), and a rank blocked inside a
// compiled collective schedule is advanced *stacklessly* — the loop replays
// its remaining (rank, step) entries in place as messages arrive, so a
// whole collective costs two coroutine switches instead of two per
// message. Payloads move through the same steps: a receive copies out of
// the eager staging buffer or the sender's borrowed rendezvous buffer, and
// a cut-through delivery copies straight into the parked receiver's
// buffer. Run order cannot change a virtual-time number; the frozen
// answers of TestEngineParity and the golden fixture pin them.
//
// A world uses one core. Independent worlds — the variants of a
// core.Sweep — run on separate goroutines, which is where a multi-core
// host pays off.
//
// Classic DES refinements keep the loop itself off the profile:
//
//   - Direct handoff: the common pattern is "deliver one message, then
//     block", which makes the just-woken peer the next rank to run. A
//     small LIFO slot ring absorbs wake bursts without touching the heap;
//     the heap remains the run queue beyond that. Run order cannot change
//     any virtual time (that is the determinism invariant above), it only
//     changes how much bookkeeping the loop pays.
//   - Precise wakeups: a blocked rank records what would unblock it (a
//     (ctx, src, tag) match or its rendezvous completion), and deliver
//     skips ranks that cannot use the new message, avoiding futile replay
//     attempts.
//   - Cut-through: a message (or a rendezvous completion report) whose
//     destination rank is parked exactly at the matching step is applied
//     to that rank's clock and cursor in place — no envelope, no queue
//     round trip. A sender about to miss can also pull a runnable
//     receiver's schedule forward to its block point first (pullForward),
//     which is what keeps whole collective rounds switch-free.

import (
	"repro/internal/vtime"
)

// DebugCounters, when non-nil, accumulates event-loop statistics for
// performance investigations ([0]=cut-through deliveries, [1]=mailbox
// deliveries, [3]=heap pushes, [4]=slot handoffs, [5]=heap pops,
// [6]=coroutine resumes, [7]=loop-side schedule replays). Not for
// production use.
var DebugCounters *[8]int64

// rankState tracks where a rank is in the event loop's lifecycle.
type rankState uint8

const (
	// rankRunnable: queued in the run heap (or the handoff slot).
	rankRunnable rankState = iota
	// rankRunning: currently executing (coroutine or schedule steps).
	rankRunning
	// rankBlocked: waiting for a message or rendezvous completion; not
	// queued. A wake moves it back to rankRunnable.
	rankBlocked
	// rankDone: body returned.
	rankDone
)

// waitKind narrows which events may wake a blocked rank.
type waitKind uint8

const (
	// waitAny: any delivery into the rank's mailbox wakes it (used by
	// body-level polls like Waitany, whose pending set the loop cannot see).
	waitAny waitKind = iota
	// waitMsg: only a delivery matching (waitCtx, waitSrc, waitTag) wakes
	// it. Rendezvous completions still wake it (they are always directed).
	waitMsg
	// waitRdv: only its posted rendezvous completing wakes it.
	waitRdv
	// waitFold: parked in a symmetry-fold gather (fold.go). Only the fold
	// resolver wakes it; deliveries and rendezvous reports leave it parked
	// (a delivery lands in its mailbox and makes the gather ineligible at
	// resolve time instead).
	waitFold
)

// eventStop is the sentinel panic that unwinds a rank coroutine when the
// loop shuts down early (another rank erred and this one is still blocked).
type eventStop struct{}

// eventRank is one rank's executor state.
type eventRank struct {
	loop  *eventLoop
	proc  *Proc
	state rankState
	// wait is the rank's wake filter while rankBlocked.
	wait             waitKind
	waitCtx, waitSrc int
	waitTag          int
	// key is the rank's clock at queue time: the heap's sort key, cached so
	// sift comparisons stay one load instead of a pointer chase.
	key vtime.Micros
	// yield suspends the rank's coroutine back to the loop; next resumes
	// it; stop unwinds it. All three come from the rank's pooled worker
	// coroutine (coropool.go). finished is set by the worker when a resume
	// ran the body to its end rather than parking it — the worker then
	// idles at a yield instead of exiting, so next still reports alive.
	yield    func(struct{}) bool
	next     func() (struct{}, bool)
	stop     func()
	cw       *coroWorker
	finished bool
	// sched, when non-nil, is a blocking collective schedule the loop
	// advances stacklessly instead of resuming the coroutine; schedErr
	// carries its outcome back to the blocked driveSched call. driving
	// marks a rank whose coroutine is not suspended at a yield but buried
	// in a driveUntil frame (see below): its schedule still advances
	// through the loop, but its coroutine must not be resumed — the buried
	// frame notices completion when control unwinds back into it.
	sched    *collSched
	schedErr error
	driving  bool
	// foldDone is set by the fold resolver before waking a gathered rank:
	// true means its collective was simulated symbolically and is already
	// finished; false means the gather fell back and the rank must drive
	// its schedule normally (fold.go).
	foldDone bool
	// err is the body's result (or a recovered panic).
	err error
	set bool
}

// park suspends the rank until the loop wakes it. It must run on the
// rank's own coroutine; the loop's stackless schedule replay never parks.
// Callers that know their wake condition set the wait filter first; park
// leaves a filter set by the caller in place and resets it on resume.
func (p *Proc) park() {
	er := p.ev
	er.state = rankBlocked
	if !er.yield(struct{}{}) {
		panic(eventStop{})
	}
	er.wait = waitAny
}

// parkFor is park with a (ctx, src, tag) wake filter: only a matching
// delivery (or a rendezvous completion report) wakes the rank.
func (p *Proc) parkFor(ctx, src, tag int) {
	er := p.ev
	er.wait, er.waitCtx, er.waitSrc, er.waitTag = waitMsg, ctx, src, tag
	p.park()
}

// wants reports whether a delivery of (ctx, src, tag) can unblock the rank.
func (er *eventRank) wants(ctx, src, tag int) bool {
	switch er.wait {
	case waitMsg:
		return er.waitCtx == ctx &&
			(er.waitSrc == AnySource || er.waitSrc == src) &&
			tagMatches(er.waitTag, tag)
	case waitRdv, waitFold:
		return false
	default:
		return true
	}
}

// blockOnStep records why a handed-off schedule cannot advance and marks
// the rank blocked with the matching wake filter.
func (er *eventRank) blockOnStep(s *collSched) {
	st := &s.steps[s.pc]
	if st.op == opRecv || (st.op == opExchange && s.phase == 1) {
		er.wait, er.waitCtx, er.waitSrc, er.waitTag = waitMsg, s.c.ctx, st.peer, s.tag
	} else {
		// opWaitSend, opSend, or a draining opExchange: only the
		// handshake report helps.
		er.wait = waitRdv
	}
	er.state = rankBlocked
}

// eventLoop is the per-Run discrete-event scheduler state.
type eventLoop struct {
	w     *World
	ranks []*eventRank
	// heap is the run queue: a binary min-heap of runnable ranks keyed by
	// (virtual time, rank). A queued rank's clock cannot advance, so the
	// key is snapshotted at push time. The "step" coordinate of each event
	// lives on the rank itself: its schedule cursor (sched.pc) when a
	// collective is being replayed, its coroutine otherwise.
	heap []*eventRank
	// slots is the direct-handoff fast path: the last few woken ranks, run
	// LIFO without touching the heap. Wake bursts (an exchange completing
	// both a receive and a handshake) stay out of the heap entirely; run
	// order cannot change any virtual time.
	slots  [8]*eventRank
	nslots int
	done   int
	// ticks counts dequeue iterations; an armed world re-checks the cancel
	// flag every cancelPollMask+1 of them (cancel.go).
	ticks uint
	// fold is the in-progress symmetry-fold gather: ranks that entered an
	// eligible collective park here until every live rank has joined, then
	// one resolve simulates the whole collective per equivalence class
	// (fold.go). foldWake is the resolver's batch wake list, drained FIFO by
	// take() after the handoff slots.
	fold         foldGather
	foldWake     []*eventRank
	foldWakeHead int
	// polls queues ranks whose nonblocking poll (Test, Testany, Testall,
	// Progress) came back incomplete (yieldPoll), FIFO. Only the outermost
	// driveUntil frame serves it, and only once nothing else is runnable and
	// no partial fold gather is left to release.
	polls     []*eventRank
	pollsHead int
}

// evBefore orders run-queue entries by (key, rank).
func evBefore(a, b *eventRank) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.proc.rank < b.proc.rank
}

// push queues a runnable rank on the heap.
func (l *eventLoop) push(er *eventRank) {
	if DebugCounters != nil {
		DebugCounters[3]++
	}
	er.key = er.proc.clock.Now()
	l.heap = append(l.heap, er)
	i := len(l.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evBefore(l.heap[i], l.heap[parent]) {
			break
		}
		l.heap[i], l.heap[parent] = l.heap[parent], l.heap[i]
		i = parent
	}
}

// pop removes the earliest runnable rank from the heap.
func (l *eventLoop) pop() *eventRank {
	h := l.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	l.heap = h[:last]
	i, n := 0, last
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && evBefore(h[right], h[left]) {
			least = right
		}
		if !evBefore(h[least], h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}

// wake marks a blocked rank runnable: into the handoff slot when it is
// free, onto the heap otherwise. Waking a rank that is running, already
// queued or done is a no-op.
func (l *eventLoop) wake(p *Proc) {
	er := p.ev
	if er.state != rankBlocked || er.wait == waitFold {
		return
	}
	er.state = rankRunnable
	er.wait = waitAny
	if l.nslots < len(l.slots) {
		l.slots[l.nslots] = er
		l.nslots++
		return
	}
	l.push(er)
}

// wakeFor is wake for a delivery of (ctx, src, tag): blocked ranks whose
// wait filter rejects the message stay parked.
func (l *eventLoop) wakeFor(p *Proc, ctx, src, tag int) {
	if er := p.ev; er.state == rankBlocked && er.wants(ctx, src, tag) {
		er.state = rankRunnable
		er.wait = waitAny
		if l.nslots < len(l.slots) {
			l.slots[l.nslots] = er
			l.nslots++
			return
		}
		l.push(er)
	}
}

// Run executes body once per rank and waits for all ranks. The whole
// world runs as a discrete-event simulation on the calling goroutine. The
// first error (by rank order) is returned; a panicking rank is converted
// into an error carrying its stack.
func (w *World) Run(body func(p *Proc) error) error {
	growEventCaches(w.size)
	if w.faults != nil {
		w.resetFaultRun()
	}
	l := &eventLoop{w: w, ranks: make([]*eventRank, w.size)}
	l.heap = make([]*eventRank, 0, w.size)
	// Procs and rank states come as two recycled slabs (slabpool.go): at
	// tens of thousands of ranks, re-clearing the previous Run's slabs is
	// far cheaper than faulting in ~200MB of fresh pages per iteration and
	// garbage-collecting them afterwards.
	procs, ers := takeRankSlabs(w.size)
	workers := takeCoroWorkers(w.size)
	for r := 0; r < w.size; r++ {
		p := &procs[r]
		p.world, p.rank = w, r
		er := &ers[r]
		er.loop, er.proc, er.state = l, p, rankRunnable
		p.ev = er
		l.ranks[r] = er
		w.mailboxes[r].owner = p
		// Seed the Proc-side pending mirror: a prior errored Run of this
		// world may have left undelivered envelopes behind.
		p.mbPend = int32(w.mailboxes[r].npend)
		workers[r].bind(er, body)
		l.push(er)
	}
	defer func() {
		for _, er := range l.ranks {
			if er.state != rankDone {
				er.stop()
			}
			er.proc.ev = nil
			er.proc.harvestScheds()
		}
		releaseCoroWorkers(l.ranks)
		for _, mb := range w.mailboxes {
			mb.owner = nil
		}
		// Shape verdicts are keyed by invocation value (shapeKey), not by
		// schedule pointers, so foldShapes/foldNo survive the teardown:
		// harvested schedules returning to the pool cannot alias them.
		// Every pointer into the rank slabs is now severed (mailbox owners
		// above, schedule comms via harvest, per-Proc freelists die with
		// their Proc), so the slabs can serve the next Run of this size.
		putRankSlabs(procs, ers)
	}()

	// Drive until done. A drained run queue with ranks still parked is a
	// stall: a latched cancel fails every parked rank (failCanceled), a
	// fault plan with killed ranks errors-out the survivors (failStalled) —
	// both re-queue the woken ranks, which may park again in cleanup code,
	// so the resolution loops; otherwise the stall is a genuine deadlock
	// reported below.
	for {
		l.driveUntil(nil)
		if l.done >= w.size {
			break
		}
		if w.cancelRequested() && l.failCanceled() {
			continue
		}
		if !l.failStalled() {
			break
		}
	}

	for r, er := range l.ranks {
		if er.set && er.err != nil {
			return &RankError{Rank: r, Err: er.err}
		}
	}
	if l.done < w.size {
		return l.deadlockErr()
	}
	return nil
}

// take removes the next runnable rank: the handoff slots first, then the
// fold wake list and the heap; nil when nothing is runnable. Yielded
// pollers are not runnable here: takePoll serves them.
func (l *eventLoop) take() *eventRank {
	if l.nslots > 0 {
		l.nslots--
		er := l.slots[l.nslots]
		l.slots[l.nslots] = nil
		if DebugCounters != nil {
			DebugCounters[4]++
		}
		return er
	}
	if l.foldWakeHead < len(l.foldWake) {
		er := l.foldWake[l.foldWakeHead]
		l.foldWake[l.foldWakeHead] = nil
		l.foldWakeHead++
		if l.foldWakeHead == len(l.foldWake) {
			l.foldWake = l.foldWake[:0]
			l.foldWakeHead = 0
		}
		return er
	}
	if len(l.heap) != 0 {
		if DebugCounters != nil {
			DebugCounters[5]++
		}
		return l.pop()
	}
	return nil
}

// takePoll removes the longest-waiting yielded poller; nil when none.
func (l *eventLoop) takePoll() *eventRank {
	if l.pollsHead == len(l.polls) {
		return nil
	}
	er := l.polls[l.pollsHead]
	l.polls[l.pollsHead] = nil
	l.pollsHead++
	if l.pollsHead == len(l.polls) {
		l.polls = l.polls[:0]
		l.pollsHead = 0
	}
	return er
}

// yieldPoll requeues the running rank after a nonblocking poll came back
// incomplete and switches to the loop. The rank waits on the poll queue,
// not in the heap at its clock: a failed poll does not advance the clock,
// so the heap would hand the CPU straight back to it ahead of the ranks it
// is waiting on, and the poll loop would never end. driveUntil resumes it
// only when nothing else can run (see there).
func (p *Proc) yieldPoll() {
	er := p.ev
	er.state = rankRunnable
	er.loop.polls = append(er.loop.polls, er)
	if !er.yield(struct{}{}) {
		panic(eventStop{})
	}
}

// driveUntil is the event loop itself, runnable on any stack: it pops
// runnable ranks, replays their compiled schedules in place, and resumes
// coroutines that are suspended at a yield. With a target it returns as
// soon as the target's schedule has completed (or failed, or deadlocked);
// with target nil it runs until nothing is runnable (the top level).
//
// Re-entrancy is the point: a rank whose blocking collective cannot finish
// yet calls driveUntil on its own coroutine stack instead of yielding, so
// steady-state collective traffic costs no coroutine switches at all. The
// chain of such frames unwinds in call order; a buried rank whose schedule
// completed (driving, sched nil) is never resumed from here — control
// reaches its frame when its caller's next() returns.
func (l *eventLoop) driveUntil(target *eventRank) {
	for target == nil || target.sched != nil {
		if l.w.cancelOn {
			// Cancellation poll: one counter bump per dequeue, one atomic
			// load every cancelPollMask+1 events. failCanceled unwinds the
			// parked ranks through the normal error path (cancel.go).
			if l.ticks++; l.ticks&cancelPollMask == 0 && l.w.cancelRequested() {
				l.failCanceled()
			}
		}
		er := l.take()
		if er == nil {
			// Before declaring nothing runnable, release a stalled partial
			// fold gather: its parked joiners fall back to normal execution,
			// so folding can never introduce a deadlock that the unfolded
			// engine would not have. A poller waiting on a gathered rank is
			// such a case, so the release comes before any poller runs.
			if l.releaseFoldStalled() {
				continue
			}
			if target == nil {
				// Only yielded pollers are left. They run here, in the
				// outermost frame, where no rank is buried below: whatever a
				// poller waits on is parked or runnable, never stuck under a
				// frame that keeps resuming the poller instead of unwinding.
				if er = l.takePoll(); er == nil {
					return
				}
			} else {
				// Nothing is runnable but our collective is incomplete (a
				// yielded poller does not count). Either a frame buried below
				// us holds the rank whose body must run next, or the next
				// message for us arrives only after an outer caller or a
				// poller makes progress — all need control to unwind, so
				// yield. While suspended here the rank behaves like any
				// parked rank: its schedule advances stacklessly in
				// whichever frame pops it, and the frame that completes it
				// resumes us. A true deadlock unwinds every frame the same
				// way until the top-level loop reports it.
				target.blockOnStep(target.sched)
				target.driving = false
				if !target.yield(struct{}{}) {
					panic(eventStop{})
				}
				target.driving = true
				target.wait = waitAny
				continue
			}
		}
		er.state = rankRunning
		if s := er.sched; s != nil {
			// Replay the rank's compiled schedule in place: no coroutine
			// switch until it completes or fails.
			if DebugCounters != nil {
				DebugCounters[7]++
			}
			done, err := s.tryDrive()
			if !done && err == nil {
				er.blockOnStep(s)
				continue
			}
			er.schedErr = err
			er.sched = nil
			if er == target {
				return
			}
		}
		if er.driving {
			// Its coroutine is not suspended at a yield but buried in a
			// driveUntil frame below us (its schedule completed just now,
			// or earlier via a pull-forward or cut-through): the buried
			// frame notices when control unwinds back into it.
			continue
		}
		if DebugCounters != nil {
			DebugCounters[6]++
		}
		if _, alive := er.next(); !alive || er.finished {
			er.state = rankDone
			l.done++
		}
		// alive and not finished means the rank parked again; park already
		// marked it blocked. (A finished rank's worker idles at a yield for
		// the pool, so next reports alive even though the body is over.)
	}
}

// driveSteps runs a compiled schedule to completion and releases it: try
// to run it on the rank's own stack, and if it blocks, hand it to the loop
// and drive the loop from here — the loop replays the remaining steps as
// messages arrive and this frame returns when the collective is over.
func (c *Comm) driveSteps(s *collSched) error {
	done, err := s.tryDrive()
	if !done && err == nil {
		er := c.proc.ev
		er.sched = s
		er.blockOnStep(s)
		wasDriving := er.driving
		er.driving = true
		er.loop.driveUntil(er)
		er.driving = wasDriving
		err = er.schedErr
		er.schedErr = nil
	}
	if err != nil {
		s.drainPending()
		s.finish()
		return err
	}
	s.finish()
	return nil
}

// drainDirect is cut-through completion of a rendezvous report: when the
// sender's schedule sits exactly at the drain point of the handshake being
// reported, the receiver completes that drain in place (the same clock
// advance and recycling drainStep would perform) and the sender skips a
// whole wake/replay round trip. Reports that do not line up fall back to
// the (val, ready) flags.
func (l *eventLoop) drainDirect(p *Proc, rdv *rendezvous, done vtime.Micros) bool {
	er := p.ev
	s := er.sched
	if s == nil || (er.state != rankBlocked && er.state != rankRunnable) ||
		s.pc >= len(s.steps) || s.pending != rdv {
		return false
	}
	st := &s.steps[s.pc]
	switch {
	case st.op == opWaitSend:
	case st.op == opSend && s.phase == 1:
	case st.op == opExchange && s.phase == 2:
	default:
		return false
	}
	p.clock.AdvanceTo(done)
	p.putRendezvous(rdv)
	s.pending, s.pendingSet = nil, false
	s.phase = 0
	s.pc++
	if er.state == rankBlocked {
		er.state = rankRunnable
		er.wait = waitAny
		if l.nslots < len(l.slots) {
			l.slots[l.nslots] = er
			l.nslots++
		} else {
			l.push(er)
		}
	}
	return true
}

// pullForward advances a runnable rank's handed-off schedule to its next
// blocking point, right now, on the caller's stack. A sender about to fall
// back to the mailbox calls it so that a receiver which merely has not
// been dispatched yet gets to its matching recv first — then cut-through
// applies after all. The rank stays queued (rankRunnable ⇔ queued is the
// loop invariant): its eventual pop re-runs tryDrive, which is a no-op
// retry if nothing changed, or resumes the coroutine if the schedule
// completed here. Reports whether the schedule is still active (so a
// second cut-through attempt is worthwhile).
func (l *eventLoop) pullForward(gdst int) bool {
	er := l.ranks[gdst]
	if er.state != rankRunnable || er.sched == nil {
		return false
	}
	er.state = rankRunning
	done, err := er.sched.tryDrive()
	if done || err != nil {
		er.schedErr = err
		er.sched = nil // its pop will resume the coroutine
	}
	er.state = rankRunnable
	return er.sched != nil
}

// wakeRdv wakes a rank for a rendezvous completion report. A rank whose
// wait filter says it needs a message first stays parked: the report is
// already latched in (val, ready) and will be consumed when its own
// progress reaches the drain.
func (l *eventLoop) wakeRdv(p *Proc) {
	if er := p.ev; er.state == rankBlocked && er.wait != waitMsg && er.wait != waitFold {
		er.state = rankRunnable
		er.wait = waitAny
		if l.nslots < len(l.slots) {
			l.slots[l.nslots] = er
			l.nslots++
			return
		}
		l.push(er)
	}
}

// deliverDirect is cut-through delivery: when the destination rank is
// blocked at exactly the matching recv step of a loop-driven schedule, the
// sender completes that receive in place — same clock arithmetic, same
// trace record, same order as the mailbox path would produce — and skips
// the envelope/ring round trip entirely. This is the event engine's
// per-message fast path; anything that does not match falls back to the
// mailbox. src and gsrc are the sender's communicator and world ranks.
func (l *eventLoop) deliverDirect(gdst, src, gsrc, tag, ctx, size int, data []byte,
	arrival, wire, recvOver vtime.Micros, rdv *rendezvous) bool {
	er := l.ranks[gdst]
	s := er.sched
	if s == nil || (er.state != rankBlocked && er.state != rankRunnable) || s.pc >= len(s.steps) {
		return false
	}
	if er.state == rankRunnable && !l.srcBucketEmpty(gdst, ctx, src) {
		// A runnable rank has not polled its mailbox for this step yet: if
		// anything from this source is queued there, an earlier message
		// with the same (source, tag) could be ahead, and cutting through
		// would overtake it. (A parked rank polled and missed immediately
		// before blocking, so nothing can be ahead of this message.)
		return false
	}
	// The schedule's current step must be exactly this message's receive.
	st := &s.steps[s.pc]
	if !(st.op == opRecv || (st.op == opExchange && s.phase == 1)) ||
		s.c.ctx != ctx || st.peer != src || s.tag != tag {
		return false
	}
	if size > st.n {
		return false // would truncate: the mailbox path raises the error
	}
	if DebugCounters != nil {
		DebugCounters[0]++
	}
	// The receiver is parked at this recv: run finishRecv's arithmetic on
	// its clock, here and now.
	rp := er.proc
	if rdv == nil {
		rp.clock.AdvanceTo(arrival)
	} else {
		done := vtime.Max(rdv.senderReady, rp.clock.Now()) + wire
		rp.clock.AdvanceTo(done)
		// The sender is the current runner: hand it the completion report
		// directly, no wake needed.
		rdv.val, rdv.ready = done, true
	}
	rp.clock.Advance(recvOver)
	if data != nil && st.dst != nil {
		copy(st.dst[:size], data[:size])
	}
	if t := l.w.cfg.Trace; t != nil {
		t.record(Event{
			Kind: EventRecv, Rank: rp.rank, Peer: gsrc, Tag: tag, Bytes: size,
			Link: l.w.link(rp.rank, gsrc), Time: rp.clock.Now(), Eager: rdv == nil,
		})
	}
	if st.op == opExchange {
		s.phase = 2 // received; the drain half still runs on the rank
	} else {
		s.pc++
	}
	if er.state == rankBlocked {
		er.state = rankRunnable
		er.wait = waitAny
		if l.nslots < len(l.slots) {
			l.slots[l.nslots] = er
			l.nslots++
		} else {
			l.push(er)
		}
	}
	// A rank that was already queued runnable stays queued; its next
	// replay continues past the completed step.
	return true
}
