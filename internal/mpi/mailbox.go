package mpi

import "repro/internal/vtime"

// This file implements the indexed, allocation-free mailbox at the heart of
// the message engine. Senders are identified at post time, so pending
// messages are bucketed by (context, source): the common exact-match receive
// scans only the messages pending from that one source, while wildcard
// receives (AnySource) pick the earliest-delivered match across buckets by
// delivery sequence number — reproducing the old single-queue FIFO scan
// exactly, envelope for envelope. Buckets are growable ring buffers (O(1)
// head removal, shorter-side shift on mid-queue extraction), and envelopes
// and payload staging buffers are recycled through per-mailbox freelists, so
// steady-state traffic allocates nothing. A world's mailboxes are touched
// only by the goroutine running its event loop, so nothing here locks.

// envelope is a message in flight. Eager messages carry their payload copy
// and arrival timestamp; rendezvous messages carry a handshake, which
// borrows the sender's buffer instead of a copy. Envelopes are owned by the
// receiving mailbox's freelist: deliver draws one and the receiver hands it
// back (with its eager payload) on its next mailbox operation.
type envelope struct {
	src, tag, ctx int
	size          int
	seq           uint64       // mailbox-local delivery order
	data          []byte       // pooled payload copy (eager messages only)
	arrival       vtime.Micros // eager arrival instant
	rdv           *rendezvous  // non-nil for rendezvous messages
	// wire and recvOver are the receive-side costs, priced once by the
	// sender (the cost model is symmetric in the endpoints) so the receiver
	// does not re-run link classification and pricing per message.
	wire, recvOver vtime.Micros
}

// envRing is a FIFO of envelopes on a growable circular buffer whose
// capacity is always a power of two (indexing masks instead of dividing).
// Removal keeps delivery order; extracting from the middle (tag mismatch
// ahead of the match) shifts whichever side is shorter.
type envRing struct {
	buf        []*envelope
	head, size int
}

func (r *envRing) at(i int) *envelope { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *envRing) push(e *envelope) {
	if r.size == len(r.buf) {
		grown := make([]*envelope, max(8, 2*len(r.buf)))
		for i := 0; i < r.size; i++ {
			grown[i] = r.at(i)
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = e
	r.size++
}

// removeAt extracts the i-th queued envelope.
func (r *envRing) removeAt(i int) {
	mask := len(r.buf) - 1
	if i < r.size-1-i {
		for k := i; k > 0; k-- {
			r.buf[(r.head+k)&mask] = r.buf[(r.head+k-1)&mask]
		}
		r.buf[r.head] = nil
		r.head = (r.head + 1) & mask
	} else {
		for k := i; k < r.size-1; k++ {
			r.buf[(r.head+k)&mask] = r.buf[(r.head+k+1)&mask]
		}
		r.buf[(r.head+r.size-1)&mask] = nil
	}
	r.size--
}

// srcQueues holds one context's pending messages indexed by sender rank.
// Small worlds use a dense per-source array (one load per lookup); huge
// worlds index through a tiny inline store backed by a map, because a dense
// array per mailbox costs O(size^2) aggregate memory while a rank's working
// set of senders is only O(log size) for collective traffic — and the first
// few inline slots cover nearly all of it without a map allocation. A
// source lives in the inline store or the map, never both: inserts go
// inline until it fills, then overflow to the map.
type srcQueues struct {
	bySrc    []envRing
	nsmall   int8
	smallSrc [srcSmallMax]int32
	small    [srcSmallMax]envRing
	byMap    map[int32]*envRing
}

// srcSmallMax covers a binomial-tree rank's full sender set (its parent
// plus the children that beat cut-through delivery) in the inline store.
const srcSmallMax = 4

// denseSrcMax bounds the worlds whose mailboxes use the dense per-source
// index.
const denseSrcMax = 2048

// mailbox is the per-rank message store with tag matching. Mailboxes are
// laid out as one slab per world (NewWorld), so a huge world costs one
// allocation, not one per rank.
type mailbox struct {
	seq uint64
	// owner is the receiving rank's Proc, bound for the duration of a run
	// (nil otherwise). deliver wakes it through the event loop.
	owner *Proc
	// npend counts queued envelopes across every bucket. The symmetry
	// folding needs "is this mailbox completely empty" in O(1) at
	// gather time (fold.go); it is maintained at deliver and at every
	// removal point in take.
	npend int
	// size is the world size: every bucket index allocates its by-source
	// queues at full size immediately, so the hot ring() path never grows.
	size int
	// ctxs indexes pending messages by communicator context id. It grows
	// with the highest context ever used and is not reclaimed: contexts in
	// this runtime are few and long-lived (CommWorld plus the occasional
	// Dup/Split), and an empty srcQueues is just the index itself. Context
	// 0 (CommWorld, effectively all benchmark traffic) lives inline, with
	// an init flag standing in for the index's nil check.
	ctxs     []*srcQueues
	ctx0     srcQueues
	ctx0init bool

	// freelists: consumed envelopes and the eager payload
	// staging buffers they carried (the byte half of a scratchArena,
	// sharing its power-of-two capacity classes). The first few envelopes
	// come from inline seed storage and recycle through inline slots —
	// mailboxes are slab-allocated per world, and steady-state collective
	// traffic rarely has more than a couple of envelopes in flight per
	// mailbox, so the heap freelist is overflow only.
	envSeedN int8
	envFreeN int8
	envSeed  [2]envelope
	envFreeA [4]*envelope
	envFree  []*envelope
	pay      scratchArena
}

// queues returns the context's queue index, creating it on first use; the
// world-communicator context lives inline in the mailbox.
func (mb *mailbox) queues(ctx int) *srcQueues {
	if ctx == 0 {
		q := &mb.ctx0
		if !mb.ctx0init {
			if mb.size <= denseSrcMax {
				q.bySrc = make([]envRing, mb.size)
			}
			mb.ctx0init = true
		}
		return q
	}
	for len(mb.ctxs) <= ctx {
		mb.ctxs = append(mb.ctxs, nil)
	}
	q := mb.ctxs[ctx]
	if q == nil {
		q = &srcQueues{}
		if mb.size <= denseSrcMax {
			q.bySrc = make([]envRing, mb.size)
		}
		mb.ctxs[ctx] = q
	}
	return q
}

// lookup returns the context's queue index, nil when the context has never
// queued a message.
func (mb *mailbox) lookup(ctx int) *srcQueues {
	if ctx == 0 {
		if !mb.ctx0init {
			return nil
		}
		return &mb.ctx0
	}
	if ctx >= len(mb.ctxs) {
		return nil
	}
	return mb.ctxs[ctx]
}

// ring returns the (ctx, src) bucket, growing the indexes as needed.
func (mb *mailbox) ring(ctx, src int) *envRing {
	q := mb.queues(ctx)
	if q.bySrc != nil {
		return &q.bySrc[src]
	}
	for i := 0; i < int(q.nsmall); i++ {
		if q.smallSrc[i] == int32(src) {
			return &q.small[i]
		}
	}
	if int(q.nsmall) < srcSmallMax {
		i := q.nsmall
		q.smallSrc[i] = int32(src)
		q.nsmall++
		return &q.small[i]
	}
	if q.byMap == nil {
		q.byMap = make(map[int32]*envRing, 16)
	}
	r := q.byMap[int32(src)]
	if r == nil {
		r = &envRing{}
		q.byMap[int32(src)] = r
	}
	return r
}

// srcBucketEmpty reports whether nothing from src is pending in gdst's
// mailbox for ctx — the FIFO-safety condition of cut-through delivery to a
// runnable rank.
func (l *eventLoop) srcBucketEmpty(gdst, ctx, src int) bool {
	mb := l.w.mailboxes[gdst]
	q := mb.lookup(ctx)
	if q == nil {
		return true
	}
	if q.bySrc != nil {
		return q.bySrc[src].size == 0
	}
	for i := 0; i < int(q.nsmall); i++ {
		if q.smallSrc[i] == int32(src) {
			return q.small[i].size == 0
		}
	}
	r := q.byMap[int32(src)]
	return r == nil || r.size == 0
}

// deliver queues a message and wakes the owner rank when the message can
// unblock it. An eager message's payload (data, when non-nil) is staged
// into a pooled buffer: an eager send completes at post time, so the copy
// is the receive side's only view of the bytes and the sender may reuse
// data immediately. A rendezvous message stages nothing (data is nil): its
// handshake borrows the sender's buffer, which stays untouched until the
// receiver has copied out of it and reported completion. wire and recvOver
// are the receive-side costs priced by the sender.
func (mb *mailbox) deliver(src, tag, ctx, size int, data []byte, arrival, wire, recvOver vtime.Micros, rdv *rendezvous) {
	var payload []byte
	if data != nil {
		payload = mb.pay.getRaw(size) // fully overwritten by the copy below
		copy(payload, data[:size])
	}
	e := mb.getEnvelope()
	e.src, e.tag, e.ctx, e.size = src, tag, ctx, size
	e.seq = mb.seq
	e.arrival, e.wire, e.recvOver = arrival, wire, recvOver
	e.rdv = rdv
	e.data = payload
	mb.seq++
	mb.ring(ctx, src).push(e)
	mb.npend++
	o := mb.owner
	o.mbPend = int32(mb.npend)
	// A delivery is the wake event for a rank blocked on this mailbox
	// (receive, probe, or a replayed schedule's recv step) — unless its wait
	// filter says the message cannot unblock it.
	o.ev.loop.wakeFor(o, ctx, src, tag)
}

// recycle returns a consumed envelope, with its eager payload, to the
// freelists.
func (mb *mailbox) recycle(e *envelope) {
	mb.pay.put(e.data)
	e.data = nil
	mb.putEnvelope(e)
}

// tryMatch removes and returns a queued message matching (src, tag, ctx),
// or nil when none is pending — the non-blocking probe the incremental
// collective engine and Request.Test poll with. A previously consumed
// envelope is recycled first, even when nothing matches.
func (mb *mailbox) tryMatch(src, tag, ctx int, recycle *envelope) *envelope {
	if recycle != nil {
		mb.recycle(recycle)
	}
	return mb.take(src, tag, ctx)
}

// match parks rank p until a message matching (src, tag, ctx) is queued in
// its mailbox and removes it. Matching is FIFO per (source, tag) pair,
// which together with single-threaded ranks gives MPI's non-overtaking
// guarantee. A previously consumed envelope may be passed in for
// recycling. match returns nil when the rank fails while parked — a fault
// plan killed the rank this receive depends on, or the run was canceled
// (queued messages are always consumed before the failure check, so a
// satisfiable match never reports failure).
func (mb *mailbox) match(p *Proc, src, tag, ctx int, recycle *envelope) *envelope {
	if recycle != nil {
		mb.recycle(recycle)
	}
	for {
		if e := mb.take(src, tag, ctx); e != nil {
			return e
		}
		if p.failure != nil {
			return nil
		}
		p.parkFor(ctx, src, tag)
	}
}

// peek parks rank p until a message matching (src, tag, ctx) is queued and
// returns it without removing it. Like match, peek returns nil when the
// rank fails while parked.
func (mb *mailbox) peek(p *Proc, src, tag, ctx int) *envelope {
	for {
		if _, ring, i := mb.find(src, tag, ctx); ring != nil {
			return ring.at(i)
		}
		if p.failure != nil {
			return nil
		}
		p.parkFor(ctx, src, tag)
	}
}

// take removes and returns the earliest-delivered match, or nil.
func (mb *mailbox) take(src, tag, ctx int) *envelope {
	// Fast path: an exact-source receive whose bucket head matches, the
	// shape of essentially all collective traffic (per-(source, tag) FIFO
	// means the expected message is at the head once it has arrived).
	if src != AnySource {
		if q := mb.lookup(ctx); q != nil && q.bySrc != nil && src < len(q.bySrc) {
			ring := &q.bySrc[src]
			if ring.size > 0 {
				if e := ring.buf[ring.head]; tagMatches(tag, e.tag) {
					ring.buf[ring.head] = nil
					ring.head = (ring.head + 1) & (len(ring.buf) - 1)
					ring.size--
					mb.dropPend()
					return e
				}
			}
			// Head mismatch: scan this bucket the slow way.
			for i := 0; i < ring.size; i++ {
				if e := ring.at(i); tagMatches(tag, e.tag) {
					ring.removeAt(i)
					mb.dropPend()
					return e
				}
			}
			return nil
		}
	}
	e, ring, i := mb.find(src, tag, ctx)
	if ring != nil {
		ring.removeAt(i)
		mb.dropPend()
	}
	return e
}

// dropPend decrements the pending count, keeping the owning rank's Proc
// mirror (Proc.mbPend, read by the fold eligibility checks) in sync.
func (mb *mailbox) dropPend() {
	mb.npend--
	mb.owner.mbPend = int32(mb.npend)
}

// tagMatches reports whether a posted receive tag accepts an envelope tag.
// AnyTag is a user-level wildcard: it never matches collective-internal
// traffic (tags above MaxUserTag), so wildcard receives cannot steal a
// concurrent collective's messages.
func tagMatches(want, have int) bool {
	if want == AnyTag {
		return have <= MaxUserTag
	}
	return want == have
}

// find locates the earliest-delivered matching envelope. For an exact
// source that is the first tag match in one bucket; for AnySource it is the
// lowest delivery seq among every bucket's first tag match, which is
// exactly the envelope the old single-queue scan would have returned.
func (mb *mailbox) find(src, tag, ctx int) (*envelope, *envRing, int) {
	q := mb.lookup(ctx)
	if q == nil {
		return nil, nil, 0
	}
	if src != AnySource {
		var ring *envRing
		if q.bySrc != nil {
			if src >= len(q.bySrc) {
				return nil, nil, 0
			}
			ring = &q.bySrc[src]
		} else {
			for i := 0; i < int(q.nsmall); i++ {
				if q.smallSrc[i] == int32(src) {
					ring = &q.small[i]
					break
				}
			}
			if ring == nil {
				if ring = q.byMap[int32(src)]; ring == nil {
					return nil, nil, 0
				}
			}
		}
		for i := 0; i < ring.size; i++ {
			if e := ring.at(i); tagMatches(tag, e.tag) {
				return e, ring, i
			}
		}
		return nil, nil, 0
	}
	var (
		best     *envelope
		bestRing *envRing
		bestIdx  int
	)
	// The earliest-delivered match has the lowest seq regardless of the
	// order buckets are visited in, so map iteration order is harmless.
	scan := func(ring *envRing) {
		for i := 0; i < ring.size; i++ {
			e := ring.at(i)
			if !tagMatches(tag, e.tag) {
				continue
			}
			if best == nil || e.seq < best.seq {
				best, bestRing, bestIdx = e, ring, i
			}
			break // a bucket's first match is its earliest
		}
	}
	if q.bySrc != nil {
		for s := range q.bySrc {
			scan(&q.bySrc[s])
		}
	} else {
		for i := 0; i < int(q.nsmall); i++ {
			scan(&q.small[i])
		}
		for _, ring := range q.byMap {
			scan(ring)
		}
	}
	return best, bestRing, bestIdx
}

func (mb *mailbox) getEnvelope() *envelope {
	if n := mb.envFreeN; n > 0 {
		mb.envFreeN--
		e := mb.envFreeA[n-1]
		mb.envFreeA[n-1] = nil
		return e
	}
	if n := len(mb.envFree); n > 0 {
		e := mb.envFree[n-1]
		mb.envFree = mb.envFree[:n-1]
		return e
	}
	if mb.envSeedN < int8(len(mb.envSeed)) {
		e := &mb.envSeed[mb.envSeedN]
		mb.envSeedN++
		return e
	}
	return &envelope{}
}

// putEnvelope recycles a consumed envelope, preferring the inline slots.
func (mb *mailbox) putEnvelope(e *envelope) {
	if n := mb.envFreeN; n < int8(len(mb.envFreeA)) {
		mb.envFreeA[n] = e
		mb.envFreeN++
		return
	}
	mb.envFree = append(mb.envFree, e)
}
