package mpi

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/netmodel"
	"repro/internal/topology"
	"repro/internal/vtime"
)

// ErrTruncate is returned when a received message is larger than the posted
// receive buffer, mirroring MPI_ERR_TRUNCATE.
type ErrTruncate struct {
	Posted, Actual int
	Source, Tag    int
}

// Error implements the error interface.
func (e *ErrTruncate) Error() string {
	return fmt.Sprintf("mpi: message truncated: posted %d bytes, received %d (source %d, tag %d)",
		e.Posted, e.Actual, e.Source, e.Tag)
}

// ctlCarryMax is the largest payload still carried in timing-only worlds.
const ctlCarryMax = 64 * 1024

// Status describes a completed receive, like MPI_Status.
type Status struct {
	Source int
	Tag    int
	Count  int // bytes received
}

// rendezvous carries the RTS state of a large message. The payload is not
// staged: the handshake borrows the sender's buffer (one copy per message,
// like a single-copy large-message path such as MVAPICH2's LiMIC), and the
// receiver copies out of it before reporting completion. It computes the
// transfer completion instant (it knows both ready times and the wire cost)
// and reports it back in (val, ready), waking the sender through the event
// loop, so neither side ever waits on the other's *next* operation -- which
// is what keeps symmetric exchanges (Sendrecv, recursive doubling) live.
// The report is what frees the sender to reuse its buffer; until then the
// buffer must stay unmodified, as MPI requires of a send buffer until its
// send completes. A handshake abandoned by a fault or cancel may still be
// consumed by a receiver, which then reads a buffer its failed sender no
// longer writes.
// Handshakes are recycled through the sending rank's freelist; a nil
// *rendezvous is the completed-at-post eager send handle.
type rendezvous struct {
	senderReady vtime.Micros // sender clock when the RTS was posted
	payload     []byte       // the sender's buffer, borrowed (nil when not carried)
	owner       *Proc        // the sending rank
	val         vtime.Micros // transfer completion instant
	ready       bool         // val is set
}

// tryDone non-blockingly polls the transfer's completion report.
func (r *rendezvous) tryDone() (vtime.Micros, bool) {
	if !r.ready {
		return 0, false
	}
	r.ready = false
	return r.val, true
}

// postSend injects a message toward communicator rank dst and returns a
// handle that must be passed to completeSend (nil for eager sends, which
// complete at post time). An eager payload is staged into the destination
// mailbox's buffer pool at post time (or only sized, in timing-only
// worlds), so after an eager post the caller may reuse data immediately. A
// rendezvous payload is read straight from data by the receiver: the
// caller must leave data unmodified until completeSend returns.
func (c *Comm) postSend(dst, tag int, data []byte, size int) *rendezvous {
	gdst := c.group[dst]
	link, cost := c.proc.priceTo(gdst, size)
	return c.postSendPriced(gdst, tag, data, size, link, cost)
}

// postSendPriced is postSend with the destination already resolved to a
// world rank and the message already priced — the replayed-schedule fast
// path, whose steps cache both (the price of a fixed (link, size) pair is
// a constant of the world).
func (c *Comm) postSendPriced(gdst, tag int, data []byte, size int, link topology.LinkClass, cost *netmodel.PtPtCost) *rendezvous {
	p := c.proc
	w := p.world
	if p.pyMode() {
		internal := tag > MaxUserTag
		p.clock.Advance(w.cfg.Model.PyOpLock(link, size, internal, p.fullSub()))
	}
	p.clock.Advance(cost.SendOverhead)

	// Link jitter stretches this message's wire time by a seeded factor on
	// [1, 1+Jitter). The draw is keyed on the rank's message counter, which
	// advances in program order, and the cached cost struct is never
	// mutated (it is shared across invocations).
	wire := cost.Wire
	if f := w.faults; f != nil && f.Jitter > 0 {
		p.msgSeq++
		u := faults.Uniform(f.Seed, uint64(p.rank), jitterStream+p.msgSeq)
		wire += vtime.Micros(float64(cost.Wire) * f.Jitter * u)
	}

	// Payloads move whenever the caller supplied a buffer, except that
	// timing-only worlds (CarryData false) drop payloads above ctlCarryMax
	// so huge-scale experiments never materialise terabytes. Control-plane
	// traffic (Split, Dup) stays below the limit and therefore always works.
	carried := data
	if data != nil && !(w.cfg.CarryData || size <= ctlCarryMax) {
		carried = nil
	}
	if w.cfg.Trace != nil {
		w.cfg.Trace.record(Event{
			Kind: EventSend, Rank: p.rank, Peer: gdst, Tag: tag, Bytes: size,
			Link: link, Time: p.clock.Now(), Eager: cost.Eager,
		})
	}
	if cost.Eager {
		// Injection waits for the wire to this peer to free; the message
		// then occupies it for its transmit time.
		start := vtime.Max(p.clock.Now(), p.linkBusyUntil(gdst))
		p.holdLink(gdst, start+cost.Transmit)
		l := p.ev.loop
		if l.deliverDirect(gdst, c.rank, p.rank, tag, c.ctx, size,
			carried, start+wire, 0, cost.RecvOverhead, nil) {
			return nil
		}
		if l.pullForward(gdst) && l.deliverDirect(gdst, c.rank, p.rank, tag, c.ctx, size,
			carried, start+wire, 0, cost.RecvOverhead, nil) {
			return nil
		}
		w.mailboxes[gdst].deliver(c.rank, tag, c.ctx, size, carried,
			start+wire, 0, cost.RecvOverhead, nil)
		return nil
	}
	rdv := p.getRendezvous()
	rdv.senderReady = p.clock.Now()
	if carried != nil {
		rdv.payload = carried[:size]
	}
	l := p.ev.loop
	if l.deliverDirect(gdst, c.rank, p.rank, tag, c.ctx, size,
		carried, 0, wire, cost.RecvOverhead, rdv) {
		return rdv
	}
	if l.pullForward(gdst) && l.deliverDirect(gdst, c.rank, p.rank, tag, c.ctx, size,
		carried, 0, wire, cost.RecvOverhead, rdv) {
		return rdv
	}
	w.mailboxes[gdst].deliver(c.rank, tag, c.ctx, size, nil,
		0, wire, cost.RecvOverhead, rdv)
	return rdv
}

// completeSend parks the rank until the rendezvous transfer finishes and
// advances the sender clock to its completion instant. It is a no-op for
// eager sends. The error is the rank's failure when it fails while parked
// — the receiver died under a fault plan, or the run was canceled — and
// the handshake is then abandoned, not recycled.
func (c *Comm) completeSend(rdv *rendezvous) error {
	if rdv == nil {
		return nil
	}
	p := c.proc
	for !rdv.ready {
		if p.failure != nil {
			return p.failure
		}
		p.ev.wait = waitRdv
		p.park()
	}
	p.clock.AdvanceTo(rdv.val)
	// The receiver has read payload and senderReady before reporting, so
	// the handshake can be reused for the next large message.
	p.putRendezvous(rdv)
	return nil
}

// recvBytes implements blocking receive on a communicator. src is a
// communicator rank or AnySource. It returns the message's communicator-rank
// source, tag and byte count.
func (c *Comm) recvBytes(src, tag int, buf []byte, max int) (Status, error) {
	p := c.proc
	mb := p.world.mailboxes[p.rank]
	// The previously consumed envelope rides along and is recycled (with
	// its payload buffer) under the lock match takes anyway.
	spent := p.spent
	p.spent = nil
	e := mb.match(p, src, tag, c.ctx, spent)
	if e == nil {
		// The rank failed while parked: a rank this receive depended on is
		// dead, or the run was canceled.
		return Status{}, p.parkFailure()
	}
	return c.finishRecv(e, buf, max)
}

// tryRecvBytes is the non-blocking form of recvBytes: when no matching
// message is pending it reports false without consuming anything or
// touching the clock, so the caller can retry later.
func (c *Comm) tryRecvBytes(src, tag int, buf []byte, max int) (Status, bool, error) {
	p := c.proc
	mb := p.world.mailboxes[p.rank]
	spent := p.spent
	p.spent = nil
	e := mb.tryMatch(src, tag, c.ctx, spent)
	if e == nil {
		return Status{}, false, nil
	}
	st, err := c.finishRecv(e, buf, max)
	return st, true, err
}

// finishRecv consumes a matched envelope: it advances the receiver clock to
// the transfer's completion, copies the payload out, reports rendezvous
// completion back to the sender and recycles the envelope.
func (c *Comm) finishRecv(e *envelope, buf []byte, max int) (Status, error) {
	p := c.proc
	w := p.world
	st := Status{Source: e.src, Tag: e.tag, Count: e.size}
	var err error
	n := e.size
	if e.size > max {
		n, st.Count = max, max
		err = &ErrTruncate{Posted: max, Actual: e.size, Source: e.src, Tag: e.tag}
	}
	// The receive-side costs were priced by the sender (the model is
	// symmetric in the endpoints) and ride on the envelope.
	eager := e.rdv == nil
	if eager {
		p.clock.AdvanceTo(e.arrival)
		if e.data != nil && buf != nil {
			copy(buf[:n], e.data[:n])
		}
	} else {
		// The transfer starts when both sides are ready and occupies the
		// wire for the modelled duration; the receiver reports completion
		// back so the blocking sender can advance its clock too. The copy
		// out of the borrowed send buffer comes first: the report is what
		// lets the sender reuse that buffer.
		rdv := e.rdv
		done := vtime.Max(rdv.senderReady, p.clock.Now()) + e.wire
		p.clock.AdvanceTo(done)
		if rdv.payload != nil && buf != nil {
			copy(buf[:n], rdv.payload[:n])
		}
		e.rdv = nil
		if o := rdv.owner; !o.ev.loop.drainDirect(o, rdv, done) {
			rdv.val, rdv.ready = done, true
			o.ev.loop.wakeRdv(o)
		}
	}
	p.clock.Advance(e.recvOver)
	if w.cfg.Trace != nil {
		gsrc := c.group[e.src]
		w.cfg.Trace.record(Event{
			Kind: EventRecv, Rank: p.rank, Peer: gsrc, Tag: e.tag, Bytes: e.size,
			Link: p.linkTo(gsrc), Time: p.clock.Now(), Eager: eager,
		})
	}
	// Stash the consumed envelope (with its pooled payload, if eager; a
	// borrowed rendezvous buffer never enters the pool) for recycling on
	// this rank's next receive.
	p.spent = e
	return st, err
}

// Send performs a blocking standard-mode send of buf to communicator rank
// dst with the given tag.
func (c *Comm) Send(buf []byte, dst, tag int) error { return c.SendN(buf, len(buf), dst, tag) }

// Recv performs a blocking receive into buf from communicator rank src
// (or AnySource) with the given tag (or AnyTag).
func (c *Comm) Recv(buf []byte, src, tag int) (Status, error) {
	return c.RecvN(buf, len(buf), src, tag)
}

// SendN is Send with an explicit byte count; buf may be nil in timing-only
// worlds (the message then carries only its size).
func (c *Comm) SendN(buf []byte, n, dst, tag int) error {
	if err := c.checkRank(dst, "Send dst"); err != nil {
		return err
	}
	if err := checkTag(tag); err != nil {
		return err
	}
	return c.completeSend(c.postSend(dst, tag, buf, n))
}

// RecvN is Recv with an explicit maximum byte count; buf may be nil in
// timing-only worlds.
func (c *Comm) RecvN(buf []byte, n, src, tag int) (Status, error) {
	if src != AnySource {
		if err := c.checkRank(src, "Recv src"); err != nil {
			return Status{}, err
		}
	}
	if tag != AnyTag {
		if err := checkTag(tag); err != nil {
			return Status{}, err
		}
	}
	return c.recvBytes(src, tag, buf, n)
}

// Probe blocks until a message matching (src, tag) is available and returns
// its status without consuming it, like MPI_Probe. The rank clock advances
// to the message's availability instant.
func (c *Comm) Probe(src, tag int) (Status, error) {
	if src != AnySource {
		if err := c.checkRank(src, "Probe src"); err != nil {
			return Status{}, err
		}
	}
	if tag != AnyTag {
		if err := checkTag(tag); err != nil {
			return Status{}, err
		}
	}
	p := c.proc
	e := p.world.mailboxes[p.rank].peek(p, src, tag, c.ctx)
	if e == nil {
		return Status{}, p.parkFailure()
	}
	if e.rdv == nil {
		p.clock.AdvanceTo(e.arrival)
	} else {
		p.clock.AdvanceTo(e.rdv.senderReady)
	}
	return Status{Source: e.src, Tag: e.tag, Count: e.size}, nil
}

// Sendrecv sends sbuf to dst and receives into rbuf from src without
// deadlock: the send is posted first (RTS for rendezvous), the receive is
// satisfied, and only then does the call wait for the send to drain -- so
// two ranks exchanging large messages both make progress.
func (c *Comm) Sendrecv(sbuf []byte, dst, stag int, rbuf []byte, src, rtag int) (Status, error) {
	return c.SendrecvN(sbuf, len(sbuf), dst, stag, rbuf, len(rbuf), src, rtag)
}

// SendrecvN is Sendrecv with explicit byte counts; buffers may be nil in
// timing-only worlds.
func (c *Comm) SendrecvN(sbuf []byte, sn, dst, stag int, rbuf []byte, rn, src, rtag int) (Status, error) {
	if err := c.checkRank(dst, "Sendrecv dst"); err != nil {
		return Status{}, err
	}
	if src != AnySource {
		if err := c.checkRank(src, "Sendrecv src"); err != nil {
			return Status{}, err
		}
	}
	if err := checkTag(stag); err != nil {
		return Status{}, err
	}
	if rtag != AnyTag {
		if err := checkTag(rtag); err != nil {
			return Status{}, err
		}
	}
	return c.sendrecvRaw(sbuf, sn, dst, stag, rbuf, rn, src, rtag)
}

// sendrecvRaw is the internal exchange used by collectives: explicit sizes,
// reserved tags, no validation.
func (c *Comm) sendrecvRaw(sbuf []byte, ssize, dst, stag int, rbuf []byte, rsize, src, rtag int) (Status, error) {
	rdv := c.postSend(dst, stag, sbuf, ssize)
	st, err := c.recvBytes(src, rtag, rbuf, rsize)
	if serr := c.completeSend(rdv); err == nil {
		err = serr
	}
	return st, err
}

func checkTag(tag int) error {
	if tag < 0 || tag > MaxUserTag {
		return fmt.Errorf("mpi: tag %d outside [0, %d]", tag, MaxUserTag)
	}
	return nil
}
