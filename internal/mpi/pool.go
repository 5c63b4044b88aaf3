package mpi

import (
	"math/bits"

	"repro/internal/vtime"
)

// Size-class arithmetic shared by the mailbox payload pools and the
// per-Proc scratch arena, plus the per-Proc rendezvous freelist.

const (
	// payloadMinClass is the smallest pooled capacity (64 B): tiny control
	// messages all share one class instead of fragmenting the freelists.
	payloadMinClass = 6
	// payloadMaxClass caps pooled payloads at 16 MiB; larger buffers are
	// allocated exactly and dropped after use.
	payloadMaxClass = 24
)

// payloadClass returns the power-of-two capacity class of n: the smallest c
// with payloadMinClass <= c and n <= 1<<c (classes above payloadMaxClass
// mean "do not pool").
func payloadClass(n int) int {
	if n <= 1<<payloadMinClass {
		return payloadMinClass
	}
	return bits.Len(uint(n - 1))
}

// getRendezvous draws a handshake from the rank's freelist. The completion
// channel is reused across transfers: each cycle sends and receives exactly
// one value, so a recycled channel is always empty. Event-engine ranks skip
// the channel entirely: completion is reported through (val, ready) plus a
// loop wake, so no channel is ever allocated for them.
func (p *Proc) getRendezvous() *rendezvous {
	if n := len(p.rdvFree); n > 0 {
		r := p.rdvFree[n-1]
		p.rdvFree[n-1] = nil
		p.rdvFree = p.rdvFree[:n-1]
		return r
	}
	r := &rendezvous{owner: p}
	if p.ev == nil {
		r.done = make(chan vtime.Micros, 1)
	}
	return r
}

// putRendezvous recycles a drained handshake. Only the sender calls this
// (after reading done), at which point the receiver has long since copied
// out of the borrowed payload and read senderReady.
func (p *Proc) putRendezvous(r *rendezvous) {
	r.payload = nil
	r.ready = false
	p.rdvFree = append(p.rdvFree, r)
}
