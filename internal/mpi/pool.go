package mpi

import "math/bits"

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

// getRendezvous draws a handshake from the rank's freelist.
func (p *Proc) getRendezvous() *rendezvous {
	if n := len(p.rdvFree); n > 0 {
		r := p.rdvFree[n-1]
		p.rdvFree[n-1] = nil
		p.rdvFree = p.rdvFree[:n-1]
		return r
	}
	return &rendezvous{owner: p}
}

// putRendezvous recycles a drained handshake. Only the sender calls this
// (after reading the completion report), at which point the receiver has long since copied
// out of the borrowed payload and read senderReady.
func (p *Proc) putRendezvous(r *rendezvous) {
	r.payload = nil
	r.ready = false
	p.rdvFree = append(p.rdvFree, r)
}
