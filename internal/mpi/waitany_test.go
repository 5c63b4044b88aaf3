package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// Tests for the []*Request completion family (Waitany, Testall, Testany)
// over p2p and collective requests uniformly.

func TestWaitanyCompletesEachRequestOnce(t *testing.T) {
	w := testWorld(t, 2, 2)
	const n = 512
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			for i := 0; i < 3; i++ {
				if err := c.Send(pattern(i, n), 1, i+1); err != nil {
					return err
				}
			}
			return nil
		}
		bufs := make([][]byte, 3)
		reqs := make([]*Request, 3)
		for i := range reqs {
			bufs[i] = make([]byte, n)
			r, err := c.Irecv(bufs[i], 0, i+1)
			if err != nil {
				return err
			}
			reqs[i] = r
		}
		seen := map[int]bool{}
		for range reqs {
			idx, st, err := Waitany(reqs)
			if err != nil {
				return err
			}
			if idx < 0 || seen[idx] {
				return fmt.Errorf("Waitany returned index %d (seen=%v)", idx, seen)
			}
			seen[idx] = true
			if st.Count != n || st.Source != 0 {
				return fmt.Errorf("Waitany status %+v", st)
			}
			if !bytes.Equal(bufs[idx], pattern(idx, n)) {
				return fmt.Errorf("request %d payload corrupted", idx)
			}
		}
		// All inactive now: Waitany reports -1 (MPI_UNDEFINED analogue).
		if idx, _, _ := Waitany(reqs); idx != -1 {
			return fmt.Errorf("Waitany over completed requests returned %d, want -1", idx)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTestallAndTestany(t *testing.T) {
	w := testWorld(t, 2, 2)
	const n = 256
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			// Hold rank 1's receives back until it has verified that
			// Testall/Testany report no progress, then send.
			if _, err := c.Recv(nil, 1, 9); err != nil {
				return err
			}
			if err := c.Send(pattern(0, n), 1, 1); err != nil {
				return err
			}
			return c.Send(pattern(1, n), 1, 2)
		}
		b1, b2 := make([]byte, n), make([]byte, n)
		r1, err := c.Irecv(b1, 0, 1)
		if err != nil {
			return err
		}
		r2, err := c.Irecv(b2, 0, 2)
		if err != nil {
			return err
		}
		reqs := []*Request{r1, r2}
		// Nothing sent yet: single passes must report no completion.
		if all, _ := Testall(reqs); all {
			return errors.New("Testall true before any send")
		}
		if idx, _, _ := Testany(reqs); idx != -1 {
			return fmt.Errorf("Testany returned %d before any send", idx)
		}
		if err := c.Send(nil, 0, 9); err != nil { // release the sender
			return err
		}
		// Spin Testany until the first receive lands, then Testall for the
		// rest.
		for {
			idx, st, err := Testany(reqs)
			if err != nil {
				return err
			}
			if idx >= 0 {
				if st.Count != n {
					return fmt.Errorf("Testany status %+v", st)
				}
				break
			}
		}
		for {
			all, err := Testall(reqs)
			if err != nil {
				return err
			}
			if all {
				break
			}
		}
		if !bytes.Equal(b1, pattern(0, n)) || !bytes.Equal(b2, pattern(1, n)) {
			return errors.New("payloads corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTestYieldsToRanksAhead pins where an incomplete poll requeues its
// rank: behind every runnable rank, not at its unchanged clock. Rank 0
// spins on Test at virtual time 0 and outranks rank 1 on every (time,
// rank) tie, so requeued at its clock it would run again before rank 1
// ever sends, and the loop would never end.
func TestTestYieldsToRanksAhead(t *testing.T) {
	w := testWorld(t, 2, 2)
	const n = 64
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 1 {
			p.AdvanceClock(50)
			return c.Send(pattern(1, n), 0, 3)
		}
		buf := make([]byte, n)
		r, err := c.Irecv(buf, 1, 3)
		if err != nil {
			return err
		}
		for {
			done, _, err := r.Test()
			if err != nil {
				return err
			}
			if done {
				break
			}
		}
		if !bytes.Equal(buf, pattern(1, n)) {
			return errors.New("payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPollDoesNotStarveBuriedRank pins where a yielded poller runs: only
// in the outermost loop frame. Rank 1 finishes its sub-communicator
// Allreduce inside a nested frame, and rank 2's world Allreduce then
// blocks in a frame above it. Rank 0's Test waits on a message rank 1
// sends only after its frame unwinds, so a nested frame that resumed the
// poller instead of yielding would cycle it forever.
func TestPollDoesNotStarveBuriedRank(t *testing.T) {
	const n = 64
	w := parityWorld(t, 3, 3, Config{CarryData: true, DisableFold: true})
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		color := 1
		if p.Rank() == 0 {
			color = 0
		}
		sub, err := c.Split(color, p.Rank())
		if err != nil {
			return err
		}
		out := make([]byte, n)
		switch p.Rank() {
		case 0:
			buf := make([]byte, n)
			r, err := c.Irecv(buf, 1, 7)
			if err != nil {
				return err
			}
			for {
				done, _, err := r.Test()
				if err != nil {
					return err
				}
				if done {
					break
				}
			}
			if !bytes.Equal(buf, pattern(1, n)) {
				return errors.New("payload corrupted")
			}
		case 1:
			if err := sub.Allreduce(pattern(1, n), out, Float32, OpSum); err != nil {
				return err
			}
			if err := c.Send(pattern(1, n), 0, 7); err != nil {
				return err
			}
		case 2:
			if err := sub.Allreduce(pattern(2, n), out, Float32, OpSum); err != nil {
				return err
			}
		}
		return c.Allreduce(pattern(p.Rank(), n), out, Float32, OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitanyMixesP2PAndCollective drives a collective request and a p2p
// receive through one Waitany loop.
func TestWaitanyMixesP2PAndCollective(t *testing.T) {
	const ranks, n = 4, 512
	w := testWorld(t, ranks, 4)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		rbuf := make([]byte, n)
		ireq, err := c.Iallreduce(pattern(p.Rank(), n), rbuf, Float32, OpSum)
		if err != nil {
			return err
		}
		reqs := []*Request{ireq}
		var userBuf []byte
		if p.Rank() == 0 {
			userBuf = make([]byte, n)
			ur, err := c.Irecv(userBuf, 1, 5)
			if err != nil {
				return err
			}
			reqs = append(reqs, ur)
		}
		if p.Rank() == 1 {
			if err := c.Send(pattern(9, n), 0, 5); err != nil {
				return err
			}
		}
		for {
			idx, _, err := Waitany(reqs)
			if err != nil {
				return err
			}
			if idx == -1 {
				break
			}
		}
		if p.Rank() == 0 && !bytes.Equal(userBuf, pattern(9, n)) {
			return errors.New("user payload corrupted")
		}
		want := make([]byte, n)
		if err := c.Allreduce(pattern(p.Rank(), n), want, Float32, OpSum); err != nil {
			return err
		}
		if !bytes.Equal(rbuf, want) {
			return errors.New("collective result diverges")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
