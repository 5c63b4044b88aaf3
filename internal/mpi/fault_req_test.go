package mpi

import (
	"errors"
	"strings"
	"testing"
)

// Request-completion semantics under failure: Waitall/Waitany/Testany must
// handle empty slices, propagate errors in request order, and recycle every
// completed Request into the rank's pool.

// TestRequestOpsEmptySlices pins the inactive/empty-slice behaviour of the
// request-set operations (MPI_UNDEFINED analogue).
func TestRequestOpsEmptySlices(t *testing.T) {
	if err := Waitall(nil); err != nil {
		t.Fatalf("Waitall(nil) = %v", err)
	}
	if i, _, err := Waitany(nil); i != -1 || err != nil {
		t.Fatalf("Waitany(nil) = %d, %v", i, err)
	}
	if i, _, err := Testany(nil); i != -1 || err != nil {
		t.Fatalf("Testany(nil) = %d, %v", i, err)
	}
	if done, err := Testall(nil); !done || err != nil {
		t.Fatalf("Testall(nil) = %v, %v", done, err)
	}
	// Slices of nil/harvested requests are equally inactive.
	reqs := []*Request{nil, {pooled: true, comm: nil}}
	if i, _, err := Waitany(reqs); i != -1 || err != nil {
		t.Fatalf("Waitany(inactive) = %d, %v", i, err)
	}
	if i, _, err := Testany(reqs); i != -1 || err != nil {
		t.Fatalf("Testany(inactive) = %d, %v", i, err)
	}
}

// TestRequestErrorPropagation kills rank 1 at its first barrier and drives
// rank 0's receives from it through Waitall/Waitany/Testany: the requests
// complete with RankFailedError (in request order, no hang) and every
// Request object returns to the rank's freelist.
func TestRequestErrorPropagation(t *testing.T) {
	for _, cfg := range faultConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			w := faultWorld(t, cfg.disableFold, 2, 1, "kill:rank=1,after=0:barrier")
			var waitallErr, waitanyErr error
			var anyIdx, testIdx int
			var pooledOK, freelistOK bool
			err := w.Run(func(p *Proc) error {
				c := p.CommWorld()
				if p.Rank() == 1 {
					if err := c.Barrier(); err == nil {
						t.Error("rank 1 barrier survived its kill rule")
					}
					return nil
				}
				free0 := len(p.reqFree)
				r0, err := c.IrecvN(nil, 16, 1, 3)
				if err != nil {
					return err
				}
				r1, err := c.IrecvN(nil, 16, 1, 4)
				if err != nil {
					return err
				}
				reqs := []*Request{r0, r1}
				waitallErr = Waitall(reqs)
				// Both requests are now harvested; the set is inactive.
				anyIdx, _, waitanyErr = Waitany(reqs)
				testIdx, _, _ = Testany(reqs)
				pooledOK = r0.pooled && r1.pooled
				freelistOK = len(p.reqFree) >= free0+2
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var failed *RankFailedError
			if !errors.As(waitallErr, &failed) {
				t.Fatalf("Waitall error = %v, want RankFailedError", waitallErr)
			}
			if len(failed.Failed) != 1 || failed.Failed[0] != 1 {
				t.Fatalf("Waitall blames %v, want [1]", failed.Failed)
			}
			if !strings.Contains(waitallErr.Error(), "Waitall request 0") {
				t.Fatalf("Waitall error %q does not name request 0", waitallErr)
			}
			if anyIdx != -1 || waitanyErr != nil {
				t.Fatalf("Waitany after harvest = %d, %v", anyIdx, waitanyErr)
			}
			if testIdx != -1 {
				t.Fatalf("Testany after harvest = %d", testIdx)
			}
			if !pooledOK {
				t.Fatal("a completed Request was not harvested")
			}
			if !freelistOK {
				t.Fatal("completed Requests leaked out of the freelist")
			}
		})
	}
}

// TestWaitanyFailurePropagation parks a rank inside Waitany over receives
// that can never complete and checks the stall detector errors the poll out
// instead of spinning forever.
func TestWaitanyFailurePropagation(t *testing.T) {
	for _, cfg := range faultConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			w := faultWorld(t, cfg.disableFold, 2, 1, "kill:rank=1,after=0:barrier")
			var idx int
			var waitErr error
			err := w.Run(func(p *Proc) error {
				c := p.CommWorld()
				if p.Rank() == 1 {
					_ = c.Barrier()
					return nil
				}
				r0, err := c.IrecvN(nil, 16, 1, 3)
				if err != nil {
					return err
				}
				r1, err := c.IrecvN(nil, 16, 1, 4)
				if err != nil {
					return err
				}
				idx, _, waitErr = Waitany([]*Request{r0, r1})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if idx != -1 {
				t.Fatalf("Waitany = %d, want -1", idx)
			}
			var failed *RankFailedError
			if !errors.As(waitErr, &failed) {
				t.Fatalf("Waitany error = %v, want RankFailedError", waitErr)
			}
		})
	}
}

// TestIsendWaitToDeadRank checks the rendezvous-send Wait path: a large
// Isend to a dead rank must complete with RankFailedError.
func TestIsendWaitToDeadRank(t *testing.T) {
	for _, cfg := range faultConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			w := faultWorld(t, cfg.disableFold, 2, 1, "kill:rank=1,after=0:barrier")
			var waitErr error
			err := w.Run(func(p *Proc) error {
				c := p.CommWorld()
				if p.Rank() == 1 {
					_ = c.Barrier()
					return nil
				}
				r, err := c.IsendN(nil, 256*1024, 1, 3)
				if err != nil {
					return err
				}
				_, waitErr = r.Wait()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var failed *RankFailedError
			if !errors.As(waitErr, &failed) {
				t.Fatalf("Wait error = %v, want RankFailedError", waitErr)
			}
			if failed.Collective != "" || failed.Step != -1 {
				t.Fatalf("point-to-point failure mislabeled: %+v", failed)
			}
		})
	}
}
