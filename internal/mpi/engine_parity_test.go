package mpi

import (
	"fmt"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/topology"
	"repro/internal/vtime"
)

// Engine-parity suite: the event loop must reproduce, bit for bit, the
// virtual-time behaviour of the per-rank goroutine executor it replaced.
// For every registered algorithm of every collective, at three message
// sizes (eager, mid, rendezvous) and three placements (one rank per node,
// multi-rank nodes, a folded non-power-of-two world), the runtime must
// match that executor's frozen answers (frozen_test.go) on every rank's
// final virtual clock and on every rank's full message log (send and recv
// events, in program order, with timestamps) — with folding on and off.

// parityPlacements are the (ranks, ppn) shapes of the suite.
var parityPlacements = [][2]int{{16, 1}, {8, 4}, {63, 7}}

// engineParitySizes cover the eager and rendezvous protocols and the large-vector
// algorithm switch points.
var engineParitySizes = []int{1024, 16 * 1024, 128 * 1024}

// parityRecord is one run's observable result as frozen: every rank's end
// clock and, for a traced run, the digest of every rank's message log.
type parityRecord struct {
	End []vtime.Micros `json:"end"`
	Log []string       `json:"log,omitempty"`
}

// parityWorld builds the timing-only Frontera world of the suite.
func parityWorld(t *testing.T, ranks, ppn int, cfg Config) *World {
	t.Helper()
	place, err := topology.NewPlacement(&topology.Frontera, ranks, ppn, topology.Block, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Placement = place
	cfg.Model = netmodel.MustNew(&topology.Frontera, netmodel.MVAPICH2)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runCollParity runs one collective twice (cold and steady-state pools) and
// captures the outcome. A traced run records the message logs; tracing
// closes the fold gate, so the untraced fold-on run is the one that
// exercises folding.
func runCollParity(t *testing.T, traced, disableFold bool, ranks, ppn int, coll Collective, algo string, n int) parityRecord {
	t.Helper()
	var trace *Trace
	if traced {
		trace = NewTrace()
	}
	w := parityWorld(t, ranks, ppn, Config{
		Trace:       trace,
		DisableFold: disableFold,
		Algorithms:  map[Collective]string{coll: algo},
	})
	end := make([]vtime.Micros, ranks)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		for i := 0; i < 2; i++ {
			if err := invokeCollective(c, coll, n); err != nil {
				return err
			}
		}
		end[p.Rank()] = p.Wtime()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := parityRecord{End: end}
	if traced {
		perRank := make([][]Event, ranks)
		for _, e := range trace.Events() {
			perRank[e.Rank] = append(perRank[e.Rank], e)
		}
		for _, events := range perRank {
			rec.Log = append(rec.Log, logDigest(events))
		}
	}
	return rec
}

// invokeCollective calls one registry collective in its timing-only form.
func invokeCollective(c *Comm, coll Collective, n int) error {
	switch coll {
	case CollBcast:
		return c.BcastN(nil, n, 0)
	case CollAllreduce:
		return c.AllreduceN(nil, nil, n, Float32, OpSum)
	case CollAllgather:
		return c.AllgatherN(nil, n, nil)
	case CollAlltoall:
		return c.AlltoallN(nil, n, nil)
	case CollReduceScatter:
		return c.ReduceScatterBlockN(nil, nil, n, Float32, OpSum)
	default:
		return fmt.Errorf("parity test: unhandled collective %s", coll)
	}
}

// runSubCommParity runs a workload over Dup'd and Split sub-communicators
// and captures every rank's final virtual clock: a world-comm barrier,
// collectives on a full duplicate, collectives on interleaved color groups
// (odd world sizes give non-power-of-two halves), and a closing barrier on
// the duplicate so cross-group skew feeds back into every clock.
func runSubCommParity(t *testing.T, disableFold bool, ranks, ppn int) []vtime.Micros {
	t.Helper()
	w := parityWorld(t, ranks, ppn, Config{DisableFold: disableFold})
	end := make([]vtime.Micros, ranks)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if err := c.Barrier(); err != nil {
			return err
		}
		dup, err := c.Dup()
		if err != nil {
			return err
		}
		half, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		for _, n := range []int{1024, 16 * 1024} {
			if err := dup.AllreduceN(nil, nil, n, Float32, OpSum); err != nil {
				return err
			}
			if err := half.BcastN(nil, n, 0); err != nil {
				return err
			}
			if err := half.AllreduceN(nil, nil, n, Float32, OpSum); err != nil {
				return err
			}
			if err := half.AllgatherN(nil, n, nil); err != nil {
				return err
			}
		}
		if err := dup.Barrier(); err != nil {
			return err
		}
		end[p.Rank()] = p.Wtime()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// compareEnds reports every rank whose end clock left the frozen answer.
func compareEnds(t *testing.T, label string, got, want []vtime.Micros) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d end clocks, frozen answer has %d", label, len(got), len(want))
	}
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("%s: rank %d: virtual end time %v, frozen %v", label, r, got[r], want[r])
		}
	}
}

// TestEngineParitySubComms pins Dup/Split sub-communicator collectives:
// TestEngineParity only covers world-comm schedules, but the split
// bookkeeping (fresh contexts, group rank translation, interleaved color
// groups) runs through separate code and must keep every rank's final
// virtual clock.
func TestEngineParitySubComms(t *testing.T) {
	frozen := openFrozen(t, "engine_parity_subcomms")
	for _, shape := range parityPlacements {
		ranks, ppn := shape[0], shape[1]
		name := fmt.Sprintf("%dx%d", ranks, ppn)
		t.Run(name, func(t *testing.T) {
			for _, disableFold := range []bool{false, true} {
				got := runSubCommParity(t, disableFold, ranks, ppn)
				var want []vtime.Micros
				if frozen.Check(t, name, got, &want) {
					compareEnds(t, fmt.Sprintf("fold off=%v", disableFold), got, want)
				}
			}
		})
	}
}

// TestEngineParity pins the runtime to the frozen answers, bit for bit,
// across the full algorithm registry.
func TestEngineParity(t *testing.T) {
	frozen := openFrozen(t, "engine_parity")
	for _, shape := range parityPlacements {
		ranks, ppn := shape[0], shape[1]
		for _, coll := range Collectives() {
			for _, alg := range Algorithms(coll) {
				if !alg.FeasibleFor(Selection{CommSize: ranks}) {
					continue
				}
				for _, n := range engineParitySizes {
					name := fmt.Sprintf("%dx%d/%s/%s/%d", ranks, ppn, coll, alg.Name, n)
					t.Run(name, func(t *testing.T) {
						traced := runCollParity(t, true, true, ranks, ppn, coll, alg.Name, n)
						var want parityRecord
						if !frozen.Check(t, name, traced, &want) {
							return
						}
						compareEnds(t, "fold off, traced", traced.End, want.End)
						for r := range want.Log {
							if traced.Log[r] != want.Log[r] {
								t.Errorf("rank %d: message log digest %s, frozen %s", r, traced.Log[r], want.Log[r])
							}
						}
						folded := runCollParity(t, false, false, ranks, ppn, coll, alg.Name, n)
						compareEnds(t, "fold on", folded.End, want.End)
					})
				}
			}
		}
	}
}
