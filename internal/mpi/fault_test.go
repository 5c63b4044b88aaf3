package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/fixture"
	"repro/internal/faults"
	"repro/internal/netmodel"
	"repro/internal/topology"
	"repro/internal/vtime"
)

// Fault-injection suite: kill plans must terminate every collective with
// structured errors — never a hang — at the error sites and virtual times
// frozen from the retired goroutine executor (frozen_test.go), with folding
// on and off, and seeded noise/jitter plans must be deterministic.

// faultConfigs are the fold settings every kill scenario must agree across.
var faultConfigs = []struct {
	name        string
	disableFold bool
}{
	{"event", false},
	{"event_nofold", true},
}

// faultWorld builds a timing-only world with the given fault spec.
func faultWorld(t *testing.T, disableFold bool, ranks, ppn int, spec string) *World {
	t.Helper()
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	place, err := topology.NewPlacement(&topology.Frontera, ranks, ppn, topology.Block, false)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(Config{
		Placement:   place,
		Model:       netmodel.MustNew(&topology.Frontera, netmodel.MVAPICH2),
		CarryData:   false,
		DisableFold: disableFold,
		Faults:      plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// invokeAnyCollective extends invokeCollective to the one-algorithm
// collectives and the vector forms, each with n bytes a rank.
func invokeAnyCollective(c *Comm, coll Collective, n int) error {
	counts := make([]int, c.Size())
	for r := range counts {
		counts[r] = n
	}
	switch coll {
	case collBarrier:
		return c.Barrier()
	case collReduce:
		return c.ReduceN(nil, nil, n, Float32, OpSum, 0)
	case collGather:
		return c.GatherN(nil, n, nil, 0)
	case collScatter:
		return c.ScatterN(nil, nil, n, 0)
	case collScan:
		return c.ScanN(nil, nil, n, Float32, OpSum)
	case collExscan:
		return c.ExscanN(nil, nil, n, Float32, OpSum)
	case collGatherv:
		return c.Gatherv(nil, n, nil, counts, nil, 0)
	case collScatterv:
		return c.Scatterv(nil, counts, nil, nil, n, 0)
	case collAllgatherv:
		return c.Allgatherv(nil, nil, counts, nil)
	case collAlltoallv:
		return c.Alltoallv(nil, counts, nil, nil, counts, nil)
	default:
		return invokeCollective(c, coll, n)
	}
}

// faultRecord is one rank's terminal error as frozen: which kind, where
// and when. Kind is "killed", "failed", or empty for a rank that finished
// cleanly.
type faultRecord struct {
	Kind       string       `json:"kind,omitempty"`
	Collective Collective   `json:"collective,omitempty"`
	Step       int          `json:"step,omitempty"`
	Invocation int          `json:"invocation,omitempty"`
	Time       vtime.Micros `json:"time,omitempty"`
	Failed     []int        `json:"failed,omitempty"`
}

// faultOutcome is one configuration's observable result: the terminal error
// of every rank.
type faultOutcome struct {
	errs []error
}

// records converts the outcome to its frozen form.
func (o faultOutcome) records(t *testing.T) []faultRecord {
	t.Helper()
	recs := make([]faultRecord, len(o.errs))
	for r, err := range o.errs {
		var killed *RankKilledError
		var failed *RankFailedError
		switch {
		case err == nil:
		case errors.As(err, &killed):
			recs[r] = faultRecord{Kind: "killed", Collective: killed.Collective,
				Invocation: killed.Invocation, Time: killed.Time}
		case errors.As(err, &failed):
			recs[r] = faultRecord{Kind: "failed", Collective: failed.Collective,
				Step: failed.Step, Time: failed.Time, Failed: failed.Failed}
		default:
			t.Fatalf("rank %d: unstructured error %v", r, err)
		}
	}
	return recs
}

// checkFaultRecords compares an outcome with its frozen answer.
func checkFaultRecords(t *testing.T, frozen *fixture.Answers, key, cfg string, out faultOutcome) {
	t.Helper()
	got := out.records(t)
	var want []faultRecord
	if !frozen.Check(t, key, got, &want) {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: error sites left the frozen answer:\n  got    %+v\n  frozen %+v", cfg, got, want)
	}
}

// runKillScenario loops a collective on every rank until the fault plan
// stops it and records each rank's terminal error. The body returns nil so
// World.Run itself succeeds and every rank's error stays inspectable. Each
// iteration ends in a barrier so ranks with no data dependency on the
// victim (e.g. a bcast subtree not containing it) still observe the
// failure instead of running ahead forever.
func runKillScenario(t *testing.T, disableFold bool, ranks int, spec string, coll Collective, n int) faultOutcome {
	t.Helper()
	w := faultWorld(t, disableFold, ranks, 1, spec)
	out := faultOutcome{errs: make([]error, ranks)}
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		for i := 0; i < 8; i++ {
			err := invokeAnyCollective(c, coll, n)
			if err == nil && coll != collBarrier {
				err = c.Barrier()
			}
			if err != nil {
				out.errs[p.Rank()] = err
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("fold off=%v: %v", disableFold, err)
	}
	return out
}

// faultCollectives is every collective a kill rule can name.
var faultCollectives = []Collective{
	CollBcast, CollAllreduce, CollAllgather, CollAlltoall, CollReduceScatter,
	collBarrier, collReduce, collGather, collScatter, collScan,
}

// TestFaultKillParity kills rank 3 on its second invocation of each
// collective and checks structured errors and bit-identical error sites
// against the frozen answers, with folding on and off.
func TestFaultKillParity(t *testing.T) {
	const ranks, victim, n = 8, 3, 4096
	frozen := openFrozen(t, "fault_kill")
	for _, coll := range faultCollectives {
		coll := coll
		t.Run(string(coll), func(t *testing.T) {
			spec := fmt.Sprintf("kill:rank=%d,after=1:%s", victim, coll)
			for _, cfg := range faultConfigs {
				out := runKillScenario(t, cfg.disableFold, ranks, spec, coll, n)

				var killed *RankKilledError
				if !errors.As(out.errs[victim], &killed) {
					t.Fatalf("%s: rank %d error = %v, want RankKilledError",
						cfg.name, victim, out.errs[victim])
				}
				if killed.Rank != victim || killed.Collective != coll {
					t.Fatalf("%s: kill error %+v, want rank %d collective %s",
						cfg.name, killed, victim, coll)
				}
				for r := 0; r < ranks; r++ {
					if r == victim {
						continue
					}
					var failed *RankFailedError
					if !errors.As(out.errs[r], &failed) {
						t.Fatalf("%s: rank %d error = %v, want RankFailedError",
							cfg.name, r, out.errs[r])
					}
					if failed.Code != ErrProcFailed || failed.Rank != r {
						t.Fatalf("%s: rank %d failure %+v", cfg.name, r, failed)
					}
					if len(failed.Failed) != 1 || failed.Failed[0] != victim {
						t.Fatalf("%s: rank %d blames %v, want [%d]",
							cfg.name, r, failed.Failed, victim)
					}
				}
				checkFaultRecords(t, frozen, string(coll), cfg.name, out)
			}
		})
	}
}

// runCollLoop runs coll on every rank of a world under spec, eight calls
// with no barrier between them, and returns every rank's terminal error.
func runCollLoop(t *testing.T, disableFold bool, ranks int, spec string, coll Collective, n int) []error {
	t.Helper()
	w := faultWorld(t, disableFold, ranks, 1, spec)
	errs := make([]error, ranks)
	if err := w.Run(func(p *Proc) error {
		for i := 0; i < 8 && errs[p.Rank()] == nil; i++ {
			errs[p.Rank()] = invokeAnyCollective(p.CommWorld(), coll, n)
		}
		return nil
	}); err != nil {
		t.Fatalf("fold off=%v: %v", disableFold, err)
	}
	return errs
}

// checkKillNames checks the outcome of a kill rule naming coll on rank
// victim: the victim is killed in coll, and every rank's error is
// structured, names coll and reads "mpi: what: ".
func checkKillNames(t *testing.T, cfg string, errs []error, victim int, coll Collective, what string) {
	t.Helper()
	for r, err := range errs {
		if err == nil {
			t.Fatalf("%s: rank %d finished, want every rank failed in %s", cfg, r, coll)
		}
		var killed *RankKilledError
		var failed *RankFailedError
		var got Collective
		switch {
		case r == victim && errors.As(err, &killed):
			got = killed.Collective
		case r != victim && errors.As(err, &failed):
			got = failed.Collective
		default:
			t.Fatalf("%s: rank %d error %v, want it killed (rank %d) or failed", cfg, r, err, victim)
		}
		if got != coll || !strings.HasPrefix(err.Error(), "mpi: "+what+": ") {
			t.Fatalf("%s: rank %d error %q (collective %q), want it to name %s", cfg, r, err, got, coll)
		}
	}
}

// TestFaultKillVectorForms pins the vector forms' fault labels: a kill
// rule naming each form fires on its second call, and every rank's error
// names the form, with folding on and off. The messages are rendezvous
// sized, so every survivor is still inside the form when rank 3 dies.
func TestFaultKillVectorForms(t *testing.T) {
	const ranks, victim, n = 8, 3, 64 * 1024
	forms := []struct {
		coll Collective
		what string
	}{
		{collGatherv, "Gatherv"}, {collScatterv, "Scatterv"},
		{collAllgatherv, "Allgatherv"}, {collAlltoallv, "Alltoallv"},
	}
	for _, f := range forms {
		t.Run(string(f.coll), func(t *testing.T) {
			spec := fmt.Sprintf("kill:rank=%d,after=1:%s", victim, f.coll)
			for _, cfg := range faultConfigs {
				errs := runCollLoop(t, cfg.disableFold, ranks, spec, f.coll, n)
				checkKillNames(t, cfg.name, errs, victim, f.coll, f.what)
			}
		})
	}
}

// TestFaultKillExscan pins Exscan as a collective of its own: a kill rule
// naming exscan kills rank 3 in an Exscan loop and every rank's error
// names exscan and reads "mpi: Exscan:", while a rule naming scan counts no
// Exscan call, with folding on and off.
func TestFaultKillExscan(t *testing.T) {
	const ranks, victim, n = 8, 3, 64 * 1024
	for _, cfg := range faultConfigs {
		errs := runCollLoop(t, cfg.disableFold, ranks, "kill:rank=3,after=1:exscan", collExscan, n)
		checkKillNames(t, cfg.name, errs, victim, collExscan, "Exscan")
		for r, err := range runCollLoop(t, cfg.disableFold, ranks, "kill:rank=3,after=1:scan", collExscan, n) {
			if err != nil {
				t.Fatalf("%s: a rule naming scan failed rank %d of an Exscan loop: %v", cfg.name, r, err)
			}
		}
	}
}

// TestFaultKillAtTime exercises the virtual-time kill trigger.
func TestFaultKillAtTime(t *testing.T) {
	const ranks, n = 8, 4096
	frozen := openFrozen(t, "fault_kill_at_time")
	for _, cfg := range faultConfigs {
		out := runKillScenario(t, cfg.disableFold, ranks,
			"kill:rank=0,at=30us", CollAllreduce, n)
		var killed *RankKilledError
		if !errors.As(out.errs[0], &killed) {
			t.Fatalf("%s: rank 0 error = %v, want RankKilledError", cfg.name, out.errs[0])
		}
		if killed.Time < 30 {
			t.Fatalf("%s: killed at %s, want >= 30us", cfg.name, killed.Time)
		}
		if killed.Invocation < 2 {
			t.Fatalf("%s: killed on invocation %d, want at least one clean pass",
				cfg.name, killed.Invocation)
		}
		checkFaultRecords(t, frozen, "allreduce", cfg.name, out)
	}
}

// TestFaultNonblockingCollective checks that a kill plan surfaces through
// the Iallreduce post/Wait path with no hang.
func TestFaultNonblockingCollective(t *testing.T) {
	const ranks, n = 8, 4096
	for _, cfg := range faultConfigs {
		w := faultWorld(t, cfg.disableFold, ranks, 1, "kill:rank=2,after=1:allreduce")
		errs := make([]error, ranks)
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			for i := 0; i < 8; i++ {
				r, err := c.IallreduceN(nil, nil, n, Float32, OpSum)
				if err == nil {
					_, err = r.Wait()
				}
				if err != nil {
					errs[p.Rank()] = err
					return nil
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		var killed *RankKilledError
		if !errors.As(errs[2], &killed) {
			t.Fatalf("%s: rank 2 error = %v, want RankKilledError", cfg.name, errs[2])
		}
		for r := 0; r < ranks; r++ {
			if r == 2 {
				continue
			}
			var failed *RankFailedError
			if !errors.As(errs[r], &failed) {
				t.Fatalf("%s: rank %d error = %v, want RankFailedError", cfg.name, r, errs[r])
			}
		}
	}
}

// runNoiseScenario runs a mixed collective workload under a plan and
// returns every rank's final clock.
func runNoiseScenario(t *testing.T, disableFold bool, ranks int, spec string) []vtime.Micros {
	t.Helper()
	w := faultWorld(t, disableFold, ranks, 1, spec)
	end := make([]vtime.Micros, ranks)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		for i := 0; i < 3; i++ {
			if err := c.AllreduceN(nil, nil, 4096, Float32, OpSum); err != nil {
				return err
			}
			if err := c.AlltoallN(nil, 1024, nil); err != nil {
				return err
			}
			if _, err := c.SendrecvN(nil, 64*1024, (p.Rank()+1)%ranks, 7,
				nil, 64*1024, (p.Rank()+ranks-1)%ranks, 7); err != nil {
				return err
			}
		}
		end[p.Rank()] = p.Wtime()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// TestFaultNoiseJitterDeterminism pins the seeded straggler/jitter draws:
// the same plan must reproduce the frozen clocks run-to-run and across fold
// settings — and a different seed must not.
func TestFaultNoiseJitterDeterminism(t *testing.T) {
	const ranks = 8
	const spec = "noise:sigma=5us; jitter:link=0.2; seed:42"
	frozen := openFrozen(t, "fault_noise")
	ref := runNoiseScenario(t, false, ranks, spec)
	var want []vtime.Micros
	if frozen.Check(t, spec, ref, &want) {
		compareEnds(t, "noise plan", ref, want)
	}
	for _, cfg := range faultConfigs {
		for rep := 0; rep < 2; rep++ {
			got := runNoiseScenario(t, cfg.disableFold, ranks, spec)
			for r := range got {
				if got[r] != ref[r] {
					t.Fatalf("%s rep %d: rank %d clock %s != %s", cfg.name, rep, r, got[r], ref[r])
				}
			}
		}
	}
	clean := runNoiseScenario(t, false, ranks, "")
	reseeded := runNoiseScenario(t, false, ranks, "noise:sigma=5us; jitter:link=0.2; seed:43")
	same := true
	for r := range ref {
		if reseeded[r] != ref[r] {
			same = false
		}
	}
	if same {
		t.Fatal("seed 43 reproduced seed 42's clocks exactly")
	}
	same = true
	for r := range ref {
		if clean[r] != ref[r] {
			same = false
		}
	}
	if same {
		t.Fatal("noise plan did not perturb the clean clocks")
	}
}

// TestFaultInertPlanZeroImpact: a parsed-but-empty plan must not move any
// virtual time relative to no plan at all.
func TestFaultInertPlanZeroImpact(t *testing.T) {
	const ranks = 8
	clean := runNoiseScenario(t, false, ranks, "")
	inert := runNoiseScenario(t, false, ranks, " ; ; ")
	for r := range clean {
		if clean[r] != inert[r] {
			t.Fatalf("rank %d: inert plan moved clock %s -> %s", r, clean[r], inert[r])
		}
	}
}

// TestEventDeadlockDiagnostic pins the event engine's structured
// no-progress error on an intentionally deadlocked 2-rank world.
func TestEventDeadlockDiagnostic(t *testing.T) {
	t.Run("p2p", func(t *testing.T) {
		w := faultWorld(t, false, 2, 1, "")
		err := w.Run(func(p *Proc) error {
			// Both ranks receive first: no message is ever posted.
			_, err := p.CommWorld().RecvN(nil, 16, 1-p.Rank(), 5)
			return err
		})
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("error = %v, want DeadlockError", err)
		}
		if dl.Size != 2 || len(dl.Blocked) != 2 {
			t.Fatalf("deadlock %+v, want both ranks blocked", dl)
		}
		for i, b := range dl.Blocked {
			if b.Rank != i || b.Step != -1 {
				t.Fatalf("blocked[%d] = %+v", i, b)
			}
			want := fmt.Sprintf("recv from rank %d tag 5 (ctx 0)", 1-i)
			if b.Op != want {
				t.Fatalf("blocked[%d].Op = %q, want %q", i, b.Op, want)
			}
		}
	})
	t.Run("collective", func(t *testing.T) {
		w := faultWorld(t, false, 2, 1, "")
		err := w.Run(func(p *Proc) error {
			if p.Rank() == 1 {
				return nil // never enters the barrier
			}
			return p.CommWorld().Barrier()
		})
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("error = %v, want DeadlockError", err)
		}
		if len(dl.Blocked) != 1 {
			t.Fatalf("deadlock %+v, want exactly rank 0 blocked", dl)
		}
		b := dl.Blocked[0]
		if b.Rank != 0 || b.Collective != collBarrier || b.Step != 0 {
			t.Fatalf("blocked = %+v, want rank 0 in barrier step 0", b)
		}
	})
}
