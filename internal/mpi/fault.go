package mpi

// Fault injection and failure semantics. A world built with a
// faults.Plan interprets it at three deterministic points:
//
//   - Collective entry (faultCollEnter, called from driveSched and
//     collRequest): kill rules fire here — a killed rank stops progressing
//     and every later MPI call on it returns its RankKilledError — and the
//     OS-noise straggler delay is charged here, drawn from the counter-based
//     PRNG keyed on (seed, rank, invocation).
//   - Message post (postSendPriced): link jitter stretches the wire time by
//     a seeded per-message factor.
//   - Stall detection: when a rank dies mid-collective its peers would
//     block forever. The event loop detects the stall exactly — its run
//     queue drains with ranks still parked (failStalled) — and the
//     survivors' blocking calls complete with a structured RankFailedError
//     instead of deadlocking.
//
// Every sample comes from faults.Uniform with per-rank operation counters
// that advance in program order, so a plan's virtual-time outcome is
// bit-identical across runs, across -parallel sweeps, and across
// fold-on/fold-off (faults break rank symmetry, so NewWorld closes the
// fold gate on a faulted world — both settings take the unfolded path).

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/faults"
	"repro/internal/vtime"
)

// Disjoint counter streams for the PRNG: noise draws are keyed by the
// rank's collective-invocation counter, jitter draws by its message
// counter. The high bits keep the streams from ever colliding.
const (
	noiseStream  uint64 = 1 << 62
	jitterStream uint64 = 2 << 62
)

// ErrProcFailed is the code carried by every RankFailedError, mirroring
// MPI_ERR_PROC_FAILED from the MPI fault-tolerance proposals.
const ErrProcFailed = "MPI_ERR_PROC_FAILED"

// RankKilledError is the terminal error of a rank killed by the fault
// plan: it is returned from the collective entry that tripped the kill
// rule and from every MPI call the rank makes afterwards.
type RankKilledError struct {
	// Rank is the killed rank.
	Rank int
	// Collective names the collective whose entry tripped the rule
	// ("barrier" for Barrier; empty for unlabeled vector collectives).
	Collective Collective
	// Invocation is the rank's collective-entry count at death (1-based).
	Invocation int
	// Time is the rank's virtual clock at death.
	Time vtime.Micros
}

// Error implements the error interface.
func (e *RankKilledError) Error() string {
	return fmt.Sprintf("mpi: rank %d killed by fault plan at %s (collective %q, invocation %d)",
		e.Rank, e.Time, e.Collective, e.Invocation)
}

// RankFailedError reports that a blocking operation on a surviving rank
// depended on a rank the fault plan killed. It is the simulator's
// MPI_ERR_PROC_FAILED: the collective (or point-to-point wait) completes
// with this error instead of deadlocking, and the survivor may keep using
// its Proc (every later call involving a dead peer fails the same way).
type RankFailedError struct {
	// Code is ErrProcFailed.
	Code string
	// Rank is the surviving rank observing the failure.
	Rank int
	// Failed lists the dead ranks, sorted ascending.
	Failed []int
	// Collective names the collective the survivor was blocked in, empty
	// when it was blocked in a point-to-point operation.
	Collective Collective
	// Step is the schedule step the survivor was blocked at, -1 outside a
	// collective schedule.
	Step int
	// Time is the survivor's virtual clock at the blocking point.
	Time vtime.Micros
}

// Error implements the error interface.
func (e *RankFailedError) Error() string {
	site := "point-to-point operation"
	if e.Collective != "" {
		site = fmt.Sprintf("collective %q step %d", e.Collective, e.Step)
	}
	return fmt.Sprintf("mpi: %s: rank %d blocked in %s at %s on failed rank(s) %v",
		e.Code, e.Rank, site, e.Time, e.Failed)
}

// BlockedRank describes one parked rank of a DeadlockError.
type BlockedRank struct {
	Rank int
	// Collective and Step locate a rank parked inside a collective
	// schedule; Step is -1 otherwise.
	Collective Collective
	Step       int
	// Op describes what the rank is waiting on ("recv from 3 tag 1048576",
	// "rendezvous send drain", ...).
	Op string
	// Time is the rank's virtual clock at the parking point.
	Time vtime.Micros
}

// DeadlockError is the event loop's structured no-progress diagnostic:
// the run queue drained with ranks still parked and no fault plan to blame,
// so the program itself deadlocked (unmatched receive, missing peer). It
// names every parked rank and its pending operation.
type DeadlockError struct {
	// Size is the world size.
	Size int
	// Blocked lists the parked ranks in rank order.
	Blocked []BlockedRank
}

// Error implements the error interface.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mpi: event engine deadlock: %d of %d ranks blocked with no pending events",
		len(e.Blocked), e.Size)
	for _, r := range e.Blocked {
		b.WriteString("\n  ")
		if r.Collective != "" || r.Step >= 0 {
			fmt.Fprintf(&b, "rank %d: collective %q step %d, %s, parked at %s",
				r.Rank, r.Collective, r.Step, r.Op, r.Time)
		} else {
			fmt.Fprintf(&b, "rank %d: %s, parked at %s", r.Rank, r.Op, r.Time)
		}
	}
	return b.String()
}

// recordDead registers a rank killed by the fault plan.
func (w *World) recordDead(rank int) {
	w.dead = append(w.dead, rank)
}

// deadSorted snapshots the dead ranks, sorted ascending.
func (w *World) deadSorted() []int {
	d := append([]int(nil), w.dead...)
	sort.Ints(d)
	return d
}

// resetFaultRun clears the per-Run failure state (worlds may Run more than
// once; kill counters live on the per-Run Procs and reset with them).
func (w *World) resetFaultRun() {
	w.dead = w.dead[:0]
	w.failedFlag.Store(false)
}

// faultCollEnter is the collective-entry fault hook, called exactly once
// per collective invocation (driveSched for blocking calls, collRequest for
// nonblocking ones; the schedule's faultEntered flag dedupes the Wait-side
// driveSched). It trips kill rules and charges the seeded straggler delay.
func (p *Proc) faultCollEnter(s *collSched) error {
	if p.failure != nil {
		return p.failure
	}
	w := p.world
	f := w.faults
	p.collInvoke++
	if len(f.Kills) > 0 {
		if p.killSeen == nil {
			p.killSeen = make([]int32, len(f.Kills))
		}
		for i := range f.Kills {
			k := &f.Kills[i]
			if k.Rank != p.rank {
				continue
			}
			if k.At >= 0 {
				if float64(p.clock.Now()) >= k.At {
					return p.kill(s)
				}
				continue
			}
			if k.Coll != "" && k.Coll != string(s.coll) {
				continue
			}
			p.killSeen[i]++
			if int(p.killSeen[i]) > k.After {
				return p.kill(s)
			}
		}
	}
	if f.NoiseSigma > 0 {
		u := faults.Uniform(f.Seed, uint64(p.rank), noiseStream+uint64(p.collInvoke))
		p.clock.Advance(vtime.Micros(f.NoiseSigma * 2 * u))
	}
	return nil
}

// kill marks this rank dead at the current collective entry.
func (p *Proc) kill(s *collSched) error {
	err := &RankKilledError{
		Rank: p.rank, Collective: s.coll, Invocation: p.collInvoke, Time: p.clock.Now(),
	}
	p.failure = err
	p.world.recordDead(p.rank)
	return err
}

// parkFailure records (and returns) the rank's point-to-point failure
// after a blocking wait was broken by a stall or by a cancel signal. driveSched enriches the error with the collective and step when
// the wait was a schedule's.
func (p *Proc) parkFailure() error {
	if p.failure == nil {
		if p.world.cancelRequested() {
			p.failure = p.cancelErr("", -1)
		} else {
			p.failure = &RankFailedError{
				Code: ErrProcFailed, Rank: p.rank, Failed: p.world.deadSorted(),
				Collective: "", Step: -1, Time: p.clock.Now(),
			}
		}
	}
	return p.failure
}

// failStalled is the event loop's stall resolution: the run queue
// drained with ranks still parked. When the fault plan has killed ranks,
// every parked survivor is failed — schedule-parked ranks get their
// RankFailedError through the schedule handoff (schedErr), coroutine-parked
// ranks through Proc.failure and their park-site failure checks — and
// re-queued so the loop can unwind them. Reports whether anything was
// woken; false means the stall is a genuine deadlock (or no fault plan is
// installed) and the caller reports it instead.
func (l *eventLoop) failStalled() bool {
	w := l.w
	if w.faults == nil {
		return false
	}
	failed := w.deadSorted()
	if len(failed) == 0 {
		return false
	}
	w.failedFlag.Store(true)
	woke := false
	for _, er := range l.ranks {
		if er.state != rankBlocked {
			continue
		}
		p := er.proc
		if s := er.sched; s != nil {
			er.schedErr = &RankFailedError{
				Code: ErrProcFailed, Rank: p.rank, Failed: failed,
				Collective: s.coll, Step: s.pc, Time: p.clock.Now(),
			}
			er.sched = nil
		} else if p.failure == nil {
			p.failure = &RankFailedError{
				Code: ErrProcFailed, Rank: p.rank, Failed: failed,
				Collective: "", Step: -1, Time: p.clock.Now(),
			}
		}
		// All parked ranks have driving == false at a top-level stall
		// (driveUntil clears it before its nested yield), so waking them
		// resumes each coroutine exactly once: nested driveUntil frames exit
		// their loop on sched == nil and surface schedErr; park sites return
		// into their callers' failure checks.
		er.state = rankRunnable
		er.wait = waitAny
		l.push(er)
		woke = true
	}
	return woke
}

// deadlockErr builds the structured no-progress diagnostic from the loop's
// final state.
func (l *eventLoop) deadlockErr() error {
	de := &DeadlockError{Size: l.w.size}
	for _, er := range l.ranks {
		if er.state == rankDone {
			continue
		}
		b := BlockedRank{Rank: er.proc.rank, Step: -1, Time: er.proc.clock.Now()}
		if s := er.sched; s != nil {
			b.Collective, b.Step = s.coll, s.pc
			b.Op = describeStep(s)
		} else {
			switch er.wait {
			case waitMsg:
				b.Op = fmt.Sprintf("recv from rank %d tag %d (ctx %d)",
					er.waitSrc, er.waitTag, er.waitCtx)
			case waitRdv:
				b.Op = "rendezvous send drain"
			case waitFold:
				b.Op = "fold gather"
			default:
				b.Op = "poll (Waitany)"
			}
		}
		de.Blocked = append(de.Blocked, b)
	}
	return de
}

// describeStep names the pending schedule step a parked rank cannot
// complete.
func describeStep(s *collSched) string {
	if s.pc >= len(s.steps) {
		return "completed schedule"
	}
	st := &s.steps[s.pc]
	switch st.op {
	case opRecv:
		return fmt.Sprintf("recv from rank %d", st.peer)
	case opExchange:
		if s.phase == 1 {
			return fmt.Sprintf("exchange recv from rank %d", st.peer)
		}
		return fmt.Sprintf("exchange drain to rank %d", st.sendPeer)
	case opPost:
		return fmt.Sprintf("post to rank %d", st.peer)
	case opSend:
		return fmt.Sprintf("send drain to rank %d", st.peer)
	case opWaitSend:
		return "send drain"
	default:
		return fmt.Sprintf("step op %d", st.op)
	}
}
