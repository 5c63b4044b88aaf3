package mpi

// Cancellation: RunContext arms a world so an external context can stop a
// run mid-flight — deadline expiry, a client disconnect, an operator's
// SIGTERM — through the same structured-error path the fault layer built.
// The discipline mirrors fault.go's: nothing ever os.Exits or leaks, every
// rank unwinds by returning a CanceledError from its current blocking
// operation, and the world (with all its cross-run slab pools, coroutine
// workers and compiled-schedule caches) remains fully reusable afterwards.
//
// The whole world runs on one goroutine, so a watcher goroutine only
// latches a flag; the loop polls it itself — every cancelPollMask+1
// dequeued events (driveUntil) — and fails the parked ranks exactly the
// way failStalled does, schedule handoffs through schedErr and coroutine
// parks through Proc.failure. Runnable ranks hit the flag at their next
// collective entry or park.
//
// Error sites are made deterministic where determinism is possible: a
// context canceled *before* the run starts fails every rank at its first
// collective entry (cancelEnter, called from driveSched and collRequest),
// so serial and parallel runs of a pre-canceled sweep report bit-identical
// failures. A mid-run cancel is inherently a real-time event; only
// promptness is guaranteed then.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/vtime"
)

// CanceledError reports that a run was stopped by its context: the blocking
// operation (or collective entry) the rank was at completes with this error
// instead of running to the end. It unwraps to the context's cause, so
// errors.Is(err, context.DeadlineExceeded) distinguishes a timeout from an
// explicit cancel.
type CanceledError struct {
	// Rank is the rank observing the cancellation.
	Rank int
	// Cause is the canceling context's cause (context.Canceled,
	// context.DeadlineExceeded, or a custom cause).
	Cause error
	// Collective names the collective the rank was in, empty outside one.
	Collective Collective
	// Step is the schedule step the rank was at, -1 outside a collective
	// schedule.
	Step int
	// Time is the rank's virtual clock at the cancellation point.
	Time vtime.Micros
}

// Error implements the error interface.
func (e *CanceledError) Error() string {
	reason := "canceled"
	if e.Timeout() {
		reason = "timeout"
	}
	site := "point-to-point operation"
	if e.Collective != "" {
		site = fmt.Sprintf("collective %q step %d", e.Collective, e.Step)
	}
	return fmt.Sprintf("mpi: %s: rank %d stopped in %s at %s: %v",
		reason, e.Rank, site, e.Time, e.Cause)
}

// Unwrap exposes the context cause.
func (e *CanceledError) Unwrap() error { return e.Cause }

// Timeout reports whether the cancellation was a deadline expiry.
func (e *CanceledError) Timeout() bool { return errors.Is(e.Cause, context.DeadlineExceeded) }

// cancelPollMask sets how often the event loop re-checks the cancel flag:
// every 256 dequeued events, cheap enough to vanish from the profile and
// frequent enough to stop a huge-world sweep within single-digit
// milliseconds.
const cancelPollMask = 255

// RunContext is Run with cancellation: when ctx is canceled (or its
// deadline expires) every rank's current blocking operation returns a
// CanceledError and the run unwinds through the normal error path, leaving
// the world reusable. A context that can never be canceled delegates to
// Run at zero cost.
func (w *World) RunContext(ctx context.Context, body func(p *Proc) error) error {
	if ctx.Done() == nil {
		return w.Run(body)
	}
	w.armCancel()
	if ctx.Err() != nil {
		// Already canceled: latch synchronously before any rank exists, so
		// every rank deterministically fails at its first collective entry
		// (cancelEnter) instead of racing the watcher goroutine's wakeup.
		w.cancelNow(context.Cause(ctx))
		err := w.Run(body)
		w.disarmCancel()
		return err
	}
	stop := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			w.cancelNow(context.Cause(ctx))
		case <-stop:
		}
	}()
	err := w.Run(body)
	close(stop)
	<-watcherDone
	w.disarmCancel()
	return err
}

// armCancel resets the per-run cancel state. Called from the Run goroutine
// before any rank exists, so plain writes are safe.
func (w *World) armCancel() {
	w.cancelOn = true
	w.cancelCause = nil
	w.cancelFlag.Store(false)
}

// disarmCancel returns the world to the uncancellable steady state after
// the run (and the watcher) have fully stopped.
func (w *World) disarmCancel() {
	w.cancelOn = false
	if w.faults == nil {
		// cancelNow latches failedFlag to reuse the fault layer's
		// drain-skipping paths; a fault plan resets it per Run itself.
		w.failedFlag.Store(false)
	}
}

// cancelRequested reports whether a cancel signal has latched. One atomic
// load when the world is armed; a plain false otherwise.
func (w *World) cancelRequested() bool {
	return w.cancelOn && w.cancelFlag.Load()
}

// cancelNow latches the cancel signal; the event loop polls it. It runs on
// the watcher goroutine: cancelCause is written before the flag's release
// store, so a loop that observes the flag also observes the cause.
func (w *World) cancelNow(cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	w.cancelCause = cause
	w.failedFlag.Store(true)
	w.cancelFlag.Store(true)
}

// cancelErr builds this rank's CanceledError at its current virtual time.
func (p *Proc) cancelErr(coll Collective, step int) *CanceledError {
	return &CanceledError{
		Rank: p.rank, Cause: p.world.cancelCause,
		Collective: coll, Step: step, Time: p.clock.Now(),
	}
}

// cancelEnter is the collective-entry cancellation checkpoint (driveSched
// and collRequest call it before doing anything). It is the canonical
// deterministic cancel site: a context canceled before the run starts stops
// every rank here, at its first collective, with schedule-independent
// state. Returns nil when no cancellation is pending.
func (p *Proc) cancelEnter(coll Collective) error {
	if !p.world.cancelOn {
		return nil
	}
	if p.failure != nil {
		return p.failure
	}
	if p.world.cancelFlag.Load() {
		p.failure = p.cancelErr(coll, 0)
		return p.failure
	}
	return nil
}

// failCanceled is the event loop's cancel resolution, the cancellation
// twin of failStalled: every parked rank is failed — schedule handoffs
// through schedErr, coroutine parks through Proc.failure — and re-queued so
// the loop unwinds them through the normal error path (which is what keeps
// the slab pools, coroutine workers and schedule store reusable). Runnable
// ranks are left alone: they reach cancelEnter or a park-site failure check
// on their own. Reports whether anything was woken.
func (l *eventLoop) failCanceled() bool {
	w := l.w
	if !w.cancelRequested() {
		return false
	}
	// Release a partial fold gather first: its joiners fall back to per-rank
	// execution and park at a site the loop below (or a later pass) can
	// fail. Without this, waitFold ranks would be unreachable — only the
	// fold resolver may wake them. A release counts as progress: the woken
	// joiners are runnable and the caller must keep driving.
	woke := l.releaseFoldStalled()
	for _, er := range l.ranks {
		if er.state != rankBlocked || er.wait == waitFold {
			continue
		}
		p := er.proc
		if s := er.sched; s != nil {
			er.schedErr = p.cancelErr(s.coll, s.pc)
			er.sched = nil
		} else if p.failure == nil {
			p.failure = p.cancelErr("", -1)
		}
		er.state = rankRunnable
		er.wait = waitAny
		l.push(er)
		woke = true
	}
	return woke
}
