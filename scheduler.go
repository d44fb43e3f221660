package ses

import (
	"ses/internal/session"
)

// Scheduler is a long-lived scheduling session: it owns a private
// copy of an instance plus a warm choice engine, absorbs portfolio
// mutations, and re-solves incrementally.
//
//	sched, _ := ses.NewScheduler(inst, 20, ses.WithWorkers(8))
//	delta, _ := sched.Resolve(ctx)              // full solve
//	id, _ := sched.AddEvent(ev, interest)       // organizer adds a show
//	sched.Pin(headliner, fridayNight)           // contract says Friday
//	delta, _ = sched.Resolve(ctx)               // incremental repair
//
// Mutations invalidate a precise slice of the cached initial-score
// matrix (AddEvent/UpdateInterest: one event row; AddCompeting: one
// interval column; CancelEvent/Pin/Forbid: nothing), so Resolve
// recomputes only that slice and still returns exactly the schedule
// from-scratch GRD would produce on the mutated instance —
// equivalence the test suite enforces. Resolve honors its context:
// cancellation aborts without committing, a deadline commits the
// feasible best-so-far with Delta.Stopped set.
type Scheduler = session.Scheduler

// Delta reports how one Resolve changed the schedule: assignments
// added, removed and moved, the new utility, the early-stop reason
// (if any) and the work counters of that resolve.
type Delta = session.Delta

// Move records one event that changed interval between two resolves.
type Move = session.Move

// NewScheduler starts a scheduling session over a private copy of
// inst, targeting schedules of up to k events. The same functional
// options as New apply (workers, objective, progress).
func NewScheduler(inst *Instance, k int, opts ...Option) (*Scheduler, error) {
	c := resolve(opts)
	return session.New(inst, k, c.sessionOptions())
}
