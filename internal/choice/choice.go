// Package choice implements the attendance model of the SES paper
// (Eq. 1–4): Luce's choice rule dividing a user's social-activity
// probability σ(u,t) among the events available during interval t —
// both the organizer's scheduled events Et(S) and the third-party
// competing events Ct — proportionally to the user's interest µ.
//
// What a schedule is *worth* is pluggable: every engine evaluates an
// Objective (Omega — the paper's expected attendance, the default;
// Attendance — the thresholded success-probability variant; Fairness —
// the egalitarian min-participant blend). The attendance model (the
// per-interval competing and scheduled mass the engines maintain) is
// objective-independent; the objective only changes how those masses
// fold into scores and values. See Objective.
//
// Four implementations are provided:
//
//   - The Reference* functions compute Eq. 1–4 directly from the
//     definitions with no caching. They are the oracle the engines are
//     tested against, and they are deliberately simple. Ref wraps them
//     in the Engine interface so solvers can run against the oracle.
//   - Dense is the paper-faithful engine: assignment scores are
//     computed with a loop over all |U| users exactly as Algorithm 1's
//     complexity analysis assumes. It is the baseline for the
//     sparse-vs-dense ablation benchmark.
//   - Sparse is the production engine: it exploits that a user with
//     µ(u,e) = 0 contributes nothing to the score of assigning e (their
//     Luce denominator does not change), so scores only iterate the
//     sparse interest row of the event. Competing interest mass is
//     pre-aggregated per interval into sorted vectors (a k-way merge
//     of the sorted competing rows); scheduled mass is maintained
//     incrementally in sorted accumulators so IntervalUtility and
//     EventAttendance are allocation-free merge-joins. Score and
//     ScoreBatch read one interval at a time through a dense per-user
//     view the engine keeps until that interval's mass changes, and
//     merge-join where moving the view would not pay (see Sparse).
//
// All implementations agree to floating-point accuracy; property tests
// enforce it.
package choice

import "ses/internal/core"

// Engine evaluates and incrementally maintains Eq. 1–4 over a growing
// schedule. Engines own their schedule; solvers drive them through
// Score/Apply.
//
// Engines are not safe for concurrent use. Score and ScoreBatch leave
// the schedule and every result unchanged, but they may write engine
// scratch (Sparse moves its dense view), so one engine serves one
// goroutine at a time: callers that score in parallel give each
// goroutine its own Fork (forks are cheap: they share all immutable
// per-instance state).
type Engine interface {
	// Instance returns the problem instance.
	Instance() *core.Instance
	// Schedule returns the engine's current schedule. Callers must not
	// mutate it directly; use Apply/Unapply.
	Schedule() *core.Schedule
	// Objective returns the objective the engine evaluates (Omega by
	// default).
	Objective() Objective
	// SetObjective switches the engine to obj (nil restores Omega).
	// The schedule and mass bookkeeping are objective-independent, so
	// switching is valid at any point; Score, Utility, IntervalUtility
	// and ValueOf reflect the new objective immediately. Forks inherit
	// the objective.
	SetObjective(obj Objective)
	// Score returns the assignment score of scheduling event e at
	// interval t: the gain in the objective's total value (for the
	// default Omega objective, Eq. 4's gain in Ω). The result is only
	// meaningful while e is unassigned.
	Score(e, t int) float64
	// ScoreBatch computes Score(events[i], t) into out[i] for every
	// listed event. It is equivalent (bit for bit) to calling Score in
	// a loop but lets engines hoist per-interval state, and it is the
	// unit of work the solver layer fans out across workers, one Fork
	// per worker. Like Score it may write engine scratch: Sparse reads
	// the batch through its dense per-user view of t under a linear
	// objective when the view holds t or the listed rows pay for
	// moving it there, and loops Score otherwise. out must have at
	// least len(events) elements.
	ScoreBatch(events []int, t int, out []float64)
	// Apply adds assignment (e, t), returning the schedule's validity
	// error if the assignment is not valid.
	Apply(e, t int) error
	// Unapply removes event e from the schedule.
	Unapply(e int) error
	// Utility returns the objective's total value of the current
	// schedule (Ω(S), Eq. 3, under the default Omega objective). It
	// is the sum of IntervalUtility(t) over increasing t, bit for
	// bit: the session layer keeps each interval's value across
	// resolves and sums the values instead of calling Utility.
	Utility() float64
	// ValueOf returns the total value of the current schedule under an
	// arbitrary objective (nil = Omega), without changing the engine's
	// own objective. Solvers use it to report Ω next to a non-default
	// objective's value; ValueOf(Objective()) == Utility().
	ValueOf(obj Objective) float64
	// EventAttendance returns ω (Eq. 2) of a scheduled event e, the
	// expected number of attendees. It is an objective-independent
	// reporting metric. Returns 0 for unassigned events.
	EventAttendance(e int) float64
	// IntervalUtility returns the objective's value of interval t
	// (Σ ω over events scheduled at t under Omega). It depends only on
	// t's competing mass, the interest rows applied at t and the order
	// they were applied in, σ and the objective, so two engines over
	// the same instance that applied the same events at t in the same
	// order return the same bits for t, whatever else they hold.
	IntervalUtility(t int) float64
	// Fork returns an independent copy of the engine sharing the
	// immutable per-instance state (competing mass, interest). Applying
	// assignments to the fork does not affect the original. Parallel
	// initial scoring gives each worker its own fork.
	Fork() Engine
}

// Reuser is implemented by engines that can return to an empty
// schedule in place, keeping their allocated storage (schedule
// backing arrays, mass accumulators, scratch buffers) warm across
// solves. Reset assumes the instance's events, competing events and
// interest matrices are the ones the engine was built against (or
// last patched to, see Patcher); callers that mutated any of those
// must patch or rebuild the engine first. The session layer
// (ses.Scheduler) resets between re-solves; after structural
// mutations it patches an engine that is a Patcher and rebuilds any
// other.
type Reuser interface {
	Reset()
}

// Patcher is implemented by engines that can absorb instance
// mutations in place instead of being rebuilt. The instance the
// engine was built over has grown or changed under it: events is the
// set of events appended or given a new interest row, intervals the
// set of intervals that gained competing events. Patch brings every
// structure derived from those parts up to date from the instance
// itself, so patching twice with the same (or a larger) set is the
// same as patching once. It leaves the schedule to the caller, who
// Resets before solving again.
type Patcher interface {
	Patch(events, intervals map[int]bool)
}

// FillRoundRobin applies valid assignments in a fixed deterministic
// pattern — events in order, intervals round-robin, skipping invalid
// pairs — until max events are scheduled or the events are exhausted.
// It exists so tests, benchmarks and the sesbench engine-ablation
// harness load engines with the exact same non-trivial schedule.
func FillRoundRobin(e Engine, max int) error {
	inst := e.Instance()
	t := 0
	for ev := 0; ev < inst.NumEvents() && e.Schedule().Size() < max; ev++ {
		for tries := 0; tries < inst.NumIntervals; tries++ {
			tt := (t + tries) % inst.NumIntervals
			if e.Schedule().IsValid(ev, tt) {
				if err := e.Apply(ev, tt); err != nil {
					return err
				}
				t = tt + 1
				break
			}
		}
	}
	return nil
}

// scoreBatchSerial is the fallback ScoreBatch: a plain Score loop.
func scoreBatchSerial(e Engine, events []int, t int, out []float64) {
	for i, ev := range events {
		out[i] = e.Score(ev, t)
	}
}

// luceGain is the per-user term of Eq. 4: the change in
// σ · P/(C+P) when mass mu joins scheduled mass p against competing
// mass c. Shared by both engines so they agree bit-for-bit.
func luceGain(sigma, mu, c, p float64) float64 {
	if mu == 0 || sigma == 0 {
		return 0
	}
	newTerm := (p + mu) / (c + p + mu)
	oldTerm := 0.0
	if p > 0 {
		oldTerm = p / (c + p)
	}
	return sigma * (newTerm - oldTerm)
}

// luceShare is the per-user per-interval total attendance mass
// σ · P/(C+P), i.e. the contribution of one user to Σ_{e∈Et} ω.
func luceShare(sigma, c, p float64) float64 {
	if p <= 0 || sigma == 0 {
		return 0
	}
	return sigma * p / (c + p)
}
