package choice

import "ses/internal/core"

// Ref wraps the Reference* functions in the Engine interface: every
// quantity is recomputed from the Eq. 1–4 definitions on demand, with
// no caching or incremental state beyond the schedule itself. It is
// the slowest implementation by a wide margin and exists so solvers
// and conformance tests can run against the oracle directly. An
// interval's value sums its events' ω under the default Omega
// objective (ReferenceIntervalUtility); other objectives fold the
// per-user interval terms through ReferenceIntervalValue. Totals sum
// the intervals in order, as Engine.Utility requires; the per-event
// ReferenceUtility stays the oracle they are tested against.
type Ref struct {
	objectiveHolder
	inst  *core.Instance
	sched *core.Schedule
}

// NewRef builds the oracle engine for inst with an empty schedule.
func NewRef(inst *core.Instance) *Ref {
	return &Ref{objectiveHolder: omegaHolder(), inst: inst, sched: core.NewSchedule(inst)}
}

// Instance returns the problem instance.
func (e *Ref) Instance() *core.Instance { return e.inst }

// Schedule returns the engine's schedule.
func (e *Ref) Schedule() *core.Schedule { return e.sched }

// Score computes the assignment score from the definitions. For
// linear objectives it is the per-user gain against competing and
// scheduled mass summed directly from the interest matrices (Eq. 4
// under Omega); nonlinear objectives re-fold the interval with the
// event's mass hypothetically added.
func (e *Ref) Score(event, t int) float64 {
	obj := e.Objective()
	if !obj.Linear() {
		before := ReferenceIntervalValue(e.inst, e.sched, t, obj)
		after := referenceIntervalValueWith(e.inst, e.sched, t, obj, event)
		return after - before
	}
	row := e.inst.CandInterest.Row(event)
	comps := e.inst.CompetingAt(t)
	scheduled := e.sched.EventsAt(t)
	sum := 0.0
	for i, id := range row.IDs {
		u := int(id)
		c := 0.0
		for _, ce := range comps {
			c += e.inst.CompInterest.Mu(u, ce)
		}
		p := 0.0
		for _, pe := range scheduled {
			p += e.inst.CandInterest.Mu(u, pe)
		}
		sum += obj.Gain(e.inst.Activity.Prob(u, t), row.Vals[i], c, p)
	}
	return sum
}

// ScoreBatch computes Score for every listed event at t.
func (e *Ref) ScoreBatch(events []int, t int, out []float64) {
	scoreBatchSerial(e, events, t, out)
}

// Apply assigns (event, t).
func (e *Ref) Apply(event, t int) error { return e.sched.Assign(event, t) }

// Unapply removes the event from the schedule.
func (e *Ref) Unapply(event int) error { return e.sched.Unassign(event) }

// Utility returns the objective's total value recomputed from the
// definitions (Ω(S), Eq. 3, under Omega).
func (e *Ref) Utility() float64 { return e.ValueOf(e.Objective()) }

// ValueOf returns the schedule's total value under obj (nil = Omega)
// without changing the engine's own objective.
func (e *Ref) ValueOf(obj Objective) float64 {
	if obj == nil {
		obj = Omega
	}
	sum := 0.0
	for t := 0; t < e.inst.NumIntervals; t++ {
		sum += e.intervalValue(t, obj)
	}
	return sum
}

// EventAttendance returns ω (Eq. 2) of a scheduled event.
func (e *Ref) EventAttendance(event int) float64 {
	return ReferenceEventAttendance(e.inst, e.sched, event)
}

// IntervalUtility returns the objective's value of interval t
// (Σ_{e∈Et} ω under Omega).
func (e *Ref) IntervalUtility(t int) float64 { return e.intervalValue(t, e.Objective()) }

// intervalValue is interval t's value under obj.
func (e *Ref) intervalValue(t int, obj Objective) float64 {
	if obj != Omega {
		return ReferenceIntervalValue(e.inst, e.sched, t, obj)
	}
	return ReferenceIntervalUtility(e.inst, e.sched, t)
}

// Reset empties the schedule; the oracle has no other state.
func (e *Ref) Reset() { e.sched.Reset() }

// Fork clones the schedule; the oracle has no other state.
func (e *Ref) Fork() Engine {
	return &Ref{objectiveHolder: e.objectiveHolder, inst: e.inst, sched: e.sched.Clone()}
}

var _ Engine = (*Ref)(nil)
