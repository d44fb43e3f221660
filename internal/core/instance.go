// Package core defines the Social Event Scheduling (SES) problem model
// from Section II of Bikakis, Kalogeraki, Gunopulos: "Social Event
// Scheduling", ICDE 2018 — organizers with limited resources, disjoint
// candidate time intervals, candidate events with locations and
// resource requirements, third-party competing events pinned to
// intervals, and users with interest (µ) and social-activity (σ)
// profiles — plus the schedule representation and its feasibility
// rules (location and resource constraints).
//
// The attendance model (Eq. 1–4) lives in ses/internal/choice; the
// algorithms (GRD and baselines) in ses/internal/solver.
package core

import (
	"errors"
	"fmt"

	"ses/internal/interest"
)

// Unassigned marks an event that is not part of the schedule.
const Unassigned = -1

// Event is a candidate event e ∈ E: the organizer may schedule it at
// any interval, at its fixed location ℓe, consuming ξe resources.
type Event struct {
	// Location identifies the place (e.g. a stage) hosting the event.
	// Two events with the same Location cannot share an interval.
	Location int
	// Required is ξe, the amount of organizer resources the event
	// consumes during its interval. Must be >= 0.
	Required float64
	// Name is an optional human-readable label used by examples and
	// CLIs; the algorithms ignore it.
	Name string
}

// CompetingEvent is a third-party event c ∈ C already scheduled at
// interval Interval; it drains attendance from candidate events
// scheduled there but is not under the organizer's control.
type CompetingEvent struct {
	// Interval is tc, the time interval the competing event occupies.
	Interval int
	// Name is an optional label.
	Name string
}

// Activity models σ : U × T → [0,1], the probability that a user
// participates in any social activity during an interval. The paper's
// experiments draw it from U(0,1); implementations live in
// ses/internal/activity.
type Activity interface {
	// Prob returns σ(user, interval) ∈ [0,1].
	Prob(user, interval int) float64
}

// shapedActivity is implemented by activity models that hold σ for a
// fixed grid of users and intervals (an explicit table). Validate asks
// them to confirm the grid covers the instance.
type shapedActivity interface {
	CheckShape(numUsers, numIntervals int) error
}

// Instance is a complete SES problem instance.
type Instance struct {
	// NumUsers is |U|. Users are identified by 0..NumUsers-1.
	NumUsers int
	// NumIntervals is |T|. Intervals are identified by 0..NumIntervals-1
	// and are disjoint time periods by definition.
	NumIntervals int
	// Resources is θ, the organizer resources available per interval.
	Resources float64
	// Events are the candidate events E.
	Events []Event
	// Competing are the competing events C.
	Competing []CompetingEvent
	// CandInterest holds µ(u, e) for candidate events (row = event).
	CandInterest *interest.Matrix
	// CompInterest holds µ(u, c) for competing events (row = event).
	CompInterest *interest.Matrix
	// Activity is the σ model.
	Activity Activity
}

// NumEvents returns |E|.
func (in *Instance) NumEvents() int { return len(in.Events) }

// NumCompeting returns |C|.
func (in *Instance) NumCompeting() int { return len(in.Competing) }

// CompetingAt returns the indices of competing events pinned to t
// (Ct in the paper's notation).
func (in *Instance) CompetingAt(t int) []int {
	var out []int
	for i, c := range in.Competing {
		if c.Interval == t {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks the structural invariants of the instance: positive
// dimensions, locations and required resources in range, competing
// events pinned to existing intervals, interest matrices with
// matching shapes and user ids in [0, NumUsers), and an explicit σ
// table that covers every user and interval. Solvers call it once up
// front so that the hot paths can assume a well-formed instance (the
// engines index σ tables and per-user views by user id).
func (in *Instance) Validate() error {
	if in.NumUsers <= 0 {
		return fmt.Errorf("core: instance needs at least one user, got %d", in.NumUsers)
	}
	if in.NumIntervals <= 0 {
		return fmt.Errorf("core: instance needs at least one interval, got %d", in.NumIntervals)
	}
	if in.Resources < 0 {
		return fmt.Errorf("core: negative organizer resources %v", in.Resources)
	}
	for i, e := range in.Events {
		if e.Location < 0 {
			return fmt.Errorf("core: event %d has negative location %d", i, e.Location)
		}
		if e.Required < 0 {
			return fmt.Errorf("core: event %d has negative required resources %v", i, e.Required)
		}
	}
	for i, c := range in.Competing {
		if c.Interval < 0 || c.Interval >= in.NumIntervals {
			return fmt.Errorf("core: competing event %d pinned to interval %d outside [0,%d)",
				i, c.Interval, in.NumIntervals)
		}
	}
	if in.CandInterest == nil || in.CompInterest == nil {
		return errors.New("core: instance is missing interest matrices")
	}
	if got := in.CandInterest.NumEvents(); got != len(in.Events) {
		return fmt.Errorf("core: candidate interest matrix has %d rows for %d events", got, len(in.Events))
	}
	if got := in.CompInterest.NumEvents(); got != len(in.Competing) {
		return fmt.Errorf("core: competing interest matrix has %d rows for %d events", got, len(in.Competing))
	}
	if in.CandInterest.NumUsers != in.NumUsers || in.CompInterest.NumUsers != in.NumUsers {
		return fmt.Errorf("core: interest matrices sized for %d/%d users, instance has %d",
			in.CandInterest.NumUsers, in.CompInterest.NumUsers, in.NumUsers)
	}
	if err := in.CandInterest.Validate(); err != nil {
		return fmt.Errorf("core: candidate interest: %w", err)
	}
	if err := in.CompInterest.Validate(); err != nil {
		return fmt.Errorf("core: competing interest: %w", err)
	}
	if in.Activity == nil {
		return errors.New("core: instance is missing an activity model")
	}
	if g, ok := in.Activity.(shapedActivity); ok {
		if err := g.CheckShape(in.NumUsers, in.NumIntervals); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}
