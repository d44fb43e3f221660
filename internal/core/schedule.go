package core

import (
	"errors"
	"fmt"
	"sort"
)

// Assignment is αte: candidate event Event scheduled at interval
// Interval.
type Assignment struct {
	Event    int
	Interval int
}

// Sentinel errors returned by Schedule mutation methods. They make the
// three validity conditions of the paper individually observable:
// an assignment is *valid* iff the event is unassigned (ErrEventAssigned),
// no location conflict arises (ErrLocationConflict), and the interval's
// resource budget is respected (ErrResources).
var (
	ErrEventAssigned    = errors.New("event already assigned")
	ErrLocationConflict = errors.New("location already occupied in interval")
	ErrResources        = errors.New("interval resource budget exceeded")
	ErrEventRange       = errors.New("event index out of range")
	ErrIntervalRange    = errors.New("interval index out of range")
	ErrNotAssigned      = errors.New("event not assigned")
)

// Schedule is a feasible partial schedule S: a set of assignments with
// at most one interval per event, maintained together with the
// per-interval location occupancy and resource usage needed to answer
// validity queries in O(1).
type Schedule struct {
	inst       *Instance
	byEvent    []int   // event -> interval, or Unassigned
	byInterval [][]int // interval -> events in assignment order
	usedRes    []float64
	locUse     []map[int]int // interval -> location -> event
	size       int
}

// NewSchedule returns an empty schedule for the instance.
func NewSchedule(inst *Instance) *Schedule {
	s := &Schedule{
		inst:       inst,
		byEvent:    make([]int, len(inst.Events)),
		byInterval: make([][]int, inst.NumIntervals),
		usedRes:    make([]float64, inst.NumIntervals),
		locUse:     make([]map[int]int, inst.NumIntervals),
	}
	for i := range s.byEvent {
		s.byEvent[i] = Unassigned
	}
	return s
}

// Instance returns the instance this schedule belongs to.
func (s *Schedule) Instance() *Instance { return s.inst }

// Size returns |S|, the number of assignments.
func (s *Schedule) Size() int { return s.size }

// IntervalOf returns the interval event e is assigned to, or
// Unassigned.
func (s *Schedule) IntervalOf(e int) int { return s.byEvent[e] }

// Contains reports whether e ∈ E(S).
func (s *Schedule) Contains(e int) bool { return s.byEvent[e] != Unassigned }

// EventsAt returns Et(S), the events assigned to interval t, in
// assignment order. The returned slice must not be modified.
func (s *Schedule) EventsAt(t int) []int { return s.byInterval[t] }

// UsedResources returns Σ ξe over events assigned to t.
func (s *Schedule) UsedResources(t int) float64 { return s.usedRes[t] }

// checkRange validates indices.
func (s *Schedule) checkRange(e, t int) error {
	if e < 0 || e >= len(s.byEvent) {
		return fmt.Errorf("%w: %d", ErrEventRange, e)
	}
	if t < 0 || t >= len(s.byInterval) {
		return fmt.Errorf("%w: %d", ErrIntervalRange, t)
	}
	return nil
}

// Validity reports why assignment (e, t) is not valid, or nil if it
// is. This realizes the paper's definition: feasible (location +
// resource constraints hold after adding e to t) and e ∉ E(S).
func (s *Schedule) Validity(e, t int) error {
	if err := s.checkRange(e, t); err != nil {
		return err
	}
	if s.byEvent[e] != Unassigned {
		return fmt.Errorf("%w: event %d at interval %d", ErrEventAssigned, e, s.byEvent[e])
	}
	ev := s.inst.Events[e]
	if lu := s.locUse[t]; lu != nil {
		if other, taken := lu[ev.Location]; taken {
			return fmt.Errorf("%w: location %d held by event %d", ErrLocationConflict, ev.Location, other)
		}
	}
	if s.usedRes[t]+ev.Required > s.inst.Resources+resourceEps {
		return fmt.Errorf("%w: used %v + required %v > budget %v",
			ErrResources, s.usedRes[t], ev.Required, s.inst.Resources)
	}
	return nil
}

// resourceEps guards the resource comparison against floating-point
// round-off when many ξe values accumulate.
const resourceEps = 1e-9

// IsValid reports whether assignment (e, t) is valid: the three
// conditions of Validity, checked without building an error, so the
// selection loops can test every list entry without allocating.
func (s *Schedule) IsValid(e, t int) bool {
	if e < 0 || e >= len(s.byEvent) || t < 0 || t >= len(s.byInterval) || s.byEvent[e] != Unassigned {
		return false
	}
	ev := &s.inst.Events[e]
	if _, taken := s.locUse[t][ev.Location]; taken {
		return false
	}
	return !(s.usedRes[t]+ev.Required > s.inst.Resources+resourceEps)
}

// Grow extends the schedule to the events appended to its instance
// since it was built, each unassigned; existing assignments are kept.
// Growing an up-to-date schedule is a no-op.
func (s *Schedule) Grow() {
	for len(s.byEvent) < len(s.inst.Events) {
		s.byEvent = append(s.byEvent, Unassigned)
	}
}

// Assign adds assignment (e, t) after checking validity.
func (s *Schedule) Assign(e, t int) error {
	if err := s.Validity(e, t); err != nil {
		return err
	}
	s.byEvent[e] = t
	s.byInterval[t] = append(s.byInterval[t], e)
	s.usedRes[t] += s.inst.Events[e].Required
	if s.locUse[t] == nil {
		s.locUse[t] = make(map[int]int)
	}
	s.locUse[t][s.inst.Events[e].Location] = e
	s.size++
	return nil
}

// Unassign removes event e from the schedule (used by the engines'
// Unapply, which local search and the exact search call).
func (s *Schedule) Unassign(e int) error {
	if e < 0 || e >= len(s.byEvent) {
		return fmt.Errorf("%w: %d", ErrEventRange, e)
	}
	t := s.byEvent[e]
	if t == Unassigned {
		return fmt.Errorf("%w: event %d", ErrNotAssigned, e)
	}
	s.byEvent[e] = Unassigned
	evs := s.byInterval[t]
	for i, other := range evs {
		if other == e {
			s.byInterval[t] = append(evs[:i], evs[i+1:]...)
			break
		}
	}
	s.usedRes[t] -= s.inst.Events[e].Required
	if s.usedRes[t] < 0 {
		s.usedRes[t] = 0
	}
	delete(s.locUse[t], s.inst.Events[e].Location)
	s.size--
	return nil
}

// Reset empties the schedule in place, keeping the allocated
// per-interval storage (event lists, location maps) warm for the next
// fill. Session-style callers that re-solve against the same instance
// use it to avoid reallocating schedules between solves.
func (s *Schedule) Reset() {
	for e := range s.byEvent {
		s.byEvent[e] = Unassigned
	}
	for t := range s.byInterval {
		s.byInterval[t] = s.byInterval[t][:0]
		s.usedRes[t] = 0
		clear(s.locUse[t])
	}
	s.size = 0
}

// Assignments returns the schedule as a sorted (by event) slice of
// assignments.
func (s *Schedule) Assignments() []Assignment {
	out := make([]Assignment, 0, s.size)
	for e, t := range s.byEvent {
		if t != Unassigned {
			out = append(out, Assignment{Event: e, Interval: t})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Event < out[j].Event })
	return out
}

// Clone returns a deep copy sharing the (immutable) instance.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{
		inst:       s.inst,
		byEvent:    append([]int(nil), s.byEvent...),
		byInterval: make([][]int, len(s.byInterval)),
		usedRes:    append([]float64(nil), s.usedRes...),
		locUse:     make([]map[int]int, len(s.locUse)),
		size:       s.size,
	}
	for t, evs := range s.byInterval {
		if len(evs) > 0 {
			c.byInterval[t] = append([]int(nil), evs...)
		}
	}
	for t, lu := range s.locUse {
		if lu != nil {
			m := make(map[int]int, len(lu))
			for k, v := range lu {
				m[k] = v
			}
			c.locUse[t] = m
		}
	}
	return c
}

// CheckFeasible re-derives all feasibility state from scratch and
// verifies the schedule satisfies the location and resource
// constraints. It is O(|S| + |T|) and intended for tests and
// post-solver validation rather than hot paths.
func (s *Schedule) CheckFeasible() error {
	for t := 0; t < s.inst.NumIntervals; t++ {
		locSeen := make(map[int]int)
		res := 0.0
		for _, e := range s.byInterval[t] {
			ev := s.inst.Events[e]
			if other, dup := locSeen[ev.Location]; dup {
				return fmt.Errorf("interval %d: %w (events %d and %d)", t, ErrLocationConflict, other, e)
			}
			locSeen[ev.Location] = e
			res += ev.Required
			if s.byEvent[e] != t {
				return fmt.Errorf("interval %d: event %d index inconsistency", t, e)
			}
		}
		if res > s.inst.Resources+resourceEps {
			return fmt.Errorf("interval %d: %w (%v > %v)", t, ErrResources, res, s.inst.Resources)
		}
	}
	n := 0
	for _, t := range s.byEvent {
		if t != Unassigned {
			n++
		}
	}
	if n != s.size {
		return fmt.Errorf("schedule size %d inconsistent with %d assigned events", s.size, n)
	}
	return nil
}
