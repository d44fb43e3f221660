package core

import (
	"testing"
	"testing/quick"
)

// TestScheduleRandomOperationSequences drives a schedule with random
// Assign/Unassign sequences and checks that the incrementally
// maintained state always agrees with the from-scratch feasibility
// audit — the property local search and the exact search rely on.
func TestScheduleRandomOperationSequences(t *testing.T) {
	in := tinyInstance()
	// Widen the instance so sequences are interesting: 8 events over
	// 3 locations, 3 intervals, θ = 12.
	in.NumIntervals = 3
	in.Resources = 12
	in.Events = []Event{
		{Location: 0, Required: 4}, {Location: 0, Required: 3},
		{Location: 1, Required: 5}, {Location: 1, Required: 2},
		{Location: 2, Required: 6}, {Location: 2, Required: 1},
		{Location: 0, Required: 2}, {Location: 1, Required: 4},
	}
	// Interest matrices need matching shapes for Validate; the
	// schedule itself never touches them, so reuse by rebuilding.
	f := func(ops []uint16) bool {
		s := NewSchedule(in)
		assigned := map[int]bool{}
		for _, op := range ops {
			e := int(op) % len(in.Events)
			ti := int(op>>4) % in.NumIntervals
			if op&1 == 0 || !assigned[e] {
				if s.Assign(e, ti) == nil {
					assigned[e] = true
				}
			} else {
				if s.Unassign(e) == nil {
					delete(assigned, e)
				}
			}
			if s.CheckFeasible() != nil {
				return false
			}
			if s.Size() != len(assigned) {
				return false
			}
			for e := range in.Events {
				for ti := 0; ti < in.NumIntervals; ti++ {
					if s.IsValid(e, ti) != (s.Validity(e, ti) == nil) {
						return false
					}
				}
			}
		}
		// Every event the model says is assigned must be found at its
		// interval, and vice versa.
		for e := range in.Events {
			if assigned[e] != s.Contains(e) {
				return false
			}
			if s.Contains(e) {
				found := false
				for _, x := range s.EventsAt(s.IntervalOf(e)) {
					if x == e {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestScheduleResourceEpsilonTolerance(t *testing.T) {
	// Many small ξ values that sum exactly to θ must fit despite
	// floating-point accumulation.
	in := tinyInstance()
	in.NumIntervals = 1
	in.Resources = 1.0
	in.Events = nil
	for i := 0; i < 10; i++ {
		in.Events = append(in.Events, Event{Location: i, Required: 0.1})
	}
	s := NewSchedule(in)
	for e := range in.Events {
		if err := s.Assign(e, 0); err != nil {
			t.Fatalf("event %d: 10 × 0.1 should fit in θ=1: %v", e, err)
		}
	}
	if err := s.CheckFeasible(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroResourceEventsAlwaysFitBudget(t *testing.T) {
	in := tinyInstance()
	in.NumIntervals = 1
	in.Resources = 0
	in.Events = []Event{{Location: 0, Required: 0}, {Location: 1, Required: 0}}
	s := NewSchedule(in)
	if err := s.Assign(0, 0); err != nil {
		t.Fatalf("zero-cost event rejected at θ=0: %v", err)
	}
	if err := s.Assign(1, 0); err != nil {
		t.Fatalf("second zero-cost event rejected: %v", err)
	}
}
