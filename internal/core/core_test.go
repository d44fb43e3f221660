package core

import (
	"errors"
	"testing"

	"ses/internal/interest"
)

type constActivity float64

func (c constActivity) Prob(u, t int) float64 { return float64(c) }

// shapedConst is a constant σ that holds only users×intervals cells,
// like an explicit table.
type shapedConst struct{ users, intervals int }

func (s shapedConst) Prob(u, t int) float64 { return 1 }

func (s shapedConst) CheckShape(users, intervals int) error {
	if users > s.users || intervals > s.intervals {
		return errors.New("short table")
	}
	return nil
}

// tinyInstance: 4 events, 2 intervals, 3 users, 1 competing event.
// Locations: e0,e1 share location 0; e2 at 1; e3 at 2.
// Resources: θ=10; ξ = {4, 4, 5, 8}.
func tinyInstance() *Instance {
	cand := interest.NewMatrix(3, 4)
	mustRow := func(ids []int32, vals []float64) interest.SparseVector {
		v, err := interest.NewSparseVector(ids, vals)
		if err != nil {
			panic(err)
		}
		return v
	}
	cand.SetRow(0, mustRow([]int32{0, 1}, []float64{0.5, 0.2}))
	cand.SetRow(1, mustRow([]int32{1}, []float64{0.9}))
	cand.SetRow(2, mustRow([]int32{0, 2}, []float64{0.3, 0.6}))
	cand.SetRow(3, mustRow([]int32{2}, []float64{0.4}))
	comp := interest.NewMatrix(3, 1)
	comp.SetRow(0, mustRow([]int32{0, 1, 2}, []float64{0.1, 0.2, 0.3}))
	return &Instance{
		NumUsers:     3,
		NumIntervals: 2,
		Resources:    10,
		Events: []Event{
			{Location: 0, Required: 4, Name: "e0"},
			{Location: 0, Required: 4, Name: "e1"},
			{Location: 1, Required: 5, Name: "e2"},
			{Location: 2, Required: 8, Name: "e3"},
		},
		Competing:    []CompetingEvent{{Interval: 0, Name: "c0"}},
		CandInterest: cand,
		CompInterest: comp,
		Activity:     constActivity(1),
	}
}

func TestInstanceValidateAccepts(t *testing.T) {
	if err := tinyInstance().Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestInstanceValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
	}{
		{"no users", func(in *Instance) { in.NumUsers = 0 }},
		{"no intervals", func(in *Instance) { in.NumIntervals = 0 }},
		{"negative resources", func(in *Instance) { in.Resources = -1 }},
		{"negative location", func(in *Instance) { in.Events[0].Location = -2 }},
		{"negative required", func(in *Instance) { in.Events[1].Required = -0.5 }},
		{"competing out of range", func(in *Instance) { in.Competing[0].Interval = 9 }},
		{"nil cand matrix", func(in *Instance) { in.CandInterest = nil }},
		{"nil comp matrix", func(in *Instance) { in.CompInterest = nil }},
		{"cand rows mismatch", func(in *Instance) { in.CandInterest = interest.NewMatrix(3, 2) }},
		{"comp rows mismatch", func(in *Instance) { in.CompInterest = interest.NewMatrix(3, 5) }},
		{"user dim mismatch", func(in *Instance) { in.CandInterest = interest.NewMatrix(7, 4) }},
		{"nil activity", func(in *Instance) { in.Activity = nil }},
		{"negative user id", func(in *Instance) {
			in.CandInterest.SetRow(1, interest.SparseVector{IDs: []int32{-7, 1}, Vals: []float64{0.5, 0.5}})
		}},
		{"short activity table", func(in *Instance) { in.Activity = shapedConst{users: 1, intervals: 2} }},
	}
	for _, c := range cases {
		in := tinyInstance()
		c.mutate(in)
		if in.Validate() == nil {
			t.Errorf("%s: Validate accepted a broken instance", c.name)
		}
	}
}

func TestCompetingAt(t *testing.T) {
	in := tinyInstance()
	in.Competing = append(in.Competing, CompetingEvent{Interval: 1}, CompetingEvent{Interval: 0})
	if got := in.CompetingAt(0); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("CompetingAt(0) = %v", got)
	}
	if got := in.CompetingAt(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("CompetingAt(1) = %v", got)
	}
}

func TestScheduleAssignBasics(t *testing.T) {
	in := tinyInstance()
	s := NewSchedule(in)
	if s.Size() != 0 {
		t.Fatal("fresh schedule not empty")
	}
	if err := s.Assign(0, 0); err != nil {
		t.Fatalf("Assign(0,0): %v", err)
	}
	if !s.Contains(0) || s.IntervalOf(0) != 0 || s.Size() != 1 {
		t.Fatal("assignment not recorded")
	}
	if got := s.EventsAt(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("EventsAt(0) = %v", got)
	}
	if s.UsedResources(0) != 4 {
		t.Fatalf("UsedResources = %v", s.UsedResources(0))
	}
}

func TestScheduleRejectsDoubleAssignment(t *testing.T) {
	s := NewSchedule(tinyInstance())
	if err := s.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	err := s.Assign(0, 1)
	if !errors.Is(err, ErrEventAssigned) {
		t.Fatalf("got %v, want ErrEventAssigned", err)
	}
}

func TestScheduleLocationConflict(t *testing.T) {
	s := NewSchedule(tinyInstance())
	if err := s.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	// e1 shares location 0 with e0.
	err := s.Assign(1, 0)
	if !errors.Is(err, ErrLocationConflict) {
		t.Fatalf("got %v, want ErrLocationConflict", err)
	}
	// ...but is fine at the other interval.
	if err := s.Assign(1, 1); err != nil {
		t.Fatalf("Assign(1,1): %v", err)
	}
}

func TestScheduleResourceBudget(t *testing.T) {
	s := NewSchedule(tinyInstance())
	// ξ: e0=4, e2=5, e3=8; θ=10. e0+e2=9 fits; +e3 would blow it even
	// at a free location.
	if err := s.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(2, 0); err != nil {
		t.Fatal(err)
	}
	err := s.Assign(3, 0)
	if !errors.Is(err, ErrResources) {
		t.Fatalf("got %v, want ErrResources", err)
	}
	if err := s.Assign(3, 1); err != nil {
		t.Fatalf("Assign(3,1): %v", err)
	}
}

func TestScheduleRangeErrors(t *testing.T) {
	s := NewSchedule(tinyInstance())
	if err := s.Assign(-1, 0); !errors.Is(err, ErrEventRange) {
		t.Errorf("got %v, want ErrEventRange", err)
	}
	if err := s.Assign(99, 0); !errors.Is(err, ErrEventRange) {
		t.Errorf("got %v, want ErrEventRange", err)
	}
	if err := s.Assign(0, -1); !errors.Is(err, ErrIntervalRange) {
		t.Errorf("got %v, want ErrIntervalRange", err)
	}
	if err := s.Assign(0, 2); !errors.Is(err, ErrIntervalRange) {
		t.Errorf("got %v, want ErrIntervalRange", err)
	}
}

func TestScheduleUnassign(t *testing.T) {
	s := NewSchedule(tinyInstance())
	if err := s.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Unassign(0); err != nil {
		t.Fatalf("Unassign: %v", err)
	}
	if s.Contains(0) || s.Size() != 1 {
		t.Fatal("Unassign did not remove the event")
	}
	if got := s.EventsAt(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("EventsAt(0) = %v", got)
	}
	if s.UsedResources(0) != 5 {
		t.Fatalf("UsedResources = %v", s.UsedResources(0))
	}
	// Location 0 is free again: e1 fits now.
	if err := s.Assign(1, 0); err != nil {
		t.Fatalf("reassign after Unassign: %v", err)
	}
	if err := s.Unassign(0); !errors.Is(err, ErrNotAssigned) {
		t.Fatalf("got %v, want ErrNotAssigned", err)
	}
	if err := s.CheckFeasible(); err != nil {
		t.Fatalf("CheckFeasible: %v", err)
	}
}

func TestScheduleAssignments(t *testing.T) {
	s := NewSchedule(tinyInstance())
	_ = s.Assign(2, 1)
	_ = s.Assign(0, 0)
	got := s.Assignments()
	want := []Assignment{{Event: 0, Interval: 0}, {Event: 2, Interval: 1}}
	if len(got) != len(want) {
		t.Fatalf("Assignments = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Assignments = %v, want %v", got, want)
		}
	}
}

func TestScheduleClone(t *testing.T) {
	s := NewSchedule(tinyInstance())
	_ = s.Assign(0, 0)
	c := s.Clone()
	if err := c.Assign(2, 0); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 1 || c.Size() != 2 {
		t.Fatal("Clone shares state with original")
	}
	if s.Contains(2) {
		t.Fatal("mutating clone affected original")
	}
	// Clone must carry location occupancy: e1 conflicts in the clone.
	if err := c.Assign(1, 0); !errors.Is(err, ErrLocationConflict) {
		t.Fatalf("clone lost location state: %v", err)
	}
	if err := c.CheckFeasible(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFeasibleDetectsCorruption(t *testing.T) {
	s := NewSchedule(tinyInstance())
	_ = s.Assign(0, 0)
	// Corrupt internal state directly.
	s.byInterval[0] = append(s.byInterval[0], 1) // e1 same location, not in byEvent
	if s.CheckFeasible() == nil {
		t.Fatal("CheckFeasible missed a corrupted schedule")
	}
}

func TestIsValidMirrorsValidity(t *testing.T) {
	s := NewSchedule(tinyInstance())
	if !s.IsValid(0, 0) {
		t.Fatal("IsValid(0,0) should be true")
	}
	_ = s.Assign(0, 0)
	if s.IsValid(1, 0) {
		t.Fatal("IsValid should reflect location conflict")
	}
	if s.IsValid(0, 1) {
		t.Fatal("IsValid should reflect double assignment")
	}
}

// TestIsValidDoesNotAllocate: the selection loops call IsValid on
// every list entry they meet, so none of the four ways an assignment
// can be invalid may build an error.
func TestIsValidDoesNotAllocate(t *testing.T) {
	s := NewSchedule(tinyInstance())
	// e0 and e2 at interval 0 use 9 of θ=10 and hold locations 0 and 1.
	if err := s.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(2, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		e, t int
	}{
		{"assigned event", 0, 1},
		{"location conflict", 1, 0},
		{"resource overflow", 3, 0},
		{"out of range", 99, 0},
	} {
		if s.IsValid(c.e, c.t) || s.Validity(c.e, c.t) == nil {
			t.Fatalf("%s: (%d,%d) should be invalid", c.name, c.e, c.t)
		}
		if n := testing.AllocsPerRun(100, func() { s.IsValid(c.e, c.t) }); n != 0 {
			t.Errorf("%s: IsValid allocated %v times per call", c.name, n)
		}
	}
}

func TestScheduleGrow(t *testing.T) {
	in := tinyInstance()
	s := NewSchedule(in)
	if err := s.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	in.Events = append(in.Events, Event{Location: 2, Required: 1})
	for i := 0; i < 2; i++ { // a second Grow is a no-op
		s.Grow()
		if s.IntervalOf(4) != Unassigned || !s.IsValid(4, 0) {
			t.Fatalf("grown event 4: interval %d, valid %v", s.IntervalOf(4), s.IsValid(4, 0))
		}
		if s.IntervalOf(0) != 0 || s.Size() != 1 {
			t.Fatalf("Grow disturbed the schedule: e0 at %d, size %d", s.IntervalOf(0), s.Size())
		}
	}
	if err := s.Assign(4, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckFeasible(); err != nil {
		t.Fatal(err)
	}
}
