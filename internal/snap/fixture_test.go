package snap

import (
	"context"
	"testing"

	"ses/internal/activity"
	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/session"
	"ses/internal/sestest"
)

// fixtureSession builds the session behind testdata/gob_v2.snap and
// its JSON twin: a table σ, the fairness objective, and every kind of
// constraint state (an added event, an interest update, competition,
// a pin, a forbid, a cancellation) over a committed schedule.
func fixtureSession(t testing.TB) *session.Scheduler {
	t.Helper()
	inst := sestest.Random(sestest.Config{Users: 30, Events: 12, Intervals: 5, Competing: 3, Seed: 31})
	table := make([][]float64, inst.NumUsers)
	for u := range table {
		table[u] = make([]float64, inst.NumIntervals)
		for i := range table[u] {
			table[u][i] = 1 / float64(u+i+2)
		}
	}
	tab, err := activity.NewTable(table)
	if err != nil {
		t.Fatal(err)
	}
	inst.Activity = tab
	fair, err := choice.NewFairness(0.25)
	if err != nil {
		t.Fatal(err)
	}
	s, err := session.New(inst, 6, session.Options{Workers: 1, Objective: fair})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Resolve(ctx); err != nil {
		t.Fatal(err)
	}
	added, err := s.AddEvent(core.Event{Location: 2, Required: 1.5, Name: "encore"}, map[int]float64{0: 0.9, 7: 0.35, 29: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateInterest(4, 2, 0.625); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddCompeting(core.CompetingEvent{Interval: 1, Name: "rival"}, map[int]float64{3: 0.8, 11: 0.2}); err != nil {
		t.Fatal(err)
	}
	sched := s.Schedule()
	if len(sched) < 2 {
		t.Fatalf("schedule of %d assignments, want at least 2", len(sched))
	}
	if err := s.Pin(sched[0].Event, sched[0].Interval); err != nil {
		t.Fatal(err)
	}
	if err := s.Forbid(added, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Forbid(sched[1].Event, sched[1].Interval); err != nil {
		t.Fatal(err)
	}
	if err := s.CancelEvent(5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(ctx); err != nil {
		t.Fatal(err)
	}
	return s
}
