package session

import (
	"context"
	"testing"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/solver"
)

// TestSessionObjectiveDefaultsToOmega pins the default.
func TestSessionObjectiveDefaultsToOmega(t *testing.T) {
	s, err := New(testInstance(1), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Objective() != choice.Omega {
		t.Fatalf("default objective %v, want Omega", s.Objective())
	}
	if sum := s.Summary(); sum.Objective != "omega" {
		t.Fatalf("Summary.Objective = %q, want omega", sum.Objective)
	}
}

// TestFirstResolveMatchesSolverForEveryObjective extends the
// session-vs-GRD equivalence to every registered objective: the first
// Resolve of a session created with objective X must produce exactly
// the schedule and utility of from-scratch GRD configured with X, and
// the counters of the solver running the same kernel mode (grdlazy
// under Omega, GRD otherwise).
func TestFirstResolveMatchesSolverForEveryObjective(t *testing.T) {
	for _, obj := range choice.Objectives() {
		for seed := uint64(0); seed < 3; seed++ {
			inst := testInstance(seed)
			const k = 6
			s, err := New(inst, k, Options{Workers: 1, Objective: obj})
			if err != nil {
				t.Fatal(err)
			}
			if s.Objective() != obj {
				t.Fatalf("session objective %v, want %v", s.Objective(), obj)
			}
			d, err := s.Resolve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			grd, err := solver.NewGRD(solver.Config{Workers: 1, Objective: obj}).
				Solve(context.Background(), inst, k)
			if err != nil {
				t.Fatal(err)
			}
			if d.Utility != grd.Utility {
				t.Fatalf("%s seed %d: session %v, GRD %v", obj.Name(), seed, d.Utility, grd.Utility)
			}
			if !sameAssignments(s.Schedule(), grd.Schedule.Assignments()) {
				t.Fatalf("%s seed %d: schedules differ", obj.Name(), seed)
			}
			twin, err := kernelTwin(solver.Config{Workers: 1, Objective: obj}).
				Solve(context.Background(), inst, k)
			if err != nil {
				t.Fatal(err)
			}
			if d.Counters != twin.Counters {
				t.Fatalf("%s seed %d: counters differ from %s: %+v vs %+v",
					obj.Name(), seed, twin.Solver, d.Counters, twin.Counters)
			}
		}
	}
}

// TestIncrementalResolveEquivalenceForEveryObjective drives the full
// mutation surface under each objective and requires the incremental
// repair to stay schedule-, utility- and counter-equivalent to a
// from-scratch resolve — the invalidation logic must be objective-
// oblivious because initial scores depend on the objective only
// through the engine.
func TestIncrementalResolveEquivalenceForEveryObjective(t *testing.T) {
	for _, obj := range choice.Objectives() {
		inst := testInstance(7)
		s, err := New(inst, 6, Options{Workers: 1, Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Resolve(context.Background()); err != nil {
			t.Fatal(err)
		}
		nT := inst.NumIntervals

		// One event row invalidated.
		if err := s.UpdateInterest(3, 2, 0.9); err != nil {
			t.Fatal(err)
		}
		assertIncrementalEquivalence(t, s, nT)

		// A new event: one new row.
		if _, err := s.AddEvent(core.Event{Location: 1, Required: 1, Name: "late"},
			map[int]float64{0: 0.8, 5: 0.6, 11: 0.4}); err != nil {
			t.Fatal(err)
		}
		assertIncrementalEquivalence(t, s, nT)

		// A new competitor: one interval column.
		if _, err := s.AddCompeting(core.CompetingEvent{Interval: 2, Name: "rival"},
			map[int]float64{1: 0.9, 6: 0.7}); err != nil {
			t.Fatal(err)
		}
		assertIncrementalEquivalence(t, s, s.inst.NumEvents())

		// Constraint-only mutations: zero rescore.
		if err := s.CancelEvent(1); err != nil {
			t.Fatal(err)
		}
		if err := s.Pin(4, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Forbid(5, 1); err != nil {
			t.Fatal(err)
		}
		assertIncrementalEquivalence(t, s, 0)
	}
}

// TestExportStateCarriesObjective: the canonical state names the
// objective, and FromState restores it (snapshot wins over the
// restoring process's Options).
func TestExportStateCarriesObjective(t *testing.T) {
	fair, err := choice.NewFairness(0.8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(testInstance(3), 5, Options{Workers: 1, Objective: fair})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.ExportState()
	if st.Objective != "fairness:0.8" {
		t.Fatalf("State.Objective = %q", st.Objective)
	}
	att, err := choice.NewAttendance(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Restore under conflicting process options: the state must win.
	restored, err := FromState(st, Options{Objective: att})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Objective() != fair {
		t.Fatalf("restored objective %v, want %v", restored.Objective(), fair)
	}
	// An empty objective spec (pre-objective-layer states) restores as
	// omega.
	st2 := s.ExportState()
	st2.Objective = ""
	legacy, err := FromState(st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Objective() != choice.Omega {
		t.Fatalf("legacy restore objective %v, want Omega", legacy.Objective())
	}
	// A corrupted spec is rejected.
	st3 := s.ExportState()
	st3.Objective = "bogus"
	if _, err := FromState(st3, Options{}); err == nil {
		t.Fatal("FromState accepted a bogus objective spec")
	}
}

// TestRestoredSessionResolvesIncrementallyForEveryObjective: after a
// state round-trip, the restored session re-scores once and then
// repairs incrementally with delta/counter equivalence to from-scratch
// — for every registered objective.
func TestRestoredSessionResolvesIncrementallyForEveryObjective(t *testing.T) {
	for _, obj := range choice.Objectives() {
		inst := testInstance(11)
		s, err := New(inst, 5, Options{Workers: 1, Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Resolve(context.Background()); err != nil {
			t.Fatal(err)
		}
		restored, err := FromState(s.ExportState(), Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if restored.Objective() != obj {
			t.Fatalf("%s: restored objective %v", obj.Name(), restored.Objective())
		}
		// First restored resolve re-scores from scratch and must land on
		// the same committed schedule.
		if _, err := restored.Resolve(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !sameAssignments(restored.Schedule(), s.Schedule()) {
			t.Fatalf("%s: restored schedule diverged", obj.Name())
		}
		// Then it repairs incrementally like any warm session.
		if err := restored.UpdateInterest(2, 1, 0.75); err != nil {
			t.Fatal(err)
		}
		assertIncrementalEquivalence(t, restored, inst.NumIntervals)
	}
}
