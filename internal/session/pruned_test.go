package session

import (
	"context"
	"testing"

	"ses/internal/sestest"
	"ses/internal/solver"
)

// TestSessionPrunedEngineMatchesGRD extends the session-vs-GRD
// equivalence to the candidate-list pruned engine: the session's
// selection replay and solver.GRD both take the threshold-pruned
// rescore path (ScoreUpper + exact resolution on pop), so schedules,
// utilities and counters must stay identical run for run — and the
// bound path must actually fire on both sides.
func TestSessionPrunedEngineMatchesGRD(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		inst := testInstance(seed)
		const k = 7
		eng := solver.PrunedEngineK(6)
		s, err := New(inst, k, Options{Workers: 1, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.Resolve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		grd, err := solver.NewGRD(solver.Config{Workers: 1, Engine: eng}).Solve(context.Background(), inst, k)
		if err != nil {
			t.Fatal(err)
		}
		if d.Utility != grd.Utility {
			t.Fatalf("seed %d: session %v, GRD %v", seed, d.Utility, grd.Utility)
		}
		if !sameAssignments(s.Schedule(), grd.Schedule.Assignments()) {
			t.Fatalf("seed %d: schedules differ", seed)
		}
		if d.Counters != grd.Counters {
			t.Fatalf("seed %d: counters differ: %+v vs %+v", seed, d.Counters, grd.Counters)
		}
		if d.Counters.BoundUpdates == 0 {
			t.Fatalf("seed %d: no bound rescores taken (counters %+v)", seed, d.Counters)
		}
	}
}

// TestSessionPrunedWarmResolves drives the warm-engine loop the scale
// bench measures: non-structural mutations (Pin/Unpin) followed by
// incremental resolves, with from-scratch equivalence at every step.
// This exercises the bounded pinned-interval refresh and keeps the
// pruned engine's frozen-tail cache live across Reset.
func TestSessionPrunedWarmResolves(t *testing.T) {
	inst := testInstance(9)
	s, err := New(inst, 7, Options{Workers: 1, Engine: solver.PrunedEngineK(5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(2, 3); err != nil {
		t.Fatal(err)
	}
	assertIncrementalEquivalence(t, s, -1)
	if err := s.Unpin(2); err != nil {
		t.Fatal(err)
	}
	assertIncrementalEquivalence(t, s, -1)
	if err := s.Pin(5, 1); err != nil {
		t.Fatal(err)
	}
	assertIncrementalEquivalence(t, s, -1)
}

// TestProgressKeepsPrunedBounds: a progress callback is an observer
// and must not change the work done. GRD and the session, each with
// and without Progress, must report identical counters on the pruned
// engine — with the threshold-bound rescores actually taken.
func TestProgressKeepsPrunedBounds(t *testing.T) {
	inst := sestest.Random(sestest.Config{Users: 80, Events: 12, Intervals: 5, Seed: 1})
	const k = 8
	eng := solver.PrunedEngineK(6)
	var want solver.Counters
	for i, progress := range []func(solver.Progress){nil, func(solver.Progress) {}} {
		grd, err := solver.NewGRD(solver.Config{Workers: 1, Engine: eng, Progress: progress}).
			Solve(context.Background(), inst, k)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(inst, k, Options{Workers: 1, Engine: eng, Progress: progress})
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.Resolve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = grd.Counters
			if want.BoundUpdates == 0 {
				t.Fatalf("no bound rescores taken (counters %+v)", want)
			}
		}
		if grd.Counters != want {
			t.Errorf("GRD with progress=%v: counters %+v, want %+v", progress != nil, grd.Counters, want)
		}
		if d.Counters != want {
			t.Errorf("session with progress=%v: counters %+v, want %+v", progress != nil, d.Counters, want)
		}
	}
}
