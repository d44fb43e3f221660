package session

import (
	"context"
	"testing"

	"ses/internal/sestest"
	"ses/internal/solver"
)

// TestSessionPrunedEngineMatchesGRD extends the session-vs-GRD
// equivalence to the candidate-list pruned engine: schedules and
// utilities must equal GRD's, and counters must equal grdlazy's,
// whose heap mode the session runs under Omega. Both take the
// threshold-pruned rescore path (ScoreUpper + exact resolution on
// pop), and the bound path must actually fire.
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
		lazy, err := solver.NewGRDLazy(solver.Config{Workers: 1, Engine: eng}).Solve(context.Background(), inst, k)
		if err != nil {
			t.Fatal(err)
		}
		if d.Counters != lazy.Counters {
			t.Fatalf("seed %d: counters differ from grdlazy: %+v vs %+v", seed, d.Counters, lazy.Counters)
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
// and must not change the work done. GRD, grdlazy and the session,
// each with and without Progress, must report the counters of their
// kernel mode without Progress on the pruned engine — GRD's for GRD,
// grdlazy's for the session, which runs heap mode under Omega — with
// the threshold-bound rescores actually taken in both modes.
func TestProgressKeepsPrunedBounds(t *testing.T) {
	inst := sestest.Random(sestest.Config{Users: 80, Events: 12, Intervals: 5, Seed: 1})
	const k = 8
	eng := solver.PrunedEngineK(6)
	var wantScan, wantHeap solver.Counters
	for i, progress := range []func(solver.Progress){nil, func(solver.Progress) {}} {
		cfg := solver.Config{Workers: 1, Engine: eng, Progress: progress}
		grd, err := solver.NewGRD(cfg).Solve(context.Background(), inst, k)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := solver.NewGRDLazy(cfg).Solve(context.Background(), inst, k)
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
			wantScan, wantHeap = grd.Counters, lazy.Counters
			if wantScan.BoundUpdates == 0 || wantHeap.BoundUpdates == 0 {
				t.Fatalf("no bound rescores taken (scan %+v, heap %+v)", wantScan, wantHeap)
			}
		}
		if grd.Counters != wantScan {
			t.Errorf("GRD with progress=%v: counters %+v, want %+v", progress != nil, grd.Counters, wantScan)
		}
		if lazy.Counters != wantHeap {
			t.Errorf("grdlazy with progress=%v: counters %+v, want %+v", progress != nil, lazy.Counters, wantHeap)
		}
		if d.Counters != wantHeap {
			t.Errorf("session with progress=%v: counters %+v, want %+v", progress != nil, d.Counters, wantHeap)
		}
	}
}
