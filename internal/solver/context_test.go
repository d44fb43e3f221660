package solver

import (
	"context"
	"errors"
	"testing"
	"time"

	"ses/internal/sestest"
)

// anytimeNames are the solvers that honor the anytime contract: a
// deadline returns the feasible best-so-far instead of an error.
func anytimeNames() map[string]bool {
	return map[string]bool{"grd": true, "grdlazy": true, "localsearch": true}
}

func TestAllSolversReturnPromptlyOnCancel(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 3, Events: 12, Intervals: 5, Competing: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		s, err := NewWith(name, 7, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(ctx, inst, 5); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: canceled ctx returned %v, want context.Canceled", name, err)
		}
	}
}

func TestCancelObservedInParallelScoringPool(t *testing.T) {
	// The worklist fan-out itself must observe ctx: run with enough
	// workers that cancellation has to stop claim loops, not just the
	// selection loop.
	inst := sestest.Random(sestest.Config{Seed: 4, Users: 60, Events: 20, Intervals: 8, Competing: 6})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"grd", "top", "exact"} {
		s, err := NewWith(name, 1, Config{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(ctx, inst, 6); !errors.Is(err, context.Canceled) {
			t.Errorf("%s (workers=8): got %v, want context.Canceled", name, err)
		}
	}
}

func TestDeadlineSemanticsPerSolver(t *testing.T) {
	// An already-expired deadline is the deterministic probe: anytime
	// solvers must return a feasible (possibly empty) best-so-far with
	// Stopped set, one-shot solvers must return DeadlineExceeded.
	inst := sestest.Random(sestest.Config{Seed: 5, Events: 10, Intervals: 4, Competing: 3})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	anytime := anytimeNames()
	for _, name := range Names() {
		s, err := NewWith(name, 9, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(ctx, inst, 5)
		if anytime[name] {
			if err != nil {
				t.Errorf("%s: anytime solver errored on deadline: %v", name, err)
				continue
			}
			if res.Stopped != StoppedDeadline {
				t.Errorf("%s: Stopped = %q, want %q", name, res.Stopped, StoppedDeadline)
			}
			if res.Schedule == nil {
				t.Errorf("%s: nil schedule on deadline", name)
				continue
			}
			if err := res.Schedule.CheckFeasible(); err != nil {
				t.Errorf("%s: infeasible best-so-far: %v", name, err)
			}
		} else if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: one-shot solver got %v, want context.DeadlineExceeded", name, err)
		}
	}
}

func TestAnytimeDeadlineMidRunKeepsPartialWork(t *testing.T) {
	// A deadline that can expire mid-selection must still yield a
	// feasible schedule (complete or partial) without an error.
	inst := sestest.Random(sestest.Config{
		Seed: 6, Users: 200, Events: 60, Intervals: 30, Competing: 20,
		Resources: 1e9, Locations: 60, Density: 0.3,
	})
	for name := range anytimeNames() {
		s, err := NewWith(name, 11, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		res, err := s.Solve(ctx, inst, 30)
		cancel()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := res.Schedule.CheckFeasible(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestNilContextBehavesLikeBackground(t *testing.T) {
	// Defensive: a nil ctx (legacy callers) must not panic and must
	// run to completion.
	inst := sestest.Random(sestest.Config{Seed: 7, Events: 8, Intervals: 3})
	res, err := NewGRD(Config{Workers: 1}).Solve(nil, inst, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Size() != 4 {
		t.Fatalf("size %d, want 4", res.Schedule.Size())
	}
}

func TestProgressStreamsOnePerSelection(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 8, Events: 12, Intervals: 5, Competing: 3})
	var got []Progress
	s := NewGRD(Config{Workers: 4, Progress: func(p Progress) { got = append(got, p) }})
	res, err := s.Solve(context.Background(), inst, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != res.Schedule.Size() {
		t.Fatalf("got %d progress events for %d selections", len(got), res.Schedule.Size())
	}
	for i, p := range got {
		if p.Solver != "grd" {
			t.Errorf("event %d: solver %q", i, p.Solver)
		}
		if p.Scheduled != i+1 {
			t.Errorf("event %d: Scheduled = %d, want %d", i, p.Scheduled, i+1)
		}
		if res.Schedule.IntervalOf(p.Event) != p.Interval {
			t.Errorf("event %d: reported (%d,%d) not in final schedule", i, p.Event, p.Interval)
		}
	}
}

func TestProgressNestedStartSolversDoNotDoubleReport(t *testing.T) {
	// localsearch replays its start schedule itself; the nested start
	// solver must stay silent or every assignment appears twice under
	// two names.
	inst := sestest.Random(sestest.Config{Seed: 21, Events: 10, Intervals: 4, Competing: 3})
	var got []Progress
	s := NewLocalSearch(nil, 0, Config{Workers: 1, Progress: func(p Progress) { got = append(got, p) }})
	if _, err := s.Solve(context.Background(), inst, 4); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no progress reported")
	}
	for _, p := range got {
		if p.Solver != "localsearch" {
			t.Fatalf("progress from nested solver %q leaked through", p.Solver)
		}
	}
}

func TestProgressDoesNotChangeResults(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 9, Events: 14, Intervals: 5, Competing: 5})
	plain, err := NewGRDLazy(Config{Workers: 1}).Solve(context.Background(), inst, 6)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	instr, err := NewGRDLazy(Config{Workers: 1, Progress: func(Progress) { n++ }}).Solve(context.Background(), inst, 6)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Utility != instr.Utility || plain.Counters != instr.Counters {
		t.Fatalf("instrumentation changed the run: %v/%+v vs %v/%+v",
			plain.Utility, plain.Counters, instr.Utility, instr.Counters)
	}
	if n == 0 {
		t.Fatal("no progress reported")
	}
}
