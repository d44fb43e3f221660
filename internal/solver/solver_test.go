package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/sestest"
)

const eps = 1e-9

func allSolvers() []Solver {
	return []Solver{
		NewGRD(Config{}),
		NewGRDLazy(Config{}),
		NewTOP(Config{}),
		NewTOPFill(Config{}),
		NewRAND(17, Config{}),
		NewExact(Config{}),
		NewLocalSearch(nil, 0, Config{}),
	}
}

func TestAllSolversProduceFeasibleSchedules(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		inst := sestest.Random(sestest.Config{Seed: seed, Competing: 5, Events: 8, Intervals: 3})
		for _, s := range allSolvers() {
			res, err := s.Solve(context.Background(), inst, 4)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, s.Name(), err)
			}
			if err := res.Schedule.CheckFeasible(); err != nil {
				t.Errorf("seed %d %s: infeasible: %v", seed, s.Name(), err)
			}
			// TOP may schedule fewer than k by design (it discards
			// invalid picks among the top-k pairs without
			// replacement); everyone else must hit k on these
			// instances.
			if s.Name() == "top" {
				if res.Schedule.Size() > 4 {
					t.Errorf("seed %d %s: size %d exceeds k", seed, s.Name(), res.Schedule.Size())
				}
			} else if res.Schedule.Size() != 4 {
				t.Errorf("seed %d %s: size %d, want 4", seed, s.Name(), res.Schedule.Size())
			}
			// Reported utility must match the reference computation.
			want := choice.ReferenceUtility(inst, res.Schedule)
			if math.Abs(res.Utility-want) > eps {
				t.Errorf("seed %d %s: utility %v, reference %v", seed, s.Name(), res.Utility, want)
			}
			if res.Utility < 0 {
				t.Errorf("seed %d %s: negative utility", seed, s.Name())
			}
		}
	}
}

func TestSolversRejectNegativeK(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 1})
	for _, s := range allSolvers() {
		if _, err := s.Solve(context.Background(), inst, -1); !errors.Is(err, ErrNegativeK) {
			t.Errorf("%s: got %v, want ErrNegativeK", s.Name(), err)
		}
	}
}

func TestSolversRejectInvalidInstance(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 1})
	inst.NumUsers = 0
	for _, s := range allSolvers() {
		if _, err := s.Solve(context.Background(), inst, 1); err == nil {
			t.Errorf("%s: accepted invalid instance", s.Name())
		}
	}
}

func TestKZeroGivesEmptySchedule(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 2, Competing: 3})
	for _, s := range allSolvers() {
		res, err := s.Solve(context.Background(), inst, 0)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Schedule.Size() != 0 || res.Utility != 0 {
			t.Errorf("%s: k=0 gave size %d utility %v", s.Name(), res.Schedule.Size(), res.Utility)
		}
	}
}

func TestKLargerThanCapacityIsGraceful(t *testing.T) {
	// 3 events, 1 interval, 2 locations shared => at most 2 events fit
	// by location; ask for 5.
	inst := sestest.Random(sestest.Config{
		Seed: 3, Events: 3, Intervals: 1, Locations: 2, Competing: 2, Resources: 100,
	})
	for _, s := range allSolvers() {
		if s.Name() == "exact" {
			continue // exact optimizes "up to k", trivially fine
		}
		res, err := s.Solve(context.Background(), inst, 5)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Schedule.Size() > 2 {
			t.Errorf("%s: scheduled %d events into 1 interval with 2 locations", s.Name(), res.Schedule.Size())
		}
		if err := res.Schedule.CheckFeasible(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

// TestGRDHugeK: k only bounds how far selection goes, so a k that
// dwarfs the instance allocates nothing for it and schedules what
// k = |E| does.
func TestGRDHugeK(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 4, Competing: 3})
	for _, s := range []Solver{NewGRD(Config{}), NewGRDLazy(Config{})} {
		want, err := s.Solve(context.Background(), inst, inst.NumEvents())
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Solve(context.Background(), inst, 1<<40)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !slices.Equal(got.Schedule.Assignments(), want.Schedule.Assignments()) || got.Utility != want.Utility {
			t.Fatalf("%s: k=2^40 gave %v (%v), k=|E| %v (%v)", s.Name(),
				got.Schedule.Assignments(), got.Utility, want.Schedule.Assignments(), want.Utility)
		}
	}
}

func TestGRDAndLazyAgree(t *testing.T) {
	// The lazy heap variant must reproduce GRD's schedule exactly
	// (identical selections, not merely equal utility).
	for seed := uint64(10); seed < 22; seed++ {
		inst := sestest.Random(sestest.Config{
			Seed: seed, Users: 30, Events: 14, Intervals: 5, Competing: 8,
		})
		a, err := NewGRD(Config{}).Solve(context.Background(), inst, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewGRDLazy(Config{}).Solve(context.Background(), inst, 7)
		if err != nil {
			t.Fatal(err)
		}
		as, bs := a.Schedule.Assignments(), b.Schedule.Assignments()
		if len(as) != len(bs) {
			t.Fatalf("seed %d: sizes differ: %d vs %d", seed, len(as), len(bs))
		}
		for i := range as {
			if as[i] != bs[i] {
				t.Fatalf("seed %d: assignment %d differs: %+v vs %+v", seed, i, as[i], bs[i])
			}
		}
		if math.Abs(a.Utility-b.Utility) > eps {
			t.Fatalf("seed %d: utilities differ: %v vs %v", seed, a.Utility, b.Utility)
		}
		// The lazy variant must do strictly fewer score evaluations
		// than eager GRD on non-trivial instances.
		grdWork := a.Counters.InitialScores + a.Counters.ScoreUpdates
		lazyWork := b.Counters.InitialScores + b.Counters.ScoreUpdates
		if lazyWork > grdWork {
			t.Errorf("seed %d: lazy did %d score evals, GRD %d", seed, lazyWork, grdWork)
		}
	}
}

func TestGRDMatchesNaiveGreedyReference(t *testing.T) {
	// Reference greedy: at each step evaluate every valid assignment
	// with ReferenceScore and take the max. GRD must match it.
	for seed := uint64(40); seed < 46; seed++ {
		inst := sestest.Random(sestest.Config{
			Seed: seed, Users: 15, Events: 8, Intervals: 3, Competing: 4,
		})
		const k = 4
		got, err := NewGRD(Config{}).Solve(context.Background(), inst, k)
		if err != nil {
			t.Fatal(err)
		}

		ref := core.NewSchedule(inst)
		for ref.Size() < k {
			bestScore := math.Inf(-1)
			bestE, bestT := -1, -1
			for e := 0; e < inst.NumEvents(); e++ {
				for ti := 0; ti < inst.NumIntervals; ti++ {
					if ref.Validity(e, ti) != nil {
						continue
					}
					sc, err := choice.ReferenceScore(inst, ref, e, ti)
					if err != nil {
						t.Fatal(err)
					}
					// Tie-break identical to GRD.
					if sc > bestScore+1e-12 {
						bestScore, bestE, bestT = sc, e, ti
					}
				}
			}
			if bestE < 0 {
				break
			}
			if err := ref.Assign(bestE, bestT); err != nil {
				t.Fatal(err)
			}
		}
		want := choice.ReferenceUtility(inst, ref)
		if math.Abs(got.Utility-want) > 1e-6 {
			t.Errorf("seed %d: GRD utility %v, naive greedy %v", seed, got.Utility, want)
		}
	}
}

func TestExactDominatesHeuristics(t *testing.T) {
	for seed := uint64(50); seed < 58; seed++ {
		inst := sestest.Random(sestest.Config{
			Seed: seed, Users: 12, Events: 7, Intervals: 3, Competing: 3,
		})
		const k = 3
		opt, err := NewExact(Config{}).Solve(context.Background(), inst, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Solver{NewGRD(Config{}), NewTOP(Config{}), NewRAND(seed, Config{}), NewLocalSearch(nil, 0, Config{})} {
			res, err := s.Solve(context.Background(), inst, k)
			if err != nil {
				t.Fatal(err)
			}
			if res.Utility > opt.Utility+1e-6 {
				t.Errorf("seed %d: %s utility %v exceeds exact optimum %v",
					seed, s.Name(), res.Utility, opt.Utility)
			}
		}
		// Sanity: the greedy should be within a reasonable factor of
		// optimal on these tiny instances (empirically it is nearly
		// optimal; 0.5 is a loose floor, consistent with greedy bounds
		// for submodular maximization).
		grd, _ := NewGRD(Config{}).Solve(context.Background(), inst, k)
		if grd.Utility < 0.5*opt.Utility-eps {
			t.Errorf("seed %d: GRD utility %v below half of optimum %v", seed, grd.Utility, opt.Utility)
		}
	}
}

func TestExactMatchesBruteForceSmall(t *testing.T) {
	// Cross-check the pruned DFS against a prune-free DFS.
	for seed := uint64(60); seed < 64; seed++ {
		inst := sestest.Random(sestest.Config{
			Seed: seed, Users: 8, Events: 5, Intervals: 2, Competing: 2,
		})
		const k = 2
		opt, err := NewExact(Config{}).Solve(context.Background(), inst, k)
		if err != nil {
			t.Fatal(err)
		}
		best := bruteForceBest(t, inst, k)
		if math.Abs(opt.Utility-best) > 1e-9 {
			t.Errorf("seed %d: exact %v, brute force %v", seed, opt.Utility, best)
		}
	}
}

// bruteForceBest enumerates every feasible schedule of size <= k with
// no pruning at all.
func bruteForceBest(t *testing.T, inst *core.Instance, k int) float64 {
	t.Helper()
	best := 0.0
	var rec func(s *core.Schedule, from int)
	rec = func(s *core.Schedule, from int) {
		if u := choice.ReferenceUtility(inst, s); u > best {
			best = u
		}
		if s.Size() == k {
			return
		}
		for e := from; e < inst.NumEvents(); e++ {
			for ti := 0; ti < inst.NumIntervals; ti++ {
				if s.Validity(e, ti) != nil {
					continue
				}
				if err := s.Assign(e, ti); err != nil {
					t.Fatal(err)
				}
				rec(s, e+1)
				if err := s.Unassign(e); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rec(core.NewSchedule(inst), 0)
	return best
}

func TestLocalSearchNeverWorseThanStart(t *testing.T) {
	for seed := uint64(70); seed < 78; seed++ {
		inst := sestest.Random(sestest.Config{Seed: seed, Competing: 5})
		start := NewRAND(seed, Config{})
		base, err := start.Solve(context.Background(), inst, 5)
		if err != nil {
			t.Fatal(err)
		}
		improved, err := NewLocalSearch(NewRAND(seed, Config{}), 0, Config{}).Solve(context.Background(), inst, 5)
		if err != nil {
			t.Fatal(err)
		}
		if improved.Utility < base.Utility-eps {
			t.Errorf("seed %d: local search %v worse than start %v", seed, improved.Utility, base.Utility)
		}
	}
}

func TestGRDBeatsBaselinesOnAverage(t *testing.T) {
	// The paper's headline comparison: GRD > RAND and GRD > TOP in
	// utility. Individual seeds can be close, so compare sums over a
	// batch.
	var grdSum, topSum, randSum float64
	for seed := uint64(80); seed < 92; seed++ {
		inst := sestest.Random(sestest.Config{
			Seed: seed, Users: 40, Events: 16, Intervals: 5, Competing: 10,
		})
		const k = 8
		grd, err := NewGRD(Config{}).Solve(context.Background(), inst, k)
		if err != nil {
			t.Fatal(err)
		}
		top, err := NewTOP(Config{}).Solve(context.Background(), inst, k)
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := NewRAND(seed, Config{}).Solve(context.Background(), inst, k)
		if err != nil {
			t.Fatal(err)
		}
		grdSum += grd.Utility
		topSum += top.Utility
		randSum += rnd.Utility
		// Greedy must never lose to TOP given identical tie-breaking
		// on the first pick and updates afterwards... in fact GRD can
		// in principle lose on adversarial instances, so only the
		// aggregate is asserted below.
	}
	if grdSum <= topSum {
		t.Errorf("GRD total %v not above TOP total %v", grdSum, topSum)
	}
	if grdSum <= randSum {
		t.Errorf("GRD total %v not above RAND total %v", grdSum, randSum)
	}
}

func TestRANDIsSeedDeterministic(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 5, Competing: 4})
	a, _ := NewRAND(9, Config{}).Solve(context.Background(), inst, 5)
	b, _ := NewRAND(9, Config{}).Solve(context.Background(), inst, 5)
	c, _ := NewRAND(10, Config{}).Solve(context.Background(), inst, 5)
	as, bs := a.Schedule.Assignments(), b.Schedule.Assignments()
	if len(as) != len(bs) {
		t.Fatal("same seed, different sizes")
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatal("same seed, different schedules")
		}
	}
	cs := c.Schedule.Assignments()
	same := len(cs) == len(as)
	if same {
		for i := range as {
			if as[i] != cs[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("warning: different seeds produced identical schedules (possible but unlikely)")
	}
}

func TestCountersMatchPaperCostModel(t *testing.T) {
	// GRD computes |E|·|T| initial scores; TOP computes the same
	// initial scores and zero updates; GRD performs updates only for
	// the selected intervals.
	inst := sestest.Random(sestest.Config{Seed: 6, Events: 10, Intervals: 4, Competing: 3})
	const k = 5
	grd, _ := NewGRD(Config{}).Solve(context.Background(), inst, k)
	top, _ := NewTOP(Config{}).Solve(context.Background(), inst, k)
	wantInit := inst.NumEvents() * inst.NumIntervals
	if grd.Counters.InitialScores != wantInit {
		t.Errorf("GRD initial scores %d, want %d", grd.Counters.InitialScores, wantInit)
	}
	if top.Counters.InitialScores != wantInit {
		t.Errorf("TOP initial scores %d, want %d", top.Counters.InitialScores, wantInit)
	}
	if top.Counters.ScoreUpdates != 0 {
		t.Errorf("TOP performed %d updates, want 0", top.Counters.ScoreUpdates)
	}
	if grd.Counters.ScoreUpdates == 0 {
		t.Error("GRD performed no updates")
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
	}
	// The retired solvers must stay unknown: re-registering one is a
	// change to this list.
	for _, name := range []string{"nope", "beam", "online", "spread", "anneal"} {
		_, err := New(name, 1)
		if want := fmt.Sprintf("solver: unknown solver %q", name); err == nil || err.Error() != want {
			t.Errorf("New(%q): got %v, want %q", name, err, want)
		}
	}
}

func TestExactBudgetExceeded(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 7, Events: 12, Intervals: 4})
	ex := NewExact(Config{})
	ex.MaxNodes = 5
	if _, err := ex.Solve(context.Background(), inst, 6); !errors.Is(err, ErrSearchBudget) {
		t.Fatalf("got %v, want ErrSearchBudget", err)
	}
}

func TestForkIndependence(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 60, Competing: 4})
	for _, factory := range []EngineFactory{DefaultEngine, refEngine} {
		eng := factory(inst)
		if err := eng.Apply(0, 0); err != nil {
			t.Fatal(err)
		}
		f := eng.Fork()
		if err := f.Apply(1, 1); err != nil {
			t.Fatal(err)
		}
		if eng.Schedule().Contains(1) {
			t.Fatal("fork mutation leaked into original")
		}
		if !f.Schedule().Contains(0) {
			t.Fatal("fork lost original assignment")
		}
		// Utilities must agree with independent references.
		if got, want := eng.Utility(), choice.ReferenceUtility(inst, eng.Schedule()); math.Abs(got-want) > 1e-9 {
			t.Fatalf("original utility %v vs reference %v", got, want)
		}
		if got, want := f.Utility(), choice.ReferenceUtility(inst, f.Schedule()); math.Abs(got-want) > 1e-9 {
			t.Fatalf("fork utility %v vs reference %v", got, want)
		}
		// Unapply on the fork must not disturb the original either.
		if err := f.Unapply(0); err != nil {
			t.Fatal(err)
		}
		if !eng.Schedule().Contains(0) {
			t.Fatal("fork unapply leaked into original")
		}
	}
}
