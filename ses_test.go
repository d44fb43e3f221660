package ses_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ses"
)

// smallDataset builds a compact EBSN snapshot for facade tests.
func smallDataset(t testing.TB) *ses.Dataset {
	t.Helper()
	ds, err := ses.GenerateEBSN(ses.EBSNConfig{
		Seed:      21,
		NumUsers:  700,
		NumEvents: 400,
		NumTags:   2000,
		NumGroups: 35,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// mustSolver builds a registered solver through ses.New.
func mustSolver(t testing.TB, name string, opts ...ses.Option) ses.Solver {
	t.Helper()
	s, err := ses.New(name, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPublicAPIEndToEnd(t *testing.T) {
	ds := smallDataset(t)
	inst, err := ses.BuildInstance(ds, ses.PaperParams{K: 10, Intervals: 8, CandidateEvents: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mustSolver(t, "grd").Solve(context.Background(), inst, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Size() != 10 {
		t.Fatalf("scheduled %d events, want 10", res.Schedule.Size())
	}
	if err := res.Schedule.CheckFeasible(); err != nil {
		t.Fatal(err)
	}
	// Facade utility evaluation agrees with the solver's.
	if got := ses.Utility(inst, res.Schedule); math.Abs(got-res.Utility) > 1e-9 {
		t.Fatalf("Utility = %v, solver reported %v", got, res.Utility)
	}
	// Per-event attendance sums to the total.
	sum := 0.0
	for _, a := range res.Schedule.Assignments() {
		sum += ses.EventAttendance(inst, res.Schedule, a.Event)
	}
	if math.Abs(sum-res.Utility) > 1e-9 {
		t.Fatalf("Σω = %v, Ω = %v", sum, res.Utility)
	}
	// ρ bounds for a few users.
	for u := 0; u < 20; u++ {
		for _, a := range res.Schedule.Assignments() {
			rho := ses.AttendanceProb(inst, res.Schedule, u, a.Event)
			if rho < 0 || rho > 1 {
				t.Fatalf("ρ(%d,%d) = %v", u, a.Event, rho)
			}
		}
	}
}

func TestSolverOrderingOnPublicAPI(t *testing.T) {
	ds := smallDataset(t)
	inst, err := ses.BuildInstance(ds, ses.PaperParams{K: 20, Intervals: 30, CandidateEvents: 40, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	grd, err := mustSolver(t, "grd").Solve(context.Background(), inst, 20)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := mustSolver(t, "grdlazy").Solve(context.Background(), inst, 20)
	if err != nil {
		t.Fatal(err)
	}
	top, err := mustSolver(t, "top").Solve(context.Background(), inst, 20)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := mustSolver(t, "rand", ses.WithSeed(1)).Solve(context.Background(), inst, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(grd.Utility-lazy.Utility) > 1e-9 {
		t.Errorf("lazy %v != grd %v", lazy.Utility, grd.Utility)
	}
	if grd.Utility < top.Utility || grd.Utility < rnd.Utility {
		t.Errorf("paper ordering violated: grd=%v top=%v rand=%v", grd.Utility, top.Utility, rnd.Utility)
	}
}

func TestNewSolverNames(t *testing.T) {
	for _, name := range ses.SolverNames() {
		s, err := ses.New(name, ses.WithSeed(3))
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
	}
	// The retired solvers must stay unknown: re-registering one is a
	// change to this list.
	for _, name := range []string{"bogus", "beam", "online", "spread", "anneal"} {
		_, err := ses.New(name)
		if want := fmt.Sprintf("solver: unknown solver %q", name); err == nil || err.Error() != want {
			t.Errorf("New(%q): got %v, want %q", name, err, want)
		}
	}
}

func TestManualInstanceConstruction(t *testing.T) {
	// The facade must support hand-built instances (the festival
	// example's path), not only generated ones.
	inst := festivalInstance()
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := mustSolver(t, "grd").Solve(context.Background(), inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Size() != 2 {
		t.Fatalf("size %d", res.Schedule.Size())
	}
	if res.Utility <= 0 {
		t.Fatal("zero utility on an instance with interested users")
	}
}

func TestActivityModels(t *testing.T) {
	u := ses.UniformActivity(5)
	if v := u.Prob(3, 4); v < 0 || v >= 1 {
		t.Errorf("UniformActivity out of range: %v", v)
	}
	c := ses.ConstantActivity(0.7)
	if c.Prob(0, 0) != 0.7 {
		t.Error("ConstantActivity wrong")
	}
}

func TestJaccardFacade(t *testing.T) {
	a := ses.NewTagSet([]int32{1, 2, 3})
	b := ses.NewTagSet([]int32{2, 3, 4})
	if got := ses.Jaccard(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Jaccard = %v", got)
	}
}
