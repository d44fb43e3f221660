package solver

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/sestest"
)

// solversWith builds one of each registered solver carrying cfg
// (deterministic seeds, small fixed hyperparameters).
func solversWith(t *testing.T, cfg Config) []Solver {
	t.Helper()
	var out []Solver
	for _, name := range Names() {
		s, err := NewWith(name, 17, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// engineFactories are the four engines the differential harness
// crosses with every solver and objective.
var engineFactories = map[string]EngineFactory{
	"sparse": func(in *core.Instance) choice.Engine { return choice.NewSparse(in) },
	"dense":  func(in *core.Instance) choice.Engine { return choice.NewDense(in) },
	"ref":    func(in *core.Instance) choice.Engine { return choice.NewRef(in) },
}

// TestOmegaObjectiveIsByteIdenticalToDefault is the refactor anchor:
// with Objective nil (the default) and with choice.Omega selected
// explicitly, every registered solver must produce identical
// schedules, bit-identical utilities and identical work counters.
// Together with the pre-refactor golden files this enforces that the
// objective layer changed nothing on the default path.
func TestOmegaObjectiveIsByteIdenticalToDefault(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		inst := sestest.Random(sestest.Config{Seed: seed, Competing: 4, Events: 8, Intervals: 3})
		def := solversWith(t, Config{Workers: 1})
		exp := solversWith(t, Config{Workers: 1, Objective: choice.Omega})
		for i := range def {
			rd, err := def[i].Solve(context.Background(), inst, 4)
			if err != nil {
				t.Fatal(err)
			}
			re, err := exp[i].Solve(context.Background(), inst, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rd.Schedule.Assignments(), re.Schedule.Assignments()) {
				t.Errorf("seed %d %s: schedules differ between default and explicit Omega",
					seed, def[i].Name())
			}
			if rd.Utility != re.Utility {
				t.Errorf("seed %d %s: utility %v != %v", seed, def[i].Name(), rd.Utility, re.Utility)
			}
			if rd.Counters != re.Counters {
				t.Errorf("seed %d %s: counters %+v != %+v", seed, def[i].Name(), rd.Counters, re.Counters)
			}
			if rd.Objective != "omega" || re.Objective != "omega" {
				t.Errorf("seed %d %s: Objective = %q / %q, want omega", seed, def[i].Name(), rd.Objective, re.Objective)
			}
			if rd.Omega != rd.Utility {
				t.Errorf("seed %d %s: Omega %v != Utility %v under omega", seed, def[i].Name(), rd.Omega, rd.Utility)
			}
		}
	}
}

// TestEverySolverEngineObjectiveAgainstOracle is the cross-objective
// differential harness of this PR: every registered solver × engine ×
// objective combination must produce a feasible schedule whose
// reported Utility matches the from-definitions reference value of
// that schedule under that objective (and whose Omega field matches
// Eq. 3) within 1e-9. The solver's trajectory may legitimately differ
// across engines at floating-point ties, but its self-report may
// never drift from the oracle's valuation.
func TestEverySolverEngineObjectiveAgainstOracle(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 5, Competing: 4, Events: 7, Intervals: 3, Users: 15})
	for _, obj := range choice.Objectives() {
		for engName, ef := range engineFactories {
			cfg := Config{Workers: 1, Engine: ef, Objective: obj}
			for _, s := range solversWith(t, cfg) {
				res, err := s.Solve(context.Background(), inst, 3)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", s.Name(), engName, obj.Name(), err)
				}
				if err := res.Schedule.CheckFeasible(); err != nil {
					t.Fatalf("%s/%s/%s: infeasible: %v", s.Name(), engName, obj.Name(), err)
				}
				if res.Objective != obj.Name() {
					t.Errorf("%s/%s: Result.Objective = %q, want %q", s.Name(), engName, res.Objective, obj.Name())
				}
				want := choice.ReferenceValue(inst, res.Schedule, obj)
				if math.Abs(res.Utility-want) > eps {
					t.Errorf("%s/%s/%s: Utility %v, oracle %v", s.Name(), engName, obj.Name(), res.Utility, want)
				}
				wantOmega := choice.ReferenceUtility(inst, res.Schedule)
				if math.Abs(res.Omega-wantOmega) > eps {
					t.Errorf("%s/%s/%s: Omega %v, reference %v", s.Name(), engName, obj.Name(), res.Omega, wantOmega)
				}
			}
		}
	}
}

// bruteForceBestObjective enumerates every feasible schedule of size
// <= k with no pruning and returns the best value under obj.
func bruteForceBestObjective(t *testing.T, inst *core.Instance, k int, obj choice.Objective) float64 {
	t.Helper()
	s := core.NewSchedule(inst)
	best := choice.ReferenceValue(inst, s, obj)
	var rec func(from int)
	rec = func(from int) {
		if u := choice.ReferenceValue(inst, s, obj); u > best {
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
				rec(e + 1)
				if err := s.Unassign(e); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rec(0)
	return best
}

// TestExactIsOptimalForNonSubmodularObjectives: with the admissible
// prune disabled (attendance and fairness report Submodular false),
// Exact must still return the true optimum — cross-checked against a
// from-definitions enumeration.
func TestExactIsOptimalForNonSubmodularObjectives(t *testing.T) {
	att, _ := choice.NewAttendance(0.5)
	fair, _ := choice.NewFairness(0.5)
	for _, obj := range []choice.Objective{att, fair} {
		for seed := uint64(60); seed < 63; seed++ {
			inst := sestest.Random(sestest.Config{
				Seed: seed, Users: 8, Events: 5, Intervals: 2, Competing: 2,
			})
			const k = 2
			opt, err := NewExact(Config{Objective: obj}).Solve(context.Background(), inst, k)
			if err != nil {
				t.Fatal(err)
			}
			best := bruteForceBestObjective(t, inst, k, obj)
			if math.Abs(opt.Utility-best) > eps {
				t.Errorf("%s seed %d: exact %v, brute force %v", obj.Name(), seed, opt.Utility, best)
			}
		}
	}
}

// TestAnytimeDeadlineWorksForEveryObjective: the anytime solvers must
// classify deadlines identically for non-default objectives — a
// committed feasible best-so-far with Stopped set, never an error.
func TestAnytimeDeadlineWorksForEveryObjective(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 9, Competing: 4, Events: 10, Intervals: 4, Users: 30})
	for _, obj := range choice.Objectives() {
		for _, name := range []string{"grd", "grdlazy", "localsearch"} {
			s, err := NewWith(name, 17, Config{Workers: 1, Objective: obj})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			res, err := s.Solve(ctx, inst, 5)
			cancel()
			if err != nil {
				t.Fatalf("%s under %s: deadline returned error %v", name, obj.Name(), err)
			}
			if res.Stopped != StoppedDeadline {
				t.Errorf("%s under %s: Stopped = %q, want %q", name, obj.Name(), res.Stopped, StoppedDeadline)
			}
			if err := res.Schedule.CheckFeasible(); err != nil {
				t.Errorf("%s under %s: best-so-far infeasible: %v", name, obj.Name(), err)
			}
		}
	}
}
