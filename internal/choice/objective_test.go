package choice

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ses/internal/sestest"
)

// mustAttendance/mustFairness build parameterized objectives or fail.
func mustAttendance(t testing.TB, theta float64) Attendance {
	t.Helper()
	o, err := NewAttendance(theta)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func mustFairness(t testing.TB, blend float64) Fairness {
	t.Helper()
	o, err := NewFairness(blend)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// testObjectives is the objective set the differential suites sweep:
// the registry defaults plus parameter extremes.
func testObjectives(t testing.TB) []Objective {
	t.Helper()
	return append(Objectives(),
		mustAttendance(t, 0),
		mustAttendance(t, 0.9),
		mustFairness(t, 0),
		mustFairness(t, 1),
	)
}

func TestParseObjectiveRoundTrip(t *testing.T) {
	for _, spec := range []string{"", "omega", "attendance", "attendance:0.25", "fairness", "fairness:0.8", "fairness:1"} {
		obj, err := ParseObjective(spec)
		if err != nil {
			t.Fatalf("ParseObjective(%q): %v", spec, err)
		}
		again, err := ParseObjective(obj.Name())
		if err != nil {
			t.Fatalf("ParseObjective(%q -> %q): %v", spec, obj.Name(), err)
		}
		if again.Name() != obj.Name() {
			t.Errorf("spec %q: Name round-trip %q -> %q", spec, obj.Name(), again.Name())
		}
		if obj != again {
			t.Errorf("spec %q: round-tripped objective differs: %#v vs %#v", spec, obj, again)
		}
	}
	if obj, _ := ParseObjective(""); obj != Omega {
		t.Errorf("empty spec should select Omega, got %v", obj)
	}
	if obj, _ := ParseObjective("attendance"); obj.(Attendance).Theta != DefaultAttendanceTheta {
		t.Errorf("bare attendance spec should use the default θ")
	}
	if obj, _ := ParseObjective("fairness"); obj.(Fairness).Blend != DefaultFairnessBlend {
		t.Errorf("bare fairness spec should use the default λ")
	}
}

func TestParseObjectiveRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"unknown", "omega:1", "attendance:", "attendance:x", "attendance:-0.1",
		"attendance:1.5", "fairness:2", "fairness:-1", "fairness:NaN:extra",
	} {
		if _, err := ParseObjective(spec); err == nil {
			t.Errorf("ParseObjective(%q) should fail", spec)
		}
	}
}

func TestObjectiveConstructorsValidate(t *testing.T) {
	for _, theta := range []float64{-0.01, 1.01, math.NaN()} {
		if _, err := NewAttendance(theta); err == nil {
			t.Errorf("NewAttendance(%v) should fail", theta)
		}
		if _, err := NewFairness(theta); err == nil {
			t.Errorf("NewFairness(%v) should fail", theta)
		}
	}
}

func TestObjectivesRegistryCoversNames(t *testing.T) {
	objs := Objectives()
	names := ObjectiveNames()
	if len(objs) != len(names) {
		t.Fatalf("Objectives() has %d entries, ObjectiveNames() %d", len(objs), len(names))
	}
	for i, o := range objs {
		if !strings.HasPrefix(o.Name(), names[i]) {
			t.Errorf("Objectives()[%d].Name() = %q does not match family %q", i, o.Name(), names[i])
		}
	}
}

// TestObjectiveKernelContracts checks the per-user contracts every
// objective must satisfy: Share(p<=0) = 0, Gain(mu=0) = 0, Gain is
// exactly the Share delta, Share is non-decreasing in p, and
// Combine(0,0,0) = 0.
func TestObjectiveKernelContracts(t *testing.T) {
	sigmas := []float64{0, 0.3, 1}
	cs := []float64{0, 0.2, 1.7}
	ps := []float64{0, 1e-9, 0.4, 0.41, 1, 3}
	mus := []float64{0, 1e-9, 0.05, 0.5, 1}
	for _, obj := range testObjectives(t) {
		if got := obj.Combine(0, 0, 0); got != 0 {
			t.Errorf("%s: Combine(0,0,0) = %v, want 0", obj.Name(), got)
		}
		for _, sigma := range sigmas {
			for _, c := range cs {
				prev := -1.0
				for _, p := range ps {
					s := obj.Share(sigma, c, p)
					if p <= 0 && s != 0 {
						t.Errorf("%s: Share(%v,%v,%v) = %v, want 0 for p<=0", obj.Name(), sigma, c, p, s)
					}
					if s < prev-1e-12 {
						t.Errorf("%s: Share not monotone in p at (%v,%v,%v): %v -> %v", obj.Name(), sigma, c, p, prev, s)
					}
					prev = s
					for _, mu := range mus {
						g := obj.Gain(sigma, mu, c, p)
						if mu == 0 && g != 0 {
							t.Errorf("%s: Gain(mu=0) = %v, want 0", obj.Name(), g)
						}
						want := obj.Share(sigma, c, p+mu) - obj.Share(sigma, c, p)
						if math.Abs(g-want) > 1e-12 {
							t.Errorf("%s: Gain(%v,%v,%v,%v) = %v, Share delta %v",
								obj.Name(), sigma, mu, c, p, g, want)
						}
					}
				}
			}
		}
	}
}

// TestOmegaObjectiveMatchesLegacyKernels pins Omega to the shared
// luceGain/luceShare kernels bit for bit — the anchor of the
// byte-identical default-path guarantee.
func TestOmegaObjectiveMatchesLegacyKernels(t *testing.T) {
	for _, sigma := range []float64{0, 0.25, 1} {
		for _, c := range []float64{0, 0.5, 2} {
			for _, p := range []float64{0, 0.1, 1.5} {
				if got, want := Omega.Share(sigma, c, p), luceShare(sigma, c, p); got != want {
					t.Fatalf("Omega.Share(%v,%v,%v) = %v, luceShare %v", sigma, c, p, got, want)
				}
				for _, mu := range []float64{0, 0.3, 1} {
					if got, want := Omega.Gain(sigma, mu, c, p), luceGain(sigma, mu, c, p); got != want {
						t.Fatalf("Omega.Gain = %v, luceGain %v", got, want)
					}
				}
			}
		}
	}
	if Omega.Combine(3.25, 0.1, 7) != 3.25 {
		t.Error("Omega.Combine must be the identity on sum")
	}
	if !Omega.Linear() || !Omega.Submodular() {
		t.Error("Omega must report Linear and Submodular")
	}
}

// TestEnginesMatchReferenceForEveryObjective is the fixed-case
// differential test: on random instances with a round-robin schedule,
// every engine must agree with the Ref oracle on Utility,
// IntervalUtility and the Score of every remaining valid assignment —
// for every registered objective (plus parameter extremes).
func TestEnginesMatchReferenceForEveryObjective(t *testing.T) {
	for _, obj := range testObjectives(t) {
		for seed := uint64(0); seed < 6; seed++ {
			inst := sestest.Random(sestest.Config{Seed: seed, Competing: 5})
			oracle := NewRef(inst)
			oracle.SetObjective(obj)
			greedyFill(oracle, 6)
			for name, eng := range newEngines(inst) {
				eng.SetObjective(obj)
				if got := eng.Objective(); got != obj {
					t.Fatalf("%s: Objective() = %v after SetObjective(%v)", name, got, obj)
				}
				greedyFill(eng, 6)
				if got, want := eng.Utility(), oracle.Utility(); math.Abs(got-want) > eps {
					t.Errorf("%s seed %d %s: Utility = %v, oracle %v", obj.Name(), seed, name, got, want)
				}
				for ti := 0; ti < inst.NumIntervals; ti++ {
					if got, want := eng.IntervalUtility(ti), oracle.IntervalUtility(ti); math.Abs(got-want) > eps {
						t.Errorf("%s seed %d %s: IntervalUtility(%d) = %v, oracle %v", obj.Name(), seed, name, ti, got, want)
					}
				}
				s := eng.Schedule()
				for ev := 0; ev < inst.NumEvents(); ev++ {
					if s.Contains(ev) {
						continue
					}
					for ti := 0; ti < inst.NumIntervals; ti++ {
						if !s.IsValid(ev, ti) {
							continue
						}
						if got, want := eng.Score(ev, ti), oracle.Score(ev, ti); math.Abs(got-want) > eps {
							t.Errorf("%s seed %d %s: Score(%d,%d) = %v, oracle %v",
								obj.Name(), seed, name, ev, ti, got, want)
						}
					}
				}
			}
		}
	}
}

// TestScoreTelescopesToValueForEveryObjective: applying assignments
// one by one, the sum of the Scores taken just before each Apply must
// equal the final Utility for any objective — Score is exactly the
// objective's delta, linear or not.
func TestScoreTelescopesToValueForEveryObjective(t *testing.T) {
	for _, obj := range testObjectives(t) {
		inst := sestest.Random(sestest.Config{Seed: 99, Competing: 4})
		for name, eng := range newEngines(inst) {
			eng.SetObjective(obj)
			sum := 0.0
			applied := 0
			for ev := 0; ev < inst.NumEvents() && applied < 6; ev++ {
				ti := ev % inst.NumIntervals
				if !eng.Schedule().IsValid(ev, ti) {
					continue
				}
				sum += eng.Score(ev, ti)
				if err := eng.Apply(ev, ti); err != nil {
					t.Fatal(err)
				}
				applied++
			}
			if got := eng.Utility(); math.Abs(got-sum) > eps {
				t.Errorf("%s %s: telescoped %v, Utility %v", obj.Name(), name, sum, got)
			}
		}
	}
}

// TestValueOfConsistency: ValueOf(nil) and ValueOf(Omega) equal the Ω
// value regardless of the engine's own objective, and
// ValueOf(Objective()) equals Utility().
func TestValueOfConsistency(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 3, Competing: 3})
	for _, obj := range testObjectives(t) {
		for name, eng := range newEngines(inst) {
			eng.SetObjective(obj)
			greedyFill(eng, 5)
			if got, want := eng.ValueOf(eng.Objective()), eng.Utility(); math.Abs(got-want) > eps {
				t.Errorf("%s %s: ValueOf(own) = %v, Utility %v", obj.Name(), name, got, want)
			}
			omega := ReferenceUtility(inst, eng.Schedule())
			if got := eng.ValueOf(nil); math.Abs(got-omega) > eps {
				t.Errorf("%s %s: ValueOf(nil) = %v, Ω %v", obj.Name(), name, got, omega)
			}
			if got := eng.ValueOf(Omega); math.Abs(got-omega) > eps {
				t.Errorf("%s %s: ValueOf(Omega) = %v, Ω %v", obj.Name(), name, got, omega)
			}
		}
	}
}

// TestUtilityIsSumOfIntervalValues pins the Engine.Utility contract
// the session's per-interval record relies on: Utility is the sum of
// IntervalUtility(t) over increasing t, and ValueOf(Objective()) is
// Utility, bit for bit, on every engine under every objective, at
// several fills and after an Unapply.
func TestUtilityIsSumOfIntervalValues(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		inst := sestest.Random(sestest.Config{Seed: seed, Competing: 4, Intervals: 5})
		for _, obj := range testObjectives(t) {
			for name, eng := range newEngines(inst) {
				eng.SetObjective(obj)
				check := func(what string) {
					t.Helper()
					sum := 0.0
					for ti := 0; ti < inst.NumIntervals; ti++ {
						sum += eng.IntervalUtility(ti)
					}
					u := eng.Utility()
					if math.Float64bits(u) != math.Float64bits(sum) {
						t.Fatalf("seed %d %s %s %s: Utility %v, interval sum %v", seed, obj.Name(), name, what, u, sum)
					}
					if v := eng.ValueOf(obj); math.Float64bits(v) != math.Float64bits(u) {
						t.Fatalf("seed %d %s %s %s: ValueOf %v, Utility %v", seed, obj.Name(), name, what, v, u)
					}
				}
				check("empty")
				for _, fill := range []int{1, 4, 9} {
					greedyFill(eng, fill)
					check(fmt.Sprintf("fill %d", fill))
				}
				if a := eng.Schedule().Assignments(); len(a) > 0 {
					if err := eng.Unapply(a[len(a)/2].Event); err != nil {
						t.Fatal(err)
					}
					check("after an Unapply")
				}
			}
		}
	}
}

// TestForkInheritsObjective: forks must evaluate the same objective as
// the parent, independently.
func TestForkInheritsObjective(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 17, Competing: 3})
	fair := mustFairness(t, 0.5)
	for name, eng := range newEngines(inst) {
		eng.SetObjective(fair)
		greedyFill(eng, 4)
		fork := eng.Fork()
		if fork.Objective() != fair {
			t.Fatalf("%s: fork lost the objective", name)
		}
		if got, want := fork.Utility(), eng.Utility(); got != want {
			t.Errorf("%s: fork Utility %v != parent %v", name, got, want)
		}
	}
}

// TestSetObjectiveNilRestoresOmega documents the nil contract.
func TestSetObjectiveNilRestoresOmega(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 5})
	eng := NewSparse(inst)
	eng.SetObjective(mustFairness(t, 1))
	eng.SetObjective(nil)
	if eng.Objective() != Omega {
		t.Fatalf("SetObjective(nil) left %v", eng.Objective())
	}
}

// TestAttendanceThresholdBehavior: with a high threshold, a thin
// schedule is worth nothing; dropping the threshold to 0 recovers the
// Ω value on every user with scheduled interest.
func TestAttendanceThresholdBehavior(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 7, Competing: 6, Density: 0.3})
	eng := NewSparse(inst)
	greedyFill(eng, 5)
	omega := eng.ValueOf(Omega)
	zero := eng.ValueOf(mustAttendance(t, 0))
	if math.Abs(zero-omega) > eps {
		t.Errorf("attendance:0 value %v should equal Ω %v", zero, omega)
	}
	prev := math.Inf(1)
	for _, theta := range []float64{0, 0.25, 0.5, 0.75, 1} {
		v := eng.ValueOf(mustAttendance(t, theta))
		if v > prev+eps {
			t.Errorf("attendance value grew as θ rose: %v -> %v at θ=%v", prev, v, theta)
		}
		if v < -eps || v > omega+eps {
			t.Errorf("attendance:%v value %v outside [0, Ω=%v]", theta, v, omega)
		}
		prev = v
	}
}

// TestFairnessBlendIsLinear: F_λ = (1-λ)·F_0 + λ·F_1 on any fixed
// schedule, so the fairness term can be read off as the value under
// blend 1.
func TestFairnessBlendIsLinear(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 11, Competing: 4})
	eng := NewSparse(inst)
	greedyFill(eng, 5)
	f0 := eng.ValueOf(mustFairness(t, 0))
	f1 := eng.ValueOf(mustFairness(t, 1))
	omega := eng.ValueOf(Omega)
	if math.Abs(f0-omega) > eps {
		t.Errorf("fairness:0 value %v should equal Ω %v", f0, omega)
	}
	for _, l := range []float64{0.2, 0.5, 0.9} {
		got := eng.ValueOf(mustFairness(t, l))
		want := (1-l)*f0 + l*f1
		if math.Abs(got-want) > eps {
			t.Errorf("fairness:%v value %v, want blend %v", l, got, want)
		}
	}
}
