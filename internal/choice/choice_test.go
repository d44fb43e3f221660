package choice

import (
	"math"
	"testing"

	"ses/internal/core"
	"ses/internal/sestest"
)

const eps = 1e-9

// engines under test, by name.
func newEngines(inst *core.Instance) map[string]Engine {
	return map[string]Engine{
		"sparse": NewSparse(inst),
		"dense":  NewDense(inst),
		"ref":    NewRef(inst),
	}
}

// greedyFill exercises non-trivial schedules via the shared
// round-robin fill.
func greedyFill(e Engine, max int) {
	if err := FillRoundRobin(e, max); err != nil {
		panic(err)
	}
}

func TestEnginesMatchReferenceOnRandomInstances(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		inst := sestest.Random(sestest.Config{Seed: seed, Competing: 5})
		for name, eng := range newEngines(inst) {
			greedyFill(eng, 6)
			s := eng.Schedule()
			if err := s.CheckFeasible(); err != nil {
				t.Fatalf("seed %d %s: infeasible schedule: %v", seed, name, err)
			}
			// Utility vs reference.
			if got, want := eng.Utility(), ReferenceUtility(inst, s); math.Abs(got-want) > eps {
				t.Errorf("seed %d %s: Utility = %v, reference %v", seed, name, got, want)
			}
			// Per-event attendance vs reference.
			for _, a := range s.Assignments() {
				got := eng.EventAttendance(a.Event)
				want := ReferenceEventAttendance(inst, s, a.Event)
				if math.Abs(got-want) > eps {
					t.Errorf("seed %d %s: ω(e%d) = %v, reference %v", seed, name, a.Event, got, want)
				}
			}
			// Scores of all remaining valid assignments vs reference.
			for ev := 0; ev < inst.NumEvents(); ev++ {
				if s.Contains(ev) {
					continue
				}
				for ti := 0; ti < inst.NumIntervals; ti++ {
					if !s.IsValid(ev, ti) {
						continue
					}
					got := eng.Score(ev, ti)
					want, err := ReferenceScore(inst, s, ev, ti)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(got-want) > eps {
						t.Errorf("seed %d %s: Score(e%d,t%d) = %v, reference %v",
							seed, name, ev, ti, got, want)
					}
				}
			}
		}
	}
}

func TestSparseAndDenseAgreeExactly(t *testing.T) {
	for seed := uint64(20); seed < 26; seed++ {
		inst := sestest.Random(sestest.Config{Seed: seed, Competing: 8, Users: 40, Events: 15})
		sp, de := NewSparse(inst), NewDense(inst)
		greedyFill(sp, 8)
		greedyFill(de, 8)
		if sp.Schedule().Size() != de.Schedule().Size() {
			t.Fatalf("seed %d: fill diverged", seed)
		}
		for ev := 0; ev < inst.NumEvents(); ev++ {
			for ti := 0; ti < inst.NumIntervals; ti++ {
				if sp.Schedule().Contains(ev) {
					continue
				}
				a, b := sp.Score(ev, ti), de.Score(ev, ti)
				if math.Abs(a-b) > 1e-12 {
					t.Errorf("seed %d: Score(e%d,t%d) sparse %v vs dense %v", seed, ev, ti, a, b)
				}
			}
		}
		if a, b := sp.Utility(), de.Utility(); math.Abs(a-b) > 1e-9 {
			t.Errorf("seed %d: Utility sparse %v vs dense %v", seed, a, b)
		}
	}
}

func TestScoreBatchMatchesScore(t *testing.T) {
	// ScoreBatch must be bit-identical to a Score loop — the solver
	// layer's parallel scoring relies on it. The two configs put
	// Sparse on both sides of its dense-view threshold (candidate rows
	// holding at least NumUsers entries in total), and every engine is
	// checked at three schedule sizes, so intervals carry scheduled
	// mass, under Omega and under nonlinear Fairness.
	fair, err := NewFairness(0.5)
	if err != nil {
		t.Fatal(err)
	}
	configs := []sestest.Config{
		{Competing: 5}, // ~80 entries for 20 users: dense
		{Users: 300, Events: 12, Competing: 6, Density: 0.02}, // ~70 entries for 300 users: serial
	}
	sides := map[bool]bool{}
	for _, cfg := range configs {
		for seed := uint64(90); seed < 96; seed++ {
			cfg.Seed = seed
			inst := sestest.Random(cfg)
			events := make([]int, inst.NumEvents())
			for i := range events {
				events[i] = i
			}
			sides[NewSparse(inst).viewOK] = true
			out := make([]float64, len(events))
			for _, obj := range []Objective{Omega, fair} {
				for name, eng := range newEngines(inst) {
					eng.SetObjective(obj)
					for _, fill := range []int{0, 3, 6} {
						greedyFill(eng, fill)
						for ti := 0; ti < inst.NumIntervals; ti++ {
							eng.ScoreBatch(events, ti, out)
							for i, ev := range events {
								if want := eng.Score(ev, ti); math.Float64bits(out[i]) != math.Float64bits(want) {
									t.Errorf("seed %d users %d %s %s fill %d: ScoreBatch(e%d,t%d) = %v, Score = %v",
										seed, inst.NumUsers, obj.Name(), name, fill, ev, ti, out[i], want)
								}
							}
						}
					}
				}
			}
		}
	}
	if !sides[true] || !sides[false] {
		t.Fatalf("configs cover the dense threshold only on side %v", sides)
	}
}

func TestForkedScoresMatchOriginal(t *testing.T) {
	// Forks must score identically (bit-for-bit) to the engine they
	// were forked from; parallel initial scoring forks one engine per
	// worker and merges the numbers back into one worklist.
	for seed := uint64(110); seed < 114; seed++ {
		inst := sestest.Random(sestest.Config{Seed: seed, Competing: 6})
		for name, eng := range newEngines(inst) {
			greedyFill(eng, 3)
			f := eng.Fork()
			for ev := 0; ev < inst.NumEvents(); ev++ {
				for ti := 0; ti < inst.NumIntervals; ti++ {
					if a, b := eng.Score(ev, ti), f.Score(ev, ti); a != b {
						t.Fatalf("seed %d %s: fork Score(e%d,t%d) = %v, original %v",
							seed, name, ev, ti, b, a)
					}
				}
			}
		}
	}
}

func TestScoreTelescopesToUtility(t *testing.T) {
	// Ω(S) must equal the sum of the scores of the applied assignments
	// (Eq. 3 is separable over intervals and Eq. 4 is the per-interval
	// delta). This is the paper's implicit invariant behind GRD.
	for seed := uint64(30); seed < 40; seed++ {
		inst := sestest.Random(sestest.Config{Seed: seed, Competing: 6})
		for name, eng := range newEngines(inst) {
			total := 0.0
			tt := 0
			applied := 0
			for ev := 0; ev < inst.NumEvents() && applied < 7; ev++ {
				tt = (tt + 1) % inst.NumIntervals
				if !eng.Schedule().IsValid(ev, tt) {
					continue
				}
				total += eng.Score(ev, tt)
				if err := eng.Apply(ev, tt); err != nil {
					t.Fatal(err)
				}
				applied++
			}
			if got := eng.Utility(); math.Abs(got-total) > eps {
				t.Errorf("seed %d %s: Ω = %v but Σ scores = %v", seed, name, got, total)
			}
		}
	}
}

func TestAttendanceProbBounds(t *testing.T) {
	// 0 <= ρ <= σ <= 1 and Σ_{e∈Et} ρ(u,e) <= σ(u,t).
	for seed := uint64(50); seed < 56; seed++ {
		inst := sestest.Random(sestest.Config{Seed: seed, Competing: 4})
		eng := NewSparse(inst)
		greedyFill(eng, 6)
		s := eng.Schedule()
		for u := 0; u < inst.NumUsers; u++ {
			for ti := 0; ti < inst.NumIntervals; ti++ {
				sigma := inst.Activity.Prob(u, ti)
				sumRho := 0.0
				for _, ev := range s.EventsAt(ti) {
					rho := ReferenceAttendanceProb(inst, s, u, ev)
					if rho < 0 || rho > sigma+eps {
						t.Fatalf("seed %d: ρ(u%d,e%d) = %v outside [0, σ=%v]", seed, u, ev, rho, sigma)
					}
					sumRho += rho
				}
				if sumRho > sigma+eps {
					t.Fatalf("seed %d: Σρ = %v exceeds σ = %v at t%d for u%d", seed, sumRho, sigma, ti, u)
				}
			}
		}
	}
}

func TestMarginalGainsDiminishPerInterval(t *testing.T) {
	// Per-interval submodularity: after assigning more events to t,
	// the score of any remaining assignment at t must not increase.
	// This property is what makes the lazy-greedy solver exact.
	for seed := uint64(60); seed < 68; seed++ {
		inst := sestest.Random(sestest.Config{Seed: seed, Competing: 5, Events: 12, Intervals: 3, Resources: 50})
		eng := NewSparse(inst)
		const t0 = 0
		before := map[int]float64{}
		for ev := 0; ev < inst.NumEvents(); ev++ {
			before[ev] = eng.Score(ev, t0)
		}
		// Assign some event to t0.
		assigned := -1
		for ev := 0; ev < inst.NumEvents(); ev++ {
			if eng.Schedule().IsValid(ev, t0) {
				if err := eng.Apply(ev, t0); err != nil {
					t.Fatal(err)
				}
				assigned = ev
				break
			}
		}
		if assigned < 0 {
			t.Fatalf("seed %d: nothing assignable", seed)
		}
		for ev := 0; ev < inst.NumEvents(); ev++ {
			if ev == assigned {
				continue
			}
			after := eng.Score(ev, t0)
			if after > before[ev]+eps {
				t.Errorf("seed %d: score of (e%d,t0) rose from %v to %v after assignment",
					seed, ev, before[ev], after)
			}
		}
	}
}

func TestScoresAtOtherIntervalsUnchanged(t *testing.T) {
	// Assigning at t must not affect scores at other intervals
	// (interval separability of Eq. 3).
	inst := sestest.Random(sestest.Config{Seed: 99, Competing: 5, Intervals: 4})
	eng := NewSparse(inst)
	type key struct{ e, t int }
	before := map[key]float64{}
	for ev := 0; ev < inst.NumEvents(); ev++ {
		for ti := 1; ti < inst.NumIntervals; ti++ {
			before[key{ev, ti}] = eng.Score(ev, ti)
		}
	}
	for ev := 0; ev < inst.NumEvents(); ev++ {
		if eng.Schedule().IsValid(ev, 0) {
			if err := eng.Apply(ev, 0); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	for k, v := range before {
		if got := eng.Score(k.e, k.t); math.Abs(got-v) > 1e-12 {
			t.Fatalf("score (e%d,t%d) changed from %v to %v after assignment at t0", k.e, k.t, v, got)
		}
	}
}

func TestUnapplyRestoresState(t *testing.T) {
	for seed := uint64(70); seed < 76; seed++ {
		inst := sestest.Random(sestest.Config{Seed: seed, Competing: 5})
		for name, eng := range newEngines(inst) {
			greedyFill(eng, 4)
			utilBefore := eng.Utility()
			// Apply + Unapply an extra event: state must round-trip.
			var ev, ti = -1, -1
			for e2 := 0; e2 < inst.NumEvents() && ev < 0; e2++ {
				for t2 := 0; t2 < inst.NumIntervals; t2++ {
					if eng.Schedule().IsValid(e2, t2) {
						ev, ti = e2, t2
						break
					}
				}
			}
			if ev < 0 {
				continue
			}
			scoreBefore := eng.Score(ev, ti)
			if err := eng.Apply(ev, ti); err != nil {
				t.Fatal(err)
			}
			if err := eng.Unapply(ev); err != nil {
				t.Fatal(err)
			}
			if got := eng.Utility(); math.Abs(got-utilBefore) > eps {
				t.Errorf("seed %d %s: utility %v after undo, want %v", seed, name, got, utilBefore)
			}
			if got := eng.Score(ev, ti); math.Abs(got-scoreBefore) > eps {
				t.Errorf("seed %d %s: score %v after undo, want %v", seed, name, got, scoreBefore)
			}
			if got, want := eng.Utility(), ReferenceUtility(inst, eng.Schedule()); math.Abs(got-want) > eps {
				t.Errorf("seed %d %s: utility %v vs reference %v after undo", seed, name, got, want)
			}
		}
	}
}

func TestNoCompetitionSingleEventCapturesFullInterest(t *testing.T) {
	// With no competing events and a single scheduled event, each
	// interested user attends with probability exactly σ (their whole
	// activity mass goes to the only option).
	inst := sestest.Random(sestest.NoCompetition(sestest.Config{Seed: 7}))
	eng := NewSparse(inst)
	if err := eng.Apply(0, 0); err != nil {
		t.Fatal(err)
	}
	row := inst.CandInterest.Row(0)
	want := 0.0
	for _, id := range row.IDs {
		want += inst.Activity.Prob(int(id), 0)
	}
	if got := eng.EventAttendance(0); math.Abs(got-want) > eps {
		t.Fatalf("ω = %v, want Σσ = %v", got, want)
	}
}

func TestApplyInvalidAssignmentFails(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 3})
	for name, eng := range newEngines(inst) {
		if err := eng.Apply(0, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := eng.Apply(0, 1); err == nil {
			t.Errorf("%s: double assignment accepted", name)
		}
		if err := eng.Unapply(5); eng.Schedule().Contains(5) || err == nil {
			t.Errorf("%s: Unapply of unassigned event accepted", name)
		}
	}
}

func TestEmptyScheduleUtilityZero(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 1, Competing: 3})
	for name, eng := range newEngines(inst) {
		if u := eng.Utility(); u != 0 {
			t.Errorf("%s: empty schedule utility %v", name, u)
		}
		if w := eng.EventAttendance(0); w != 0 {
			t.Errorf("%s: unassigned event attendance %v", name, w)
		}
	}
}
