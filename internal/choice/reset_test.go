package choice

import (
	"math"
	"testing"

	"ses/internal/core"
	"ses/internal/interest"
	"ses/internal/sestest"
)

// TestResetMatchesFreshEngine is the Reset contract: after any fill,
// Reset must make the engine bit-identical (in behavior) to a freshly
// built one — empty schedule, zero utility, and the same scores for
// the whole E×T cross product.
func TestResetMatchesFreshEngine(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		inst := sestest.Random(sestest.Config{Seed: seed, Competing: 5, Events: 10, Intervals: 4})
		for name, eng := range newEngines(inst) {
			greedyFill(eng, 6)
			eng.Reset()
			if eng.Schedule().Size() != 0 {
				t.Fatalf("seed %d %s: schedule not empty after Reset", seed, name)
			}
			if err := eng.Schedule().CheckFeasible(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if u := eng.Utility(); u != 0 {
				t.Errorf("seed %d %s: utility %v after Reset", seed, name, u)
			}
			fresh := newEngines(inst)[name]
			for e := 0; e < inst.NumEvents(); e++ {
				for ti := 0; ti < inst.NumIntervals; ti++ {
					if got, want := eng.Score(e, ti), fresh.Score(e, ti); got != want {
						t.Fatalf("seed %d %s: Score(%d,%d) = %v after Reset, fresh %v",
							seed, name, e, ti, got, want)
					}
				}
			}
			// The reset engine must be fully usable for a second solve.
			greedyFill(eng, 6)
			greedyFill(fresh, 6)
			if got, want := eng.Utility(), fresh.Utility(); math.Abs(got-want) > eps {
				t.Errorf("seed %d %s: second-solve utility %v, fresh %v", seed, name, got, want)
			}
		}
	}
}

// TestResetRepeatedlyIsStable guards the accumulator reuse: many
// fill/Reset cycles must not let residual state leak across cycles.
func TestResetRepeatedlyIsStable(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 9, Competing: 4, Events: 8, Intervals: 3})
	for name, eng := range newEngines(inst) {
		var first float64
		for cycle := 0; cycle < 5; cycle++ {
			greedyFill(eng, 5)
			u := eng.Utility()
			if cycle == 0 {
				first = u
			} else if u != first {
				t.Fatalf("%s: cycle %d utility %v, first cycle %v", name, cycle, u, first)
			}
			eng.Reset()
		}
	}
}

// TestPatchMatchesFreshEngine is the Patch contract: once the
// instance gains an event, a competing event and a new interest row,
// Patch and Reset make a used engine score the whole grown E×T cross
// product and value a second fill exactly like an engine built over
// the grown instance.
func TestPatchMatchesFreshEngine(t *testing.T) {
	cfg := sestest.Config{Competing: 5, Events: 10, Intervals: 4}
	for seed := uint64(0); seed < 4; seed++ {
		cfg.Seed = seed
		for name := range newEngines(sestest.Random(cfg)) {
			inst := sestest.Random(cfg)
			eng := newEngines(inst)[name]
			greedyFill(eng, 6)
			row := func(users ...int32) interest.SparseVector {
				vals := make([]float64, len(users))
				for i := range vals {
					vals[i] = 0.25 + 0.125*float64(i)
				}
				v, err := interest.NewSparseVector(users, vals)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			added, ti := inst.NumEvents(), int(seed)%inst.NumIntervals
			inst.Events = append(inst.Events, core.Event{Location: 0, Required: 1})
			inst.CandInterest.ByEvent = append(inst.CandInterest.ByEvent, row(1, 4, 9))
			inst.CandInterest.SetRow(2, row(0, 3, 5, 11))
			inst.Competing = append(inst.Competing, core.CompetingEvent{Interval: ti})
			inst.CompInterest.ByEvent = append(inst.CompInterest.ByEvent, row(3, 4))
			eng.Patch(map[int]bool{added: true, 2: true}, map[int]bool{ti: true})
			eng.Reset()
			fresh := newEngines(inst)[name]
			for e := 0; e < inst.NumEvents(); e++ {
				for tj := 0; tj < inst.NumIntervals; tj++ {
					if got, want := eng.Score(e, tj), fresh.Score(e, tj); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d %s: Score(%d,%d) = %v after Patch, fresh %v", seed, name, e, tj, got, want)
					}
				}
			}
			for _, e := range []Engine{eng, fresh} {
				if err := e.Apply(added, ti); err != nil {
					t.Fatalf("seed %d %s: %v", seed, name, err)
				}
				greedyFill(e, inst.NumEvents())
			}
			if got, want := eng.Utility(), fresh.Utility(); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("seed %d %s: utility %v after Patch, fresh %v", seed, name, got, want)
			}
		}
	}
}
