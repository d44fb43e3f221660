package solver

import (
	"context"
	"math"

	"ses/internal/core"
	"ses/internal/randx"
)

// Anneal is a simulated-annealing solver over the relocate/swap move
// neighborhood. It starts from the RAND baseline's schedule (so its
// improvement over RAND is attributable to the search, not the seed)
// and accepts worsening moves with the Metropolis probability
// exp(Δ/temperature) under a geometric cooling schedule, keeping the
// best schedule seen. It exists to probe how much headroom the greedy
// leaves on realistic instances.
type Anneal struct {
	seed  uint64
	steps int
	cfg   Config
	// InitialTemp and Cooling override the defaults when positive.
	InitialTemp float64
	Cooling     float64
}

// NewAnneal returns an annealing solver. steps <= 0 selects a budget
// proportional to the instance (200·|E|).
func NewAnneal(seed uint64, steps int, cfg Config) *Anneal {
	return &Anneal{seed: seed, steps: steps, cfg: cfg}
}

// Name returns "anneal".
func (s *Anneal) Name() string { return "anneal" }

// Solve runs the annealer. Anneal is anytime: a deadline expiring
// mid-run materializes the best schedule seen so far with
// Result.Stopped set (a deadline already expired during the RAND
// start yields an empty feasible schedule).
func (s *Anneal) Solve(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if err := validate(inst, k); err != nil {
		return nil, err
	}
	res := &Result{Solver: s.Name()}
	// The RAND start runs without the progress callback: Anneal
	// streams the replay and its own moves, and double reporting
	// would show the start schedule twice under two names.
	startCfg := s.cfg
	startCfg.Progress = nil
	start, err := NewRAND(s.seed, startCfg).Solve(ctx, inst, k)
	if err != nil {
		// RAND is one-shot, so a deadline surfaces as an error; for the
		// anytime contract an empty schedule is the best-so-far then.
		if stop, serr := ctxCheck(ctx, true); serr == nil && stop != "" {
			return finish(res, s.cfg.engine()(inst), stop), nil
		}
		return nil, err
	}
	eng := s.cfg.instrument(s.Name(), s.cfg.engine()(inst))
	for _, a := range start.Schedule.Assignments() {
		if err := eng.Apply(a.Event, a.Interval); err != nil {
			return nil, err
		}
	}
	sched := eng.Schedule()
	src := randx.NewSource(s.seed ^ 0x5e55a11ea1)

	steps := s.steps
	if steps <= 0 {
		steps = 200 * inst.NumEvents()
	}
	temp := s.InitialTemp
	if temp <= 0 {
		// Scale with a typical score so early acceptance is permissive.
		temp = 1
		if sched.Size() > 0 {
			temp = math.Max(eng.Utility()/float64(sched.Size())/2, 1e-3)
		}
	}
	cooling := s.Cooling
	if cooling <= 0 {
		cooling = math.Pow(1e-3, 1/float64(steps)) // end near temp/1000
	}

	cur := eng.Utility()
	best := cur
	bestAssgn := sched.Assignments()

	for step := 0; step < steps; step++ {
		if stop, err := ctxCheck(ctx, true); err != nil {
			return nil, err
		} else if stop != "" {
			res.Stopped = stop
			break
		}
		assgn := sched.Assignments()
		if len(assgn) == 0 {
			break
		}
		victim := assgn[src.IntN(len(assgn))]
		if err := eng.Unapply(victim.Event); err != nil {
			return nil, err
		}
		gainBack := eng.Score(victim.Event, victim.Interval)
		res.Counters.ScoreUpdates++

		// Candidate move: random event (possibly the victim), random
		// valid interval.
		e := src.IntN(inst.NumEvents())
		t := src.IntN(inst.NumIntervals)
		ok := !sched.Contains(e) && sched.IsValid(e, t)
		accepted := false
		if ok {
			gain := eng.Score(e, t)
			res.Counters.ScoreUpdates++
			delta := gain - gainBack
			if delta >= 0 || src.Float64() < math.Exp(delta/temp) {
				if err := eng.Apply(e, t); err != nil {
					return nil, err
				}
				cur += -gainBack + gain
				accepted = true
				res.Counters.Moves++
			}
		}
		if !accepted {
			if err := eng.Apply(victim.Event, victim.Interval); err != nil {
				return nil, err
			}
		}
		if cur > best+1e-12 {
			best = cur
			bestAssgn = sched.Assignments()
		}
		temp *= cooling
	}

	// Materialize the best schedule seen.
	finalEng := s.cfg.engine()(inst)
	for _, a := range bestAssgn {
		if err := finalEng.Apply(a.Event, a.Interval); err != nil {
			return nil, err
		}
	}
	return finish(res, finalEng, res.Stopped), nil
}

var _ Solver = (*Anneal)(nil)
