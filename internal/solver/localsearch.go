package solver

import (
	"context"

	"ses/internal/core"
)

// moveEps is the minimum improvement a move must yield to be accepted;
// it keeps floating-point noise from producing endless plateau walks.
const moveEps = 1e-9

// LocalSearch is a hill climber on top of a starting solver (GRD by
// default): it repeatedly applies the first improving move among
//
//   - relocate — move a scheduled event to a different interval;
//   - swap — replace a scheduled event with an unscheduled one (at any
//     valid interval);
//
// until a full pass yields no improvement or MaxPasses is exhausted.
// Because the greedy is already near-optimal on most instances, the
// typical gain is small but non-zero; the ablation bench quantifies
// it.
type LocalSearch struct {
	start     Solver
	maxPasses int
	cfg       Config
}

// NewLocalSearch wraps start (nil for GRD with the same cfg) with hill
// climbing. maxPasses <= 0 means 10 passes. The default start solver
// runs without the progress callback — LocalSearch streams each
// assignment itself when it replays the start schedule, and double
// reporting would show every selection twice under two names.
func NewLocalSearch(start Solver, maxPasses int, cfg Config) *LocalSearch {
	if start == nil {
		startCfg := cfg
		startCfg.Progress = nil
		start = NewGRD(startCfg)
	}
	if maxPasses <= 0 {
		maxPasses = 10
	}
	return &LocalSearch{start: start, maxPasses: maxPasses, cfg: cfg}
}

// Name returns "localsearch".
func (s *LocalSearch) Name() string { return "localsearch" }

// Solve runs the starting solver and then hill-climbs its schedule.
// LocalSearch is anytime: a deadline that expires during the climb
// (or already inside an anytime starting solver) returns the best
// feasible schedule reached so far with Result.Stopped set.
func (s *LocalSearch) Solve(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if err := validate(inst, k); err != nil {
		return nil, err
	}
	startRes, err := s.start.Solve(ctx, inst, k)
	if err != nil {
		return nil, err
	}
	// Replay the starting schedule on a fresh engine we own.
	eng := s.cfg.instrument(s.Name(), s.cfg.engine()(inst))
	for _, a := range startRes.Schedule.Assignments() {
		if err := eng.Apply(a.Event, a.Interval); err != nil {
			return nil, err
		}
	}
	res := &Result{Solver: s.Name(), Counters: startRes.Counters}
	sched := eng.Schedule()
	if startRes.Stopped != "" {
		// The starting solver already ran out of time; its schedule is
		// the best-so-far and climbing would blow through the deadline.
		return finish(res, eng, startRes.Stopped), nil
	}

climb:
	for pass := 0; pass < s.maxPasses; pass++ {
		improved := false
		for _, a := range sched.Assignments() {
			// The engine is consistent here (between moves), so this is
			// the boundary where stopping early is safe.
			if stop, err := ctxCheck(ctx, true); err != nil {
				return nil, err
			} else if stop != "" {
				res.Stopped = stop
				break climb
			}
			// Temporarily remove a.Event; gainBack is what re-adding
			// it at its old interval would contribute.
			if err := eng.Unapply(a.Event); err != nil {
				return nil, err
			}
			gainBack := eng.Score(a.Event, a.Interval)
			res.Counters.ScoreUpdates++

			bestGain := gainBack
			bestEvent, bestInterval := a.Event, a.Interval
			// Relocate: same event, other intervals.
			for t := 0; t < inst.NumIntervals; t++ {
				if t == a.Interval || !sched.IsValid(a.Event, t) {
					continue
				}
				res.Counters.ScoreUpdates++
				if g := eng.Score(a.Event, t); g > bestGain+moveEps {
					bestGain, bestEvent, bestInterval = g, a.Event, t
				}
			}
			// Swap: bring in an unscheduled event anywhere valid.
			for e := 0; e < inst.NumEvents(); e++ {
				if sched.Contains(e) || e == a.Event {
					continue
				}
				for t := 0; t < inst.NumIntervals; t++ {
					if !sched.IsValid(e, t) {
						continue
					}
					res.Counters.ScoreUpdates++
					if g := eng.Score(e, t); g > bestGain+moveEps {
						bestGain, bestEvent, bestInterval = g, e, t
					}
				}
			}
			if err := eng.Apply(bestEvent, bestInterval); err != nil {
				return nil, err
			}
			if bestEvent != a.Event || bestInterval != a.Interval {
				improved = true
				res.Counters.Moves++
			}
		}
		if !improved {
			break
		}
	}

	return finish(res, eng, res.Stopped), nil
}

var _ Solver = (*LocalSearch)(nil)
