package solver

import (
	"context"

	"ses/internal/core"
	"ses/internal/randx"
)

// TOP is the paper's first baseline: it "computes the assignment
// scores for all the events and selects the events with top-k score
// values" — the k best-scoring assignments overall, with no score
// updates and no replacement for picks that turn out invalid. Because
// a high-interest event produces near-identical scores across many
// intervals, the top-k pairs concentrate on a handful of distinct
// events (an event's second and later pairs are invalid once its first
// is applied), so TOP typically schedules far fewer than k events.
// This is what makes the paper report TOP "considerably low ... in all
// cases" (Fig. 1a/1c). See TOPFill for the stronger walk-down-the-list
// variant.
type TOP struct {
	cfg Config
}

// NewTOP returns the TOP baseline.
func NewTOP(cfg Config) *TOP { return &TOP{cfg: cfg} }

// Name returns "top".
func (s *TOP) Name() string { return "top" }

// Solve applies the valid assignments among the k best-scoring ones.
// TOP is one-shot: any done context (cancel or deadline) returns
// ctx.Err().
func (s *TOP) Solve(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if err := validate(inst, k); err != nil {
		return nil, err
	}
	eng := s.cfg.instrument(s.Name(), s.cfg.engine()(inst))
	res := &Result{Solver: s.Name()}

	wl, err := newWorklist(ctx, eng, s.cfg.workers(), &res.Counters)
	if err != nil {
		return nil, err
	}
	wl.sortByScore()
	wl.truncate(k)

	sched := eng.Schedule()
	for _, a := range wl.list {
		if _, err := ctxCheck(ctx, false); err != nil {
			return nil, err
		}
		res.Counters.ListScans++
		if !sched.IsValid(a.event, a.interval) {
			continue
		}
		if err := eng.Apply(a.event, a.interval); err != nil {
			return nil, err
		}
	}

	return finish(res, eng, res.Stopped), nil
}

var _ Solver = (*TOP)(nil)

// TOPFill is an extension of TOP that keeps walking down the sorted
// assignment list past the first k entries until k valid assignments
// have been applied (or the list is exhausted). It isolates how much
// of TOP's weakness comes from wasting picks on invalid pairs versus
// from never updating scores; the ablation bench compares the two.
type TOPFill struct {
	cfg Config
}

// NewTOPFill returns the fill variant.
func NewTOPFill(cfg Config) *TOPFill { return &TOPFill{cfg: cfg} }

// Name returns "topfill".
func (s *TOPFill) Name() string { return "topfill" }

// Solve walks the full sorted list applying valid assignments until k
// are scheduled. TOPFill is one-shot: any done context returns
// ctx.Err().
func (s *TOPFill) Solve(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if err := validate(inst, k); err != nil {
		return nil, err
	}
	eng := s.cfg.instrument(s.Name(), s.cfg.engine()(inst))
	res := &Result{Solver: s.Name()}

	wl, err := newWorklist(ctx, eng, s.cfg.workers(), &res.Counters)
	if err != nil {
		return nil, err
	}
	wl.sortByScore()

	sched := eng.Schedule()
	for _, a := range wl.list {
		if sched.Size() >= k {
			break
		}
		if _, err := ctxCheck(ctx, false); err != nil {
			return nil, err
		}
		res.Counters.ListScans++
		if !sched.IsValid(a.event, a.interval) {
			continue
		}
		if err := eng.Apply(a.event, a.interval); err != nil {
			return nil, err
		}
	}

	return finish(res, eng, res.Stopped), nil
}

var _ Solver = (*TOPFill)(nil)

// RAND is the paper's second baseline: it assigns events to intervals
// uniformly at random, keeping only valid assignments, until k events
// are scheduled (or no valid assignment remains). It computes no
// scores, so cfg.Workers has nothing to parallelize.
type RAND struct {
	seed uint64
	cfg  Config
}

// NewRAND returns the RAND baseline with the given seed.
func NewRAND(seed uint64, cfg Config) *RAND { return &RAND{seed: seed, cfg: cfg} }

// Name returns "rand".
func (s *RAND) Name() string { return "rand" }

// Solve assigns k random valid assignments. RAND is one-shot: any
// done context returns ctx.Err().
func (s *RAND) Solve(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if err := validate(inst, k); err != nil {
		return nil, err
	}
	eng := s.cfg.instrument(s.Name(), s.cfg.engine()(inst))
	res := &Result{Solver: s.Name()}
	src := randx.NewSource(s.seed)
	sched := eng.Schedule()

	// Rejection sampling with a budget, then a systematic sweep so the
	// solver always terminates with a maximal random schedule even on
	// nearly-full instances.
	budget := 50 * k
	for sched.Size() < k && budget > 0 {
		if _, err := ctxCheck(ctx, false); err != nil {
			return nil, err
		}
		budget--
		e := src.IntN(inst.NumEvents())
		t := src.IntN(inst.NumIntervals)
		if !sched.IsValid(e, t) {
			continue
		}
		if err := eng.Apply(e, t); err != nil {
			return nil, err
		}
	}
	if sched.Size() < k {
		for _, e := range src.Perm(inst.NumEvents()) {
			if sched.Size() >= k {
				break
			}
			if _, err := ctxCheck(ctx, false); err != nil {
				return nil, err
			}
			if sched.Contains(e) {
				continue
			}
			for _, t := range src.Perm(inst.NumIntervals) {
				if sched.IsValid(e, t) {
					if err := eng.Apply(e, t); err != nil {
						return nil, err
					}
					break
				}
			}
		}
	}

	return finish(res, eng, res.Stopped), nil
}

var _ Solver = (*RAND)(nil)
