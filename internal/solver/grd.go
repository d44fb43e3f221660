package solver

import (
	"context"
	"fmt"

	"ses/internal/choice"
	"ses/internal/core"
)

// GRD is the paper's greedy algorithm (Algorithm 1). It generates the
// scores of all |E|·|T| assignments (in parallel when cfg.Workers > 1;
// the output is identical either way), then runs the selection phase,
// SelectGreedy, on the full list.
type GRD struct {
	cfg Config
}

// NewGRD returns the greedy solver.
func NewGRD(cfg Config) *GRD { return &GRD{cfg: cfg} }

// Name returns "grd".
func (g *GRD) Name() string { return "grd" }

// Solve runs Algorithm 1. GRD is anytime: on context deadline it
// returns the feasible schedule built so far with Result.Stopped set;
// on cancellation it returns ctx.Err().
func (g *GRD) Solve(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if err := validate(inst, k); err != nil {
		return nil, err
	}
	// The engine stays unwrapped: SelectGreedy reports progress itself,
	// and a decorator would hide the choice.Bounder it looks for.
	eng := g.cfg.engine()(inst)
	res := &Result{Solver: g.Name()}

	// Lines 2–4: generate assignments and compute initial scores.
	wl, err := newWorklist(ctx, eng, g.cfg.workers(), &res.Counters)
	if err != nil {
		if stop, serr := ctxCheck(ctx, true); serr == nil && stop != "" {
			return finish(res, eng, stop), nil
		}
		return nil, err
	}
	stop, err := SelectGreedy(ctx, eng, wl, k, nil, &res.Counters, g.Name(), g.cfg.Progress)
	if err != nil {
		return nil, err
	}
	return finish(res, eng, stop), nil
}

// SelectGreedy is the selection phase of Algorithm 1 (lines 5–13).
// GRD runs it on the full scored cross product; the session layer
// runs it on its patched score cache under pins, forbids and
// cancellations.
//
// The pins are applied first, in the given order; they count toward k
// and are honored even past it. An infeasible pin is an error. The
// scores in wl assume an empty schedule, so the valid entries at a
// pinned interval are rescored before selection starts. Then, while
// fewer than k events are scheduled, the largest score is popped with
// a linear scan (the paper's popTopAssgn, ties toward the earliest
// (event, interval)); an invalid pop is dropped, a valid one is
// applied, and every remaining assignment at the same interval is
// rescored while invalid ones are removed.
//
// When eng is a choice.Bounder with valid bounds (the pruned engine
// under a linear submodular objective), rescores take the O(k)
// ScoreUpper instead of the exact fold and mark the entry approximate.
// A popped approximate entry is resolved to its exact score and
// reinserted, so only an exact score accepts. Because every bound
// dominates its exact score, the accepted entry is the true argmax —
// the threshold-algorithm trade: cheap rescores for an occasional
// extra exact fold when bounds fail to separate.
//
// progress, when non-nil, receives one notification per applied
// assignment, pins included, under solverName. ctx is checked before
// every pop: a deadline returns (StoppedDeadline, nil) with the
// feasible best-so-far applied to eng; cancellation returns ctx.Err().
func SelectGreedy(ctx context.Context, eng choice.Engine, wl *Worklist, k int, pins []core.Assignment,
	cnt *Counters, solverName string, progress func(Progress)) (stop string, err error) {
	sched := eng.Schedule()
	bounder, _ := eng.(choice.Bounder)
	if bounder != nil && !bounder.BoundsValid() {
		bounder = nil
	}
	apply := func(event, t int) error {
		if err := eng.Apply(event, t); err != nil {
			return err
		}
		if progress != nil {
			progress(Progress{Solver: solverName, Event: event, Interval: t, Scheduled: sched.Size()})
		}
		return nil
	}

	if len(pins) > 0 {
		pinned := make([]bool, eng.Instance().NumIntervals)
		for _, p := range pins {
			if err := sched.Validity(p.Event, p.Interval); err != nil {
				return "", fmt.Errorf("solver: pinned assignment (%d,%d) is infeasible: %w", p.Event, p.Interval, err)
			}
			if err := apply(p.Event, p.Interval); err != nil {
				return "", err
			}
			pinned[p.Interval] = true
		}
		for i := range wl.list {
			if a := &wl.list[i]; pinned[a.interval] && sched.Validity(a.event, a.interval) == nil {
				rescore(eng, bounder, a, cnt)
			}
		}
	}

	for sched.Size() < k && len(wl.list) > 0 {
		if stop, err := ctxCheck(ctx, true); err != nil || stop != "" {
			return stop, err
		}
		// Line 6: popTopAssgn.
		top := wl.popTop(cnt)

		// Line 7: validity check; invalid pops are simply discarded
		// and the next top is tried.
		if sched.Validity(top.event, top.interval) != nil {
			continue
		}
		// An approximate (upper-bound) entry that reached the top must
		// be resolved to its exact score and recontend: only an exact
		// score that tops every remaining bound is the true argmax.
		if top.approx {
			top.score = eng.Score(top.event, top.interval)
			top.approx = false
			cnt.ScoreUpdates++
			wl.list = append(wl.list, top)
			continue
		}
		// Line 8: insert into the schedule. Validity was checked
		// above; failure means a bug.
		if err := apply(top.event, top.interval); err != nil {
			return "", err
		}

		// Lines 9–13: update same-interval scores, drop invalid
		// assignments.
		if sched.Size() < k {
			dst := wl.list[:0]
			for _, a := range wl.list {
				cnt.ListScans++
				valid := sched.Validity(a.event, a.interval) == nil
				switch {
				case a.interval == top.interval && valid:
					rescore(eng, bounder, &a, cnt)
					dst = append(dst, a)
				case !valid:
					// removed (line 13)
				default:
					dst = append(dst, a)
				}
			}
			wl.list = dst
		}
	}
	return "", nil
}

// rescore refreshes a against eng's current schedule: with the O(k)
// upper bound when bounder is non-nil, exactly otherwise.
func rescore(eng choice.Engine, bounder choice.Bounder, a *assignment, cnt *Counters) {
	if bounder != nil {
		a.score = bounder.ScoreUpper(a.event, a.interval)
		a.approx = true
		cnt.BoundUpdates++
		return
	}
	a.score = eng.Score(a.event, a.interval)
	cnt.ScoreUpdates++
}

var _ Solver = (*GRD)(nil)
