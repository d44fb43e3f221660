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
// SelectGreedy, on the full list: as the paper's linear scan for
// "grd", in heap mode for "grdlazy".
type GRD struct {
	cfg  Config
	lazy bool
}

// NewGRD returns the greedy solver.
func NewGRD(cfg Config) *GRD { return &GRD{cfg: cfg} }

// NewGRDLazy returns GRD with its selection in heap mode (CELF lazy
// re-evaluation). Under a submodular objective (Omega) it selects
// exactly GRD's schedule with far fewer score updates; under
// attendance or fairness it is greedy-flavored only.
func NewGRDLazy(cfg Config) *GRD { return &GRD{cfg: cfg, lazy: true} }

// Name returns "grd", or "grdlazy" in heap mode.
func (g *GRD) Name() string {
	if g.lazy {
		return "grdlazy"
	}
	return "grd"
}

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
	_, stop, err := SelectGreedy(ctx, eng, wl, k, nil, nil, g.lazy, &res.Counters, g.Name(), g.cfg.Progress)
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
// replayed steps follow (see below). The scores in wl assume an empty
// schedule, so entries at an interval a pin or a replayed step went to
// must be rescored before they can be trusted. Then, while
// fewer than k events are scheduled, the top assignment (largest
// score, ties toward the earliest (event, interval)) is taken in one
// of two modes:
//
//   - Scan (lazy false) is the paper's list: popTopAssgn is a linear
//     scan, an invalid pop is dropped, a valid one is applied, and
//     every remaining assignment at the same interval is rescored
//     while invalid ones are removed. Entries at pinned intervals are
//     rescored before selection starts. Pops counts scans, and
//     ListScans the entries the scans and the updates traversed.
//   - Heap (lazy true) is CELF lazy re-evaluation over the same list,
//     heapified in place. Every interval carries a version, bumped on
//     each apply (pins and replayed steps included), and every entry
//     the version its score was computed at. A popped entry is
//     dropped if invalid, rescored and reinserted if stale, resolved
//     to its exact score and reinserted if approximate (see below),
//     and applied only when it is exact and current. Under a
//     submodular objective a stale score can only overstate the
//     current one, so the entry applied is the scan's argmax and both
//     modes select the same schedule; under attendance or fairness
//     heap mode is only greedy-flavored. Pops counts every pop — each
//     invalid entry dropped one by one, each stale or approximate
//     re-pop — and ListScans stays 0.
//
// When eng is a choice.Bounder with valid bounds (the pruned engine
// under a linear submodular objective), rescores take the O(k)
// ScoreUpper instead of the exact fold and mark the entry approximate.
// An approximate entry that reaches the top is resolved to its exact
// score and recontends, so only an exact score accepts. Because every
// bound dominates its exact score, the accepted entry is the true
// argmax — the threshold-algorithm trade: cheap rescores for an
// occasional extra exact fold when bounds fail to separate. In both
// modes ScoreUpdates counts exact rescores and BoundUpdates bound
// rescores.
//
// replay lists greedy steps the caller has certified that selection
// would take next, in order: a session replays the prefix of its last
// commit's steps that its mutations cannot have changed. They are
// applied right after the pins and enter the schedule the way pins
// do, bumping their intervals' versions, with no score and no pop
// (Counters.Replayed counts them); the caller leaves their events out
// of wl. Selection proper runs only while the schedule is still short
// of k.
//
// steps lists every step applied after the pins, replayed ones first,
// each with the exact score it won with: a replayed step keeps the
// score it was certified with, and a selected one reports its current
// score, which both modes have resolved exactly when they apply it.
// It is never nil when err is nil.
//
// progress, when non-nil, receives one notification per applied
// assignment, pins and replayed steps included, under solverName. ctx
// is checked before every replayed step and every pop: a deadline
// returns (steps so far, StoppedDeadline, nil) with the feasible
// best-so-far applied to eng; cancellation returns ctx.Err().
func SelectGreedy(ctx context.Context, eng choice.Engine, wl *Worklist, k int, pins []core.Assignment, replay []Step,
	lazy bool, cnt *Counters, solverName string, progress func(Progress)) (steps []Step, stop string, err error) {
	sched := eng.Schedule()
	bounder, _ := eng.(choice.Bounder)
	if bounder != nil && !bounder.BoundsValid() {
		bounder = nil
	}
	var versions []int32
	if lazy {
		versions = make([]int32, eng.Instance().NumIntervals)
	}
	apply := func(event, t int) error {
		if err := eng.Apply(event, t); err != nil {
			return err
		}
		if versions != nil {
			versions[t]++
		}
		if progress != nil {
			progress(Progress{Solver: solverName, Event: event, Interval: t, Scheduled: sched.Size()})
		}
		return nil
	}

	var pinned []bool
	if len(pins)+len(replay) > 0 {
		pinned = make([]bool, eng.Instance().NumIntervals)
	}
	for _, p := range pins {
		if err := sched.Validity(p.Event, p.Interval); err != nil {
			return nil, "", fmt.Errorf("solver: pinned assignment (%d,%d) is infeasible: %w", p.Event, p.Interval, err)
		}
		if err := apply(p.Event, p.Interval); err != nil {
			return nil, "", err
		}
		pinned[p.Interval] = true
	}
	steps = make([]Step, 0, len(replay))
	for _, st := range replay {
		// Replaying is selection too: a deadline stops it as it stops a
		// pop, with the steps replayed so far as the best-so-far.
		if stop, err = ctxCheck(ctx, true); err != nil || stop != "" {
			break
		}
		if err := apply(st.Event, st.Interval); err != nil {
			return nil, "", fmt.Errorf("solver: replayed step (%d,%d): %w", st.Event, st.Interval, err)
		}
		pinned[st.Interval] = true
		steps = append(steps, st)
		cnt.Replayed++
	}
	take := func(a assignment) error {
		if err := apply(a.event, a.interval); err != nil {
			return err
		}
		steps = append(steps, Step{Event: a.event, Interval: a.interval, Score: a.score})
		return nil
	}
	switch {
	case err != nil || stop != "":
	case lazy:
		// The pins and replayed steps bumped their intervals' versions,
		// so the entries there are stale until rescored.
		stop, err = selectHeap(ctx, eng, bounder, wl, k, versions, take, cnt)
	default:
		stop, err = selectScan(ctx, eng, bounder, wl, k, pinned, take, cnt)
	}
	if err != nil {
		return nil, "", err
	}
	return steps, stop, nil
}

// Step is one greedy step after the pins: the assignment applied and
// the exact score it won with.
type Step struct {
	Event, Interval int
	Score           float64
}

// Beats reports whether a outranks b in the order selection takes
// assignments in: the larger score, ties toward the earlier (event,
// interval).
func (a Step) Beats(b Step) bool {
	return better(assignment{event: a.Event, interval: a.Interval, score: a.Score},
		assignment{event: b.Event, interval: b.Interval, score: b.Score})
}

// selectScan is SelectGreedy's scan mode: the paper's list. pinned
// marks the intervals pins and replayed steps were applied to, if any.
func selectScan(ctx context.Context, eng choice.Engine, bounder choice.Bounder, wl *Worklist, k int,
	pinned []bool, take func(assignment) error, cnt *Counters) (string, error) {
	sched := eng.Schedule()
	if pinned != nil {
		for i := range wl.list {
			if a := &wl.list[i]; pinned[a.interval] && sched.IsValid(a.event, a.interval) {
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
		if !sched.IsValid(top.event, top.interval) {
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
		if err := take(top); err != nil {
			return "", err
		}

		// Lines 9–13: update same-interval scores, drop invalid
		// assignments.
		if sched.Size() < k {
			dst := wl.list[:0]
			for _, a := range wl.list {
				cnt.ListScans++
				valid := sched.IsValid(a.event, a.interval)
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

// selectHeap is SelectGreedy's heap mode: CELF over the same list.
// A pop that goes back in replaces the top and sifts down, which
// leaves the heap as a pop followed by a push would.
func selectHeap(ctx context.Context, eng choice.Engine, bounder choice.Bounder, wl *Worklist, k int,
	versions []int32, take func(assignment) error, cnt *Counters) (string, error) {
	sched := eng.Schedule()
	wl.heapify()
	for sched.Size() < k && len(wl.list) > 0 {
		if stop, err := ctxCheck(ctx, true); err != nil || stop != "" {
			return stop, err
		}
		cnt.Pops++
		top := &wl.list[0]
		switch {
		case !sched.IsValid(top.event, top.interval):
			wl.popHeap()
		case top.version != versions[top.interval]:
			rescore(eng, bounder, top, cnt)
			top.version = versions[top.interval]
			wl.down(0)
		case top.approx:
			top.score = eng.Score(top.event, top.interval)
			top.approx = false
			cnt.ScoreUpdates++
			wl.down(0)
		default:
			if err := take(wl.popHeap()); err != nil {
				return "", err
			}
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
