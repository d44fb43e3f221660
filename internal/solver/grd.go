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
	eng := Instrument(g.cfg.engine()(inst), g.Name(), g.cfg.Progress)
	res := &Result{Solver: g.Name()}

	// Lines 2–4: generate assignments and compute initial scores.
	wl, err := newWorklist(ctx, eng, g.cfg.workers(), &res.Counters)
	if err != nil {
		if stop, serr := ctxCheck(ctx, true); serr == nil && stop != "" {
			return finish(res, eng, stop), nil
		}
		return nil, err
	}
	_, stop, err := SelectGreedy(ctx, eng, wl, k, nil, nil, g.lazy, &res.Counters)
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
//   - Heap (lazy true) is CELF lazy re-evaluation over the same list.
//     Every interval carries a version, bumped on each apply (pins
//     and replayed steps included), and every entry the version its
//     score was computed at. The list is grouped in place into one
//     max-heap per event's entries under a heap of events, keyed by
//     each event's best entry, so the top is the best entry overall.
//     A top entry is dropped if invalid, rescored and sifted back if
//     stale, and applied only when it is current, which retires its
//     event's other entries in one step. Under a submodular objective
//     a stale score can only overstate the current one, so the entry
//     applied is the scan's argmax and both modes select the same
//     schedule; under attendance or fairness heap mode is only
//     greedy-flavored. Pops counts every top looked at — each invalid
//     entry dropped, each stale rescore, each pick — and ListScans
//     stays 0.
//
// In both modes ScoreUpdates counts the rescores.
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
// score, which both modes have brought up to date when they apply it.
// It is never nil when err is nil.
//
// Every assignment, pins and replayed steps included, goes through
// eng.Apply, so an engine wrapped by Instrument reports each one. ctx
// is checked before every replayed step and every pop: a deadline
// returns (steps so far, StoppedDeadline, nil) with the feasible
// best-so-far applied to eng; cancellation returns ctx.Err().
func SelectGreedy(ctx context.Context, eng choice.Engine, wl *Worklist, k int, pins []core.Assignment, replay []Step,
	lazy bool, cnt *Counters) (steps []Step, stop string, err error) {
	g := greedy{eng: eng, cnt: cnt}
	if stop, err = g.start(ctx, pins, replay, lazy); err == nil && stop == "" {
		if lazy {
			// The pins and replayed steps bumped their intervals'
			// versions, so the entries there are stale until rescored.
			stop, err = selectHeap(ctx, &g, wl, k)
		} else {
			stop, err = selectScan(ctx, &g, wl, k)
		}
	}
	if err != nil {
		return nil, "", err
	}
	return g.steps, stop, nil
}

// greedy is one SelectGreedy run: the engine it applies to, the steps
// applied after the pins and the work counters. versions are heap
// mode's interval versions (nil in scan mode), and pinned marks the
// intervals pins and replayed steps went to (nil when there are none).
type greedy struct {
	eng      choice.Engine
	versions []int32
	pinned   []bool
	steps    []Step
	cnt      *Counters
}

// start applies the pins, then the replayed steps. A deadline during
// the replay returns StoppedDeadline with the steps replayed so far.
func (g *greedy) start(ctx context.Context, pins []core.Assignment, replay []Step, lazy bool) (string, error) {
	nT := g.eng.Instance().NumIntervals
	if lazy {
		g.versions = make([]int32, nT)
	}
	if len(pins)+len(replay) > 0 {
		g.pinned = make([]bool, nT)
	}
	sched := g.eng.Schedule()
	for _, p := range pins {
		if err := sched.Validity(p.Event, p.Interval); err != nil {
			return "", fmt.Errorf("solver: pinned assignment (%d,%d) is infeasible: %w", p.Event, p.Interval, err)
		}
		if err := g.apply(p.Event, p.Interval); err != nil {
			return "", err
		}
		g.pinned[p.Interval] = true
	}
	g.steps = make([]Step, 0, len(replay))
	for _, st := range replay {
		// Replaying is selection too: a deadline stops it as it stops a
		// pop, with the steps replayed so far as the best-so-far.
		if stop, err := ctxCheck(ctx, true); err != nil || stop != "" {
			return stop, err
		}
		if err := g.apply(st.Event, st.Interval); err != nil {
			return "", fmt.Errorf("solver: replayed step (%d,%d): %w", st.Event, st.Interval, err)
		}
		g.pinned[st.Interval] = true
		g.steps = append(g.steps, st)
		g.cnt.Replayed++
	}
	return "", nil
}

// apply applies (event, t) and, in heap mode, bumps t's version.
func (g *greedy) apply(event, t int) error {
	if err := g.eng.Apply(event, t); err != nil {
		return err
	}
	if g.versions != nil {
		g.versions[t]++
	}
	return nil
}

// take applies a selected assignment as the next step.
func (g *greedy) take(a assignment) error {
	if err := g.apply(a.event, a.interval); err != nil {
		return err
	}
	g.steps = append(g.steps, Step{Event: a.event, Interval: a.interval, Score: a.score})
	return nil
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

// selectScan is SelectGreedy's scan mode: the paper's list.
func selectScan(ctx context.Context, g *greedy, wl *Worklist, k int) (string, error) {
	eng, cnt := g.eng, g.cnt
	sched := eng.Schedule()
	if g.pinned != nil {
		for i := range wl.list {
			if a := &wl.list[i]; g.pinned[a.interval] && sched.IsValid(a.event, a.interval) {
				rescore(eng, a, cnt)
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
		// Line 8: insert into the schedule. Validity was checked
		// above; failure means a bug.
		if err := g.take(top); err != nil {
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
					rescore(eng, &a, cnt)
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

// selectHeap is SelectGreedy's heap mode: CELF over the same list,
// grouped into one heap per run of an event's entries under a heap of
// runs (Worklist.groupRuns). The top run's top is the list's best
// entry, so the loop sees the entries a flat heap over the list would
// pop, in the same order, and acts on each the same way. An invalid
// top leaves its run, and a stale one is rescored and sifted within
// it. A current one is taken and retires its whole run: its event is
// scheduled, so the run's other entries could only be dropped as
// invalid, which has no effect but a pop.
func selectHeap(ctx context.Context, g *greedy, wl *Worklist, k int) (string, error) {
	eng, versions, cnt := g.eng, g.versions, g.cnt
	sched := eng.Schedule()
	wl.groupRuns()
	l := wl.list
	for sched.Size() < k && len(wl.heap) > 0 {
		if stop, err := ctxCheck(ctx, true); err != nil || stop != "" {
			return stop, err
		}
		cnt.Pops++
		r := &wl.runs[wl.heap[0]]
		top := &l[r.lo]
		switch {
		case !sched.IsValid(top.event, top.interval):
			r.hi--
			if r.hi == r.lo {
				wl.dropRun()
				continue
			}
			*top = l[r.hi]
			siftDown(l[r.lo:r.hi], 0)
			wl.siftRun(0)
		case top.version != versions[top.interval]:
			rescore(eng, top, cnt)
			top.version = versions[top.interval]
			siftDown(l[r.lo:r.hi], 0)
			wl.siftRun(0)
		default:
			if err := g.take(*top); err != nil {
				return "", err
			}
			wl.dropRun()
		}
	}
	return "", nil
}

// rescore refreshes a's score against eng's current schedule.
func rescore(eng choice.Engine, a *assignment, cnt *Counters) {
	a.score = eng.Score(a.event, a.interval)
	cnt.ScoreUpdates++
}

var _ Solver = (*GRD)(nil)
