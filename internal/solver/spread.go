package solver

import (
	"context"

	"ses/internal/core"
)

// Spread is a middle-ground baseline between TOP and GRD: it ranks
// events once by their best initial score (like TOP, no updates ever),
// but instead of trusting the initial (event, interval) pairs it
// places each selected event into the least-loaded interval where it
// is still valid (ties broken by the initial score of that placement).
// It isolates how much of GRD's advantage over TOP comes merely from
// *spreading* events across intervals versus from genuinely updating
// marginal gains.
type Spread struct {
	cfg Config
}

// NewSpread returns the spreading baseline.
func NewSpread(cfg Config) *Spread { return &Spread{cfg: cfg} }

// Name returns "spread".
func (s *Spread) Name() string { return "spread" }

// Solve ranks events by best initial score, then load-balances. The
// initial score matrix comes from the shared parallel builder; the
// per-event rows it needs for the placement step are just views into
// that matrix.
// Spread is one-shot: any done context returns ctx.Err().
func (s *Spread) Solve(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if err := validate(inst, k); err != nil {
		return nil, err
	}
	eng := s.cfg.instrument(s.Name(), s.cfg.engine()(inst))
	res := &Result{Solver: s.Name()}

	// Initial scores for all pairs; mat is indexed [t*|E| + e].
	nE, nT := inst.NumEvents(), inst.NumIntervals
	mat, err := scoreMatrix(ctx, eng, s.cfg.workers(), &res.Counters)
	if err != nil {
		return nil, err
	}
	score := func(e, t int) float64 { return mat[t*nE+e] }
	ranked := make([]assignment, 0, nE)
	for e := 0; e < nE; e++ {
		bestT := 0
		for t := 1; t < nT; t++ {
			if score(e, t) > score(e, bestT) {
				bestT = t
			}
		}
		ranked = append(ranked, assignment{event: e, interval: bestT, score: score(e, bestT)})
	}
	sortAssignments(ranked)

	sched := eng.Schedule()
	load := make([]int, nT)
	for _, a := range ranked {
		if sched.Size() >= k {
			break
		}
		if _, err := ctxCheck(ctx, false); err != nil {
			return nil, err
		}
		// Least-loaded valid interval; ties by initial score there.
		bestT := -1
		for t := 0; t < nT; t++ {
			if !sched.IsValid(a.event, t) {
				continue
			}
			if bestT < 0 ||
				load[t] < load[bestT] ||
				(load[t] == load[bestT] && score(a.event, t) > score(a.event, bestT)) {
				bestT = t
			}
		}
		if bestT < 0 {
			continue
		}
		if err := eng.Apply(a.event, bestT); err != nil {
			return nil, err
		}
		load[bestT]++
	}

	return finish(res, eng, res.Stopped), nil
}

var _ Solver = (*Spread)(nil)
