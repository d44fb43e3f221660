package solver

import (
	"context"
	"fmt"
	"sort"

	"ses/internal/core"
)

// Exact finds an optimal feasible schedule of up to k assignments by
// depth-first search over (skip | assign-to-each-valid-interval)
// decisions per event, with an admissible upper-bound prune: because
// marginal gains only shrink as a schedule grows (per-interval
// submodularity), the root-level best score of each event bounds its
// contribution in any subtree, so
//
//	Ω(current) + Σ (top `remaining` root scores of unused events)
//
// is a valid optimistic bound. The bound's admissibility rests on
// submodularity, so for objectives that report Submodular() == false
// (attendance's threshold jumps, fairness's min term) the prune is
// disabled and the search runs exhaustively — still exact, just
// slower. Exact is exponential and intended for small instances — it
// exists to measure how close GRD gets to the optimum (the paper
// proves strong NP-hardness, Theorem 1, so no polynomial exact
// algorithm is expected).
type Exact struct {
	cfg Config
	// MaxNodes caps the search (0 = unlimited). When hit, Solve
	// returns an error rather than a silently suboptimal result.
	MaxNodes int
}

// NewExact returns the exact solver.
func NewExact(cfg Config) *Exact {
	return &Exact{cfg: cfg, MaxNodes: 20_000_000}
}

// Name returns "exact".
func (s *Exact) Name() string { return "exact" }

// ErrSearchBudget is wrapped in the error returned when MaxNodes is
// exceeded.
var ErrSearchBudget = fmt.Errorf("solver: exact search node budget exceeded")

// ctxCheckNodes is how many DFS nodes Exact expands between context
// checks: frequent enough for prompt cancellation, cheap enough to
// vanish against the per-node scoring work.
const ctxCheckNodes = 1024

// Solve exhaustively maximizes Ω over feasible schedules with at most
// k assignments. Monotonicity of Ω makes "at most k" and "exactly k"
// coincide whenever k valid assignments exist. Exact is one-shot: a
// truncated search would be silently suboptimal, so any done context
// (cancel or deadline, checked every ctxCheckNodes search nodes)
// returns ctx.Err().
func (s *Exact) Solve(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if err := validate(inst, k); err != nil {
		return nil, err
	}
	eng := s.cfg.engine()(inst)
	res := &Result{Solver: s.Name()}

	// Root-level optimistic score per event (max over intervals),
	// reduced from the shared (parallel) initial score matrix.
	nE := inst.NumEvents()
	mat, err := scoreMatrix(ctx, eng, s.cfg.workers(), &res.Counters)
	if err != nil {
		return nil, err
	}
	rootBest := make([]float64, nE)
	for e := 0; e < nE; e++ {
		best := 0.0
		for t := 0; t < inst.NumIntervals; t++ {
			if sc := mat[t*nE+e]; sc > best {
				best = sc
			}
		}
		rootBest[e] = best
	}
	// Events in decreasing optimistic score: tightens the bound early.
	order := make([]int, inst.NumEvents())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return rootBest[order[i]] > rootBest[order[j]] })
	// prefix[i] = Σ rootBest over the first i events in sorted order;
	// because order is descending, the sum of the r largest optimistic
	// scores among order[i:] is prefix[min(i+r, n)] − prefix[i].
	prefix := make([]float64, len(order)+1)
	for i, e := range order {
		prefix[i+1] = prefix[i] + rootBest[e]
	}
	topSum := func(i, r int) float64 {
		return prefix[min(i+r, len(order))] - prefix[i]
	}

	var (
		bestUtil   = -1.0
		bestAssgn  []core.Assignment
		nodes      int
		overBudget bool
		ctxErr     error
	)
	prune := s.cfg.objective().Submodular()
	cur := 0.0 // running objective value via score telescoping

	var dfs func(idx, remaining int)
	dfs = func(idx, remaining int) {
		if overBudget || ctxErr != nil {
			return
		}
		nodes++
		if nodes%ctxCheckNodes == 0 {
			if _, err := ctxCheck(ctx, false); err != nil {
				ctxErr = err
				return
			}
		}
		if s.MaxNodes > 0 && nodes > s.MaxNodes {
			overBudget = true
			return
		}
		if cur > bestUtil {
			bestUtil = cur
			bestAssgn = eng.Schedule().Assignments()
		}
		if remaining == 0 || idx == len(order) {
			return
		}
		// Admissible bound (only valid under submodularity).
		if prune {
			bound := cur + topSum(idx, remaining)
			if bound <= bestUtil+1e-12 {
				return
			}
		}
		e := order[idx]
		// Branch: assign e to each valid interval.
		for t := 0; t < inst.NumIntervals; t++ {
			if !eng.Schedule().IsValid(e, t) {
				continue
			}
			gain := eng.Score(e, t)
			res.Counters.ScoreUpdates++
			if err := eng.Apply(e, t); err != nil {
				panic(err) // validity checked; unreachable
			}
			cur += gain
			dfs(idx+1, remaining-1)
			cur -= gain
			if err := eng.Unapply(e); err != nil {
				panic(err)
			}
		}
		// Branch: skip e.
		dfs(idx+1, remaining)
	}
	dfs(0, k)

	if ctxErr != nil {
		return nil, ctxErr
	}
	if overBudget {
		return nil, fmt.Errorf("%w (nodes > %d)", ErrSearchBudget, s.MaxNodes)
	}

	// Rebuild the best schedule on a fresh engine for an exact Ω.
	finalEng := s.cfg.engine()(inst)
	for _, a := range bestAssgn {
		if err := finalEng.Apply(a.Event, a.Interval); err != nil {
			return nil, err
		}
	}
	return finish(res, finalEng, res.Stopped), nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

var _ Solver = (*Exact)(nil)
