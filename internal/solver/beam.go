package solver

import (
	"context"
	"sort"

	"ses/internal/choice"
	"ses/internal/core"
)

// Beam is a beam-search solver: it maintains Width partial schedules
// and, at each of the k steps, expands each by its Branch best-scoring
// valid assignments, keeping the Width highest-utility successors.
// Width = Branch = 1 degenerates to GRD; wider beams hedge against the
// greedy's myopia at a Width× cost multiplier. A wider beam does not
// formally dominate GRD — a greedy prefix can be evicted by prefixes
// with higher cumulative utility but worse continuations — though in
// practice the two land very close (the objective's per-interval
// submodularity leaves the greedy little to miss); the ablation bench
// quantifies this.
//
// With cfg.Workers > 1 the per-step expansions run concurrently, one
// worker per live state (each state owns its engine, so no engine is
// shared); successor lists are assembled per state and concatenated in
// state order, keeping the search deterministic.
type Beam struct {
	cfg Config
	// Width is the number of live partial schedules (default 4).
	Width int
	// Branch is the number of successors each state spawns (default 4).
	Branch int
}

// NewBeam returns a beam-search solver. width/branch <= 0 pick the
// defaults.
func NewBeam(width, branch int, cfg Config) *Beam {
	if width <= 0 {
		width = 4
	}
	if branch <= 0 {
		branch = 4
	}
	return &Beam{cfg: cfg, Width: width, Branch: branch}
}

// Name returns "beam".
func (s *Beam) Name() string { return "beam" }

// beamState is one live partial schedule.
type beamState struct {
	eng  choice.Engine
	util float64
}

// beamSucc is a candidate successor of a beam state.
type beamSucc struct {
	parent int
	e, t   int
	util   float64
}

// expand collects the Branch best valid assignments for one state.
// It touches only that state's engine, so expansions of distinct
// states can run concurrently. Returns the successors and the number
// of score evaluations performed.
func (s *Beam) expand(inst *core.Instance, pi int, st beamState) ([]beamSucc, int) {
	var local []assignment
	scores := 0
	sched := st.eng.Schedule()
	for e := 0; e < inst.NumEvents(); e++ {
		if sched.Contains(e) {
			continue
		}
		for t := 0; t < inst.NumIntervals; t++ {
			if !sched.IsValid(e, t) {
				continue
			}
			sc := st.eng.Score(e, t)
			scores++
			local = append(local, assignment{event: e, interval: t, score: sc})
		}
	}
	sortAssignments(local)
	if len(local) > s.Branch {
		local = local[:s.Branch]
	}
	succs := make([]beamSucc, 0, len(local))
	for _, a := range local {
		succs = append(succs, beamSucc{parent: pi, e: a.event, t: a.interval, util: st.util + a.score})
	}
	return succs, scores
}

// Solve runs the beam search. Beam is anytime: on deadline it stops
// expanding and returns the best state of the last completed step
// with Result.Stopped set; a partially-expanded step is discarded so
// the result stays deterministic.
func (s *Beam) Solve(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if err := validate(inst, k); err != nil {
		return nil, err
	}
	res := &Result{Solver: s.Name()}
	states := []beamState{{eng: s.cfg.engine()(inst)}}
	workers := s.cfg.workers()

	for step := 0; step < k; step++ {
		if stop, err := ctxCheck(ctx, true); err != nil {
			return nil, err
		} else if stop != "" {
			res.Stopped = stop
			break
		}
		// Expand every state (concurrently when configured), then
		// splice the per-state successor lists together in state
		// order so the result is independent of scheduling.
		perState := make([][]beamSucc, len(states))
		perStateScores := make([]int, len(states))
		if err := forEachIndex(ctx, len(states), workers, func(pi int) {
			perState[pi], perStateScores[pi] = s.expand(inst, pi, states[pi])
		}); err != nil {
			// A done ctx mid-expansion leaves perState incomplete;
			// fall back to the states of the last completed step.
			if stop, serr := ctxCheck(ctx, true); serr == nil && stop != "" {
				res.Stopped = stop
				break
			}
			return nil, err
		}
		var succs []beamSucc
		for pi := range perState {
			res.Counters.ScoreUpdates += perStateScores[pi]
			succs = append(succs, perState[pi]...)
		}
		if len(succs) == 0 {
			break // no state can be extended
		}
		sort.Slice(succs, func(i, j int) bool {
			if succs[i].util != succs[j].util {
				return succs[i].util > succs[j].util
			}
			if succs[i].e != succs[j].e {
				return succs[i].e < succs[j].e
			}
			return succs[i].t < succs[j].t
		})
		if len(succs) > s.Width {
			succs = succs[:s.Width]
		}
		next := make([]beamState, 0, len(succs))
		for _, sc := range succs {
			eng := states[sc.parent].eng.Fork()
			if err := eng.Apply(sc.e, sc.t); err != nil {
				return nil, err
			}
			next = append(next, beamState{eng: eng, util: sc.util})
		}
		states = next
	}

	// Best final state (states are sorted by construction, but be
	// explicit and use the engine's exact utility).
	best := states[0]
	bestU := best.eng.Utility()
	for _, st := range states[1:] {
		if u := st.eng.Utility(); u > bestU {
			best, bestU = st, u
		}
	}
	return finish(res, best.eng, res.Stopped), nil
}

var _ Solver = (*Beam)(nil)
