package solver

import (
	"context"
	"sort"

	"ses/internal/core"
	"ses/internal/randx"
)

// Online is a streaming variant of SES: candidate events arrive one at
// a time (in a seed-determined order) and each must immediately be
// scheduled — irrevocably — or rejected, while at most k events may be
// accepted in total. This models the operational reality of venues
// that receive booking requests over time, and connects to the
// incremental event-planning variants in the paper's related work
// (Cheng et al., ICDE 2017).
//
// The policy is an adaptive quantile rule: event e (with current best
// marginal score s(e)) is accepted iff s(e) is at or above the
// (1 − quota/remaining)-quantile of all scores observed so far, i.e.
// the threshold relaxes as the deadline nears and tightens when quota
// runs low. An initial warm-up fraction is observed without accepting
// (secretary style) to calibrate the quantile.
type Online struct {
	seed uint64
	cfg  Config
	// Warmup is the fraction of the stream observed before any
	// acceptance (default 0.1).
	Warmup float64
}

// NewOnline returns the streaming solver. Arrivals are inherently
// sequential, so cfg.Workers has nothing to parallelize here.
func NewOnline(seed uint64, cfg Config) *Online {
	return &Online{seed: seed, cfg: cfg, Warmup: 0.1}
}

// Name returns "online".
func (s *Online) Name() string { return "online" }

// Solve processes the stream. Online is one-shot — an interrupted
// stream is not a solution to the streaming problem — so any done
// context (checked per arrival) returns ctx.Err().
func (s *Online) Solve(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if err := validate(inst, k); err != nil {
		return nil, err
	}
	eng := s.cfg.instrument(s.Name(), s.cfg.engine()(inst))
	res := &Result{Solver: s.Name()}
	sched := eng.Schedule()

	src := randx.NewSource(s.seed)
	arrival := src.Perm(inst.NumEvents())
	warm := int(s.Warmup * float64(len(arrival)))

	var observed []float64
	quota := k
	for i, e := range arrival {
		if quota == 0 {
			break
		}
		if _, err := ctxCheck(ctx, false); err != nil {
			return nil, err
		}
		// Best valid placement for the arriving event, by current
		// marginal score.
		bestT, bestScore := -1, 0.0
		for t := 0; t < inst.NumIntervals; t++ {
			if !sched.IsValid(e, t) {
				continue
			}
			sc := eng.Score(e, t)
			res.Counters.ScoreUpdates++
			if bestT < 0 || sc > bestScore {
				bestT, bestScore = t, sc
			}
		}
		if bestT < 0 {
			continue // nowhere to put it
		}
		observed = append(observed, bestScore)
		if i < warm {
			continue // calibration phase: observe only
		}
		remaining := len(arrival) - i
		if remaining < quota {
			remaining = quota
		}
		// Accept iff the score clears the adaptive quantile.
		q := 1 - float64(quota)/float64(remaining)
		if bestScore >= quantile(observed, q) {
			if err := eng.Apply(e, bestT); err != nil {
				return nil, err
			}
			quota--
			res.Counters.Moves++
		}
	}

	return finish(res, eng, res.Stopped), nil
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by sorting a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	idx := int(q * float64(len(cp)-1))
	return cp[idx]
}

var _ Solver = (*Online)(nil)
