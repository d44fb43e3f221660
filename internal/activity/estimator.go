package activity

import "fmt"

// Estimator derives σ from past user behavior, as suggested by the
// paper ("estimated by examining the user's past behavior (e.g.,
// number of check-ins)").
//
// Time is discretized into recurring slots (for example the 168 hours
// of a week). The history covers a number of observation periods
// (weeks); each check-in says "user u was out during slot s of some
// period". The estimate of σ(u, s) is the Laplace-smoothed Bernoulli
// frequency
//
//	σ̂(u,s) = (checkins(u,s) + α) / (periods + 2α)
//
// which is the posterior mean under a Beta(α, α) prior. With no data
// it degrades gracefully to 1/2·(2α)/(2α) — i.e. to 0.5 for α > 0 —
// and concentrates around the empirical frequency as periods grow.
type Estimator struct {
	numUsers int
	numSlots int
	periods  int
	alpha    float64
	counts   [][]int32
}

// NewEstimator prepares an estimator for numUsers users, numSlots
// recurring slots, and a history of periods observation periods.
// alpha is the smoothing pseudo-count (must be > 0; 1 is a safe
// default).
func NewEstimator(numUsers, numSlots, periods int, alpha float64) (*Estimator, error) {
	if numUsers <= 0 || numSlots <= 0 || periods <= 0 {
		return nil, fmt.Errorf("activity: estimator dims must be positive (users=%d slots=%d periods=%d)",
			numUsers, numSlots, periods)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("activity: smoothing alpha must be > 0, got %v", alpha)
	}
	counts := make([][]int32, numUsers)
	return &Estimator{
		numUsers: numUsers,
		numSlots: numSlots,
		periods:  periods,
		alpha:    alpha,
		counts:   counts,
	}, nil
}

// Observe records one check-in of user during slot. Multiple
// check-ins by the same user in the same slot of the same period
// should be collapsed by the caller; Observe caps the per-slot count
// at the number of periods so the estimate stays a probability.
func (e *Estimator) Observe(user, slot int) error {
	if user < 0 || user >= e.numUsers {
		return fmt.Errorf("activity: user %d out of range", user)
	}
	if slot < 0 || slot >= e.numSlots {
		return fmt.Errorf("activity: slot %d out of range", slot)
	}
	if e.counts[user] == nil {
		e.counts[user] = make([]int32, e.numSlots)
	}
	if int(e.counts[user][slot]) < e.periods {
		e.counts[user][slot]++
	}
	return nil
}

// Estimate returns σ̂(user, slot).
func (e *Estimator) Estimate(user, slot int) float64 {
	var c int32
	if e.counts[user] != nil {
		c = e.counts[user][slot]
	}
	return (float64(c) + e.alpha) / (float64(e.periods) + 2*e.alpha)
}

// Activity freezes the estimator into a core.Activity implementation.
// slotOfInterval maps each instance interval to the recurring slot it
// falls into (e.g. interval 3 of the festival is Monday 19:00–22:00 →
// hour-of-week slot 19).
func (e *Estimator) Activity(slotOfInterval []int) (*Estimated, error) {
	for t, s := range slotOfInterval {
		if s < 0 || s >= e.numSlots {
			return nil, fmt.Errorf("activity: interval %d maps to slot %d outside [0,%d)", t, s, e.numSlots)
		}
	}
	probs := make([][]float64, e.numUsers)
	for u := 0; u < e.numUsers; u++ {
		row := make([]float64, len(slotOfInterval))
		for t, s := range slotOfInterval {
			row[t] = e.Estimate(u, s)
		}
		probs[u] = row
	}
	return &Estimated{probs: probs}, nil
}

// Estimated is the frozen per-(user, interval) σ̂ table produced by
// Estimator.Activity.
type Estimated struct {
	probs [][]float64
}

// Prob returns σ̂(user, interval).
func (a *Estimated) Prob(user, interval int) float64 { return a.probs[user][interval] }

// CheckShape is Table.CheckShape for the frozen estimate: it holds the
// estimator's users at the intervals Activity mapped.
func (a *Estimated) CheckShape(numUsers, numIntervals int) error {
	return checkShape(a.probs, numUsers, numIntervals)
}
