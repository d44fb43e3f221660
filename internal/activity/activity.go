// Package activity provides implementations of the social-activity
// probability σ : U × T → [0,1] from the SES paper: the probability
// that a user participates in some social activity during a time
// interval.
//
// The paper's experiments draw σ from a uniform distribution
// (Section IV-A); UniformHash reproduces that without materializing a
// |U|×|T| table. The paper also notes that σ "can be estimated by
// examining the user's past behavior (e.g., number of check-ins)";
// Estimator implements exactly that: a Laplace-smoothed per-slot
// check-in frequency over an observation history.
package activity

import (
	"fmt"

	"ses/internal/randx"
)

// UniformHash is the σ ~ U(0,1) model of the paper's experiments,
// realized as a stateless hash so that every component observes the
// same σ(u,t) for a given seed with zero memory cost.
type UniformHash struct {
	Seed uint64
}

// Prob returns σ(user, interval) ∈ [0,1).
func (a UniformHash) Prob(user, interval int) float64 {
	return randx.HashToUnit(a.Seed, user, interval)
}

// Constant assigns the same probability to every (user, interval).
type Constant float64

// Prob returns the constant.
func (c Constant) Prob(user, interval int) float64 { return float64(c) }

// Table stores σ explicitly as a dense matrix, indexed [user][interval].
// Intended for small instances and tests.
type Table struct {
	P [][]float64
}

// NewTable validates and wraps a dense σ matrix.
func NewTable(p [][]float64) (*Table, error) {
	for u, row := range p {
		for t, v := range row {
			if v < 0 || v > 1 {
				return nil, fmt.Errorf("activity: σ(%d,%d) = %v outside [0,1]", u, t, v)
			}
		}
	}
	return &Table{P: p}, nil
}

// Prob returns σ(user, interval).
func (t *Table) Prob(user, interval int) float64 { return t.P[user][interval] }

// CheckShape reports an error unless the table holds σ for every one
// of numUsers users at every one of numIntervals intervals, so that
// Prob never indexes past it. core.Instance.Validate calls it.
func (t *Table) CheckShape(numUsers, numIntervals int) error {
	return checkShape(t.P, numUsers, numIntervals)
}

// checkShape is CheckShape for a σ grid indexed [user][interval].
func checkShape(p [][]float64, numUsers, numIntervals int) error {
	if len(p) < numUsers {
		return fmt.Errorf("activity: σ table has %d user rows, instance has %d users", len(p), numUsers)
	}
	for u, row := range p[:numUsers] {
		if len(row) < numIntervals {
			return fmt.Errorf("activity: σ table row %d has %d intervals, instance has %d", u, len(row), numIntervals)
		}
	}
	return nil
}

// Scaled wraps another model and multiplies its probabilities by a
// factor in [0,1] — handy for what-if analyses ("what if everyone were
// half as likely to go out?").
type Scaled struct {
	Base   interface{ Prob(int, int) float64 }
	Factor float64
}

// Prob returns Factor · Base.Prob.
func (s Scaled) Prob(user, interval int) float64 {
	return s.Factor * s.Base.Prob(user, interval)
}
