// Package interest models the user→event interest function µ of the
// SES paper: µ : U × (E ∪ C) → [0,1].
//
// Following the paper's experimental setup (Section IV-A), interest is
// derived from tag sets — each event carries the tags of the group
// organizing it and µ(u,e) is the Jaccard similarity of the user's and
// the event's tag sets. Because tag overlap is rare, µ is extremely
// sparse; the package therefore represents each event's interest
// profile as a sorted sparse vector over users and builds those
// vectors through an inverted tag index instead of scoring all
// |U|×|E| pairs.
package interest

import (
	"fmt"
	"sort"
)

// SparseVector is an immutable sparse map from user ID to a positive
// interest value, with IDs sorted ascending. The zero value is an
// empty vector.
type SparseVector struct {
	IDs  []int32
	Vals []float64
}

// NewSparseVector builds a vector from parallel slices, sorting by ID
// and dropping non-positive entries. Duplicate IDs are summed. Input
// that is already canonical (IDs strictly ascending, every value > 0)
// is copied once, with no sort.
func NewSparseVector(ids []int32, vals []float64) (SparseVector, error) {
	if len(ids) != len(vals) {
		return SparseVector{}, fmt.Errorf("interest: %d ids but %d values", len(ids), len(vals))
	}
	if canonical(ids, vals) {
		out := SparseVector{IDs: make([]int32, len(ids)), Vals: make([]float64, len(vals))}
		copy(out.IDs, ids)
		copy(out.Vals, vals)
		return out, nil
	}
	type pair struct {
		id int32
		v  float64
	}
	pairs := make([]pair, 0, len(ids))
	for i, id := range ids {
		if vals[i] > 0 {
			pairs = append(pairs, pair{id, vals[i]})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].id < pairs[j].id })
	out := SparseVector{
		IDs:  make([]int32, 0, len(pairs)),
		Vals: make([]float64, 0, len(pairs)),
	}
	for _, p := range pairs {
		if n := len(out.IDs); n > 0 && out.IDs[n-1] == p.id {
			out.Vals[n-1] += p.v
			continue
		}
		out.IDs = append(out.IDs, p.id)
		out.Vals = append(out.Vals, p.v)
	}
	return out, nil
}

// canonical reports whether ids are strictly ascending and every value
// is positive (NaN is not), i.e. whether NewSparseVector's sort, drop
// and sum would leave the input as it is.
func canonical(ids []int32, vals []float64) bool {
	for i, v := range vals {
		if !(v > 0) || (i > 0 && ids[i] <= ids[i-1]) {
			return false
		}
	}
	return true
}

// Len returns the number of non-zero entries.
func (v SparseVector) Len() int { return len(v.IDs) }

// At returns the value for user id (0 if absent) using binary search.
func (v SparseVector) At(id int32) float64 {
	i := sort.Search(len(v.IDs), func(i int) bool { return v.IDs[i] >= id })
	if i < len(v.IDs) && v.IDs[i] == id {
		return v.Vals[i]
	}
	return 0
}

// Sum returns the total mass of the vector.
func (v SparseVector) Sum() float64 {
	s := 0.0
	for _, x := range v.Vals {
		s += x
	}
	return s
}

// Validate checks structural invariants (sorted unique IDs, values in
// (0, 1]). Interest values are probabilities of the Luce numerator and
// must stay within [0,1] per the paper's definition of µ.
func (v SparseVector) Validate() error {
	for i := range v.IDs {
		if i > 0 && v.IDs[i] <= v.IDs[i-1] {
			return fmt.Errorf("interest: ids not strictly increasing at %d", i)
		}
		if v.Vals[i] <= 0 || v.Vals[i] > 1 {
			return fmt.Errorf("interest: value %v for user %d outside (0,1]", v.Vals[i], v.IDs[i])
		}
	}
	return nil
}

// Matrix stores one sparse interest vector per event (candidate or
// competing), indexed by event position. NumUsers bounds the user ID
// space.
type Matrix struct {
	NumUsers int
	ByEvent  []SparseVector
}

// NewMatrix allocates a matrix for numEvents events over numUsers users.
func NewMatrix(numUsers, numEvents int) *Matrix {
	return &Matrix{NumUsers: numUsers, ByEvent: make([]SparseVector, numEvents)}
}

// NumEvents returns the number of event rows.
func (m *Matrix) NumEvents() int { return len(m.ByEvent) }

// Mu returns µ(user, event).
func (m *Matrix) Mu(user, event int) float64 {
	return m.ByEvent[event].At(int32(user))
}

// Row returns the sparse vector of event.
func (m *Matrix) Row(event int) SparseVector { return m.ByEvent[event] }

// SetRow installs a vector for event.
func (m *Matrix) SetRow(event int, v SparseVector) { m.ByEvent[event] = v }

// NNZ returns the total number of non-zero entries.
func (m *Matrix) NNZ() int {
	n := 0
	for _, r := range m.ByEvent {
		n += r.Len()
	}
	return n
}

// Validate checks every row and that IDs stay within [0, NumUsers).
// Rows are sorted, so their first and last IDs bound the rest.
func (m *Matrix) Validate() error {
	for e, r := range m.ByEvent {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", e, err)
		}
		n := r.Len()
		if n == 0 {
			continue
		}
		for _, id := range [2]int32{r.IDs[0], r.IDs[n-1]} {
			if id < 0 || int(id) >= m.NumUsers {
				return fmt.Errorf("event %d: user id %d out of range [0,%d)", e, id, m.NumUsers)
			}
		}
	}
	return nil
}
