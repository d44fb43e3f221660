package interest

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSparseVectorSortsAndDropsZeros(t *testing.T) {
	v, err := NewSparseVector([]int32{5, 1, 3, 2}, []float64{0.5, 0.1, 0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (zero dropped)", v.Len())
	}
	wantIDs := []int32{1, 2, 5}
	wantVals := []float64{0.1, 0.2, 0.5}
	for i := range wantIDs {
		if v.IDs[i] != wantIDs[i] || v.Vals[i] != wantVals[i] {
			t.Fatalf("entry %d = (%d,%v), want (%d,%v)", i, v.IDs[i], v.Vals[i], wantIDs[i], wantVals[i])
		}
	}
}

func TestNewSparseVectorMergesDuplicates(t *testing.T) {
	v, err := NewSparseVector([]int32{4, 4, 4}, []float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 1 {
		t.Fatalf("Len = %d, want 1", v.Len())
	}
	if math.Abs(v.At(4)-0.6) > 1e-12 {
		t.Fatalf("At(4) = %v, want 0.6", v.At(4))
	}
}

func TestNewSparseVectorLengthMismatch(t *testing.T) {
	if _, err := NewSparseVector([]int32{1}, []float64{0.1, 0.2}); err == nil {
		t.Fatal("expected error on length mismatch")
	}
}

func TestSparseVectorAt(t *testing.T) {
	v, _ := NewSparseVector([]int32{2, 7, 9}, []float64{0.2, 0.7, 0.9})
	cases := map[int32]float64{0: 0, 2: 0.2, 3: 0, 7: 0.7, 9: 0.9, 10: 0}
	for id, want := range cases {
		if got := v.At(id); got != want {
			t.Errorf("At(%d) = %v, want %v", id, got, want)
		}
	}
}

func TestSparseVectorSum(t *testing.T) {
	v, _ := NewSparseVector([]int32{1, 2}, []float64{0.25, 0.5})
	if s := v.Sum(); math.Abs(s-0.75) > 1e-12 {
		t.Fatalf("Sum = %v", s)
	}
	var empty SparseVector
	if empty.Sum() != 0 {
		t.Fatal("empty Sum should be 0")
	}
}

func TestSparseVectorValidate(t *testing.T) {
	good, _ := NewSparseVector([]int32{1, 2}, []float64{0.5, 1})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid vector rejected: %v", err)
	}
	bad := SparseVector{IDs: []int32{2, 1}, Vals: []float64{0.1, 0.1}}
	if bad.Validate() == nil {
		t.Fatal("unsorted vector accepted")
	}
	bad2 := SparseVector{IDs: []int32{1}, Vals: []float64{1.5}}
	if bad2.Validate() == nil {
		t.Fatal("value > 1 accepted")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(10, 3)
	if m.NumEvents() != 3 {
		t.Fatalf("NumEvents = %d", m.NumEvents())
	}
	v, _ := NewSparseVector([]int32{1, 4}, []float64{0.3, 0.6})
	m.SetRow(1, v)
	if got := m.Mu(4, 1); got != 0.6 {
		t.Fatalf("Mu(4,1) = %v", got)
	}
	if got := m.Mu(4, 0); got != 0 {
		t.Fatalf("Mu(4,0) = %v, want 0 for empty row", got)
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	out := SparseVector{IDs: []int32{50}, Vals: []float64{0.5}}
	m.SetRow(2, out)
	if m.Validate() == nil {
		t.Fatal("user id out of range accepted")
	}
	// A negative id sorts first; the row is ordered and its last id is
	// in range, so only the lower bound catches it.
	neg, err := NewSparseVector([]int32{1, -7}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := neg.Validate(); err != nil {
		t.Fatalf("row validation: %v", err)
	}
	m.SetRow(2, neg)
	if m.Validate() == nil {
		t.Fatal("negative user id accepted")
	}
}

// slowSparseVector is NewSparseVector's general path (filter, sort,
// sum duplicates), the reference for its canonical-input fast path.
func slowSparseVector(ids []int32, vals []float64) SparseVector {
	type pair struct {
		id int32
		v  float64
	}
	var pairs []pair
	for i, id := range ids {
		if vals[i] > 0 {
			pairs = append(pairs, pair{id, vals[i]})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].id < pairs[j].id })
	out := SparseVector{IDs: []int32{}, Vals: []float64{}}
	for _, p := range pairs {
		if n := len(out.IDs); n > 0 && out.IDs[n-1] == p.id {
			out.Vals[n-1] += p.v
			continue
		}
		out.IDs = append(out.IDs, p.id)
		out.Vals = append(out.Vals, p.v)
	}
	return out
}

func TestNewSparseVectorCanonicalFastPath(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		ids  []int32
		vals []float64
	}{
		{[]int32{}, []float64{}},
		{[]int32{0, 3, 9}, []float64{0.1, 1, 0.5}},     // canonical: copied
		{[]int32{0, 3, 3}, []float64{0.1, 0.2, 0.5}},   // duplicate
		{[]int32{3, 0}, []float64{0.1, 0.2}},           // descending
		{[]int32{0, 3}, []float64{0.1, 0}},             // zero
		{[]int32{0, 3}, []float64{-0.1, 0.2}},          // negative
		{[]int32{0, 3, 4}, []float64{0.1, nan, 0.2}},   // NaN is dropped, not kept
		{[]int32{-5, 3, 4}, []float64{0.1, 0.3, 0.2}},  // negative id, canonical
		{[]int32{0, 3, 4}, []float64{0.1, 0.3, 1e300}}, // out of (0,1]: kept for Validate
	}
	for _, c := range cases {
		got, err := NewSparseVector(c.ids, c.vals)
		if err != nil {
			t.Fatal(err)
		}
		if want := slowSparseVector(c.ids, c.vals); !reflect.DeepEqual(got, want) {
			t.Errorf("NewSparseVector(%v, %v) = %+v, general path %+v", c.ids, c.vals, got, want)
		}
		if len(got.IDs) > 0 && &got.IDs[0] == &c.ids[0] {
			t.Errorf("NewSparseVector(%v) aliases its input", c.ids)
		}
	}
}

func TestSparseVectorQuickAtConsistency(t *testing.T) {
	f := func(rawIDs []uint8, seed uint8) bool {
		// Deduplicate raw ids: merged duplicates may sum above 1,
		// which Validate rightly rejects; uniqueness is the matrix
		// builder's contract anyway.
		uniq := map[int32]bool{}
		var ids []int32
		var vals []float64
		for _, r := range rawIDs {
			id := int32(r)
			if uniq[id] {
				continue
			}
			uniq[id] = true
			ids = append(ids, id)
			vals = append(vals, float64(r%9+1)/10)
		}
		v, err := NewSparseVector(ids, vals)
		if err != nil {
			return false
		}
		// Every reported entry must be retrievable and every id not in
		// the input set must read 0.
		present := map[int32]bool{}
		for _, id := range ids {
			present[id] = true
		}
		for i, id := range v.IDs {
			if v.Vals[i] <= 0 {
				return false
			}
			if !present[id] {
				return false
			}
		}
		for probe := int32(0); probe < 256; probe++ {
			if !present[probe] && v.At(probe) != 0 {
				return false
			}
		}
		return v.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
