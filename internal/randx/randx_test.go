package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	a := NewSource(1)
	b := NewSource(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical draws", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(7, "users")
	b := Derive(7, "events")
	c := Derive(7, "users")
	if a.Uint64() == b.Uint64() {
		t.Error("derived streams with different labels should differ")
	}
	a2 := Derive(7, "users")
	_ = c
	x := a2.Uint64()
	y := Derive(7, "users").Uint64()
	if x != y {
		t.Error("derived stream is not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSource(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRange(t *testing.T) {
	s := NewSource(4)
	lo, hi := 1.0, 20.0/3.0
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		v := s.Range(lo, hi)
		if v < lo || v >= hi {
			t.Fatalf("Range out of bounds: %v", v)
		}
		sum += v
	}
	mean := sum / n
	want := (lo + hi) / 2
	if math.Abs(mean-want) > 0.05 {
		t.Errorf("Range mean = %v, want ~%v", mean, want)
	}
}

func TestIntRange(t *testing.T) {
	s := NewSource(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 7; v++ {
		if !seen[v] {
			t.Errorf("IntRange never produced %d in 1000 draws", v)
		}
	}
}

func TestIntRangePanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntRange(5,4) should panic")
		}
	}()
	NewSource(1).IntRange(5, 4)
}

func TestSampleWithoutReplacement(t *testing.T) {
	s := NewSource(6)
	for _, tc := range []struct{ n, m int }{
		{10, 0}, {10, 1}, {10, 3}, {10, 9}, {10, 10}, {1000, 10}, {1000, 900},
	} {
		got := s.SampleWithoutReplacement(tc.n, tc.m)
		if len(got) != tc.m {
			t.Fatalf("n=%d m=%d: got %d samples", tc.n, tc.m, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= tc.n {
				t.Fatalf("n=%d m=%d: sample %d out of range", tc.n, tc.m, v)
			}
			if seen[v] {
				t.Fatalf("n=%d m=%d: duplicate sample %d", tc.n, tc.m, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sampling more than the population should panic")
		}
	}()
	NewSource(1).SampleWithoutReplacement(3, 4)
}

func TestHashToUnitBoundsAndDeterminism(t *testing.T) {
	for u := 0; u < 200; u++ {
		for ti := 0; ti < 20; ti++ {
			v := HashToUnit(99, u, ti)
			if v < 0 || v >= 1 {
				t.Fatalf("HashToUnit out of [0,1): %v", v)
			}
			if v != HashToUnit(99, u, ti) {
				t.Fatal("HashToUnit not deterministic")
			}
		}
	}
	if HashToUnit(1, 2, 3) == HashToUnit(2, 2, 3) {
		t.Error("HashToUnit should depend on seed")
	}
	if HashToUnit(1, 2, 3) == HashToUnit(1, 3, 2) {
		t.Error("HashToUnit should not be symmetric in (a, b)")
	}
}

func TestHashToUnitIsUniformish(t *testing.T) {
	// Chi-square-ish sanity check over 10 buckets.
	const n = 100000
	var buckets [10]int
	for i := 0; i < n; i++ {
		v := HashToUnit(1234, i, i*7+1)
		buckets[int(v*10)]++
	}
	for i, c := range buckets {
		if c < n/10-n/100*3 || c > n/10+n/100*3 {
			t.Errorf("bucket %d has %d hits, expected ~%d", i, c, n/10)
		}
	}
}

func TestHashToUnitQuickProperty(t *testing.T) {
	f := func(seed uint64, a, b uint16) bool {
		v := HashToUnit(seed, int(a), int(b))
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// hashToUnitThreeMix is HashToUnit as one function, the form it had
// before it was split into HashKey and KeyToUnit: σ must not move.
func hashToUnitThreeMix(seed uint64, a, b int) float64 {
	h := splitmix64(seed ^ 0x6a09e667f3bcc909)
	h = splitmix64(h ^ uint64(a)*0x9e3779b97f4a7c15)
	h = splitmix64(h ^ uint64(b)*0xc2b2ae3d27d4eb4f)
	return float64(h>>11) / float64(1<<53)
}

func TestHashToUnitEqualsItsHalves(t *testing.T) {
	f := func(seed uint64, a, b int32) bool {
		want := math.Float64bits(hashToUnitThreeMix(seed, int(a), int(b)))
		return math.Float64bits(HashToUnit(seed, int(a), int(b))) == want &&
			math.Float64bits(KeyToUnit(HashKey(seed, int(a)), int(b))) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	// Values the three-mix form produced, so a change to both forms at
	// once shows too.
	for _, c := range []struct {
		seed uint64
		a, b int
		bits uint64
	}{
		{0, 0, 0, 0x3fc28237652e1d38},
		{99, 1999, 49, 0x3fe8a4a3b7f8fda6},
		{0xabcdef ^ 3, 7, 2, 0x3fe42e54cfc53f36},
	} {
		if got := math.Float64bits(HashToUnit(c.seed, c.a, c.b)); got != c.bits {
			t.Errorf("HashToUnit(%d, %d, %d) bits %#x, want %#x", c.seed, c.a, c.b, got, c.bits)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := NewSource(8)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("Perm produced duplicate %d", v)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	s := NewSource(9)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate %v", p)
	}
}
