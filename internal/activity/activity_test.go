package activity

import (
	"math"
	"testing"

	"ses/internal/core"
	"ses/internal/randx"
)

// Compile-time checks that every model satisfies core.Activity.
var (
	_ core.Activity = UniformHash{}
	_ core.Activity = Constant(0.5)
	_ core.Activity = (*Table)(nil)
	_ core.Activity = Scaled{}
	_ core.Activity = (*Estimated)(nil)
)

func TestUniformHashBoundsAndDeterminism(t *testing.T) {
	a := UniformHash{Seed: 7}
	b := UniformHash{Seed: 7}
	for u := 0; u < 100; u++ {
		for ti := 0; ti < 10; ti++ {
			v := a.Prob(u, ti)
			if v < 0 || v >= 1 {
				t.Fatalf("σ(%d,%d) = %v outside [0,1)", u, ti, v)
			}
			if v != b.Prob(u, ti) {
				t.Fatal("same seed must give same σ")
			}
		}
	}
	if (UniformHash{Seed: 1}).Prob(3, 4) == (UniformHash{Seed: 2}).Prob(3, 4) {
		t.Error("different seeds should give different σ")
	}
}

func TestUniformHashMean(t *testing.T) {
	a := UniformHash{Seed: 11}
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += a.Prob(i%500, i/500)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean σ = %v, want ~0.5 (uniform)", mean)
	}
}

func TestConstant(t *testing.T) {
	c := Constant(0.25)
	if c.Prob(0, 0) != 0.25 || c.Prob(100, 99) != 0.25 {
		t.Fatal("Constant should ignore arguments")
	}
}

func TestTable(t *testing.T) {
	tab, err := NewTable([][]float64{{0.1, 0.2}, {0.3, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Prob(1, 0) != 0.3 {
		t.Fatalf("Prob(1,0) = %v", tab.Prob(1, 0))
	}
	if _, err := NewTable([][]float64{{1.5}}); err == nil {
		t.Fatal("NewTable accepted σ > 1")
	}
	if _, err := NewTable([][]float64{{-0.1}}); err == nil {
		t.Fatal("NewTable accepted σ < 0")
	}
	if err := tab.CheckShape(2, 2); err != nil {
		t.Fatalf("CheckShape(2, 2) on a 2×2 table: %v", err)
	}
	if err := tab.CheckShape(1, 1); err != nil {
		t.Fatalf("CheckShape(1, 1) on a 2×2 table: %v", err)
	}
	if tab.CheckShape(3, 2) == nil {
		t.Fatal("CheckShape accepted a table with too few users")
	}
	if tab.CheckShape(2, 3) == nil {
		t.Fatal("CheckShape accepted a table with too few intervals")
	}
	ragged, err := NewTable([][]float64{{0.1, 0.2}, {0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if ragged.CheckShape(2, 2) == nil {
		t.Fatal("CheckShape accepted a ragged table")
	}
}

func TestScaled(t *testing.T) {
	s := Scaled{Base: Constant(0.8), Factor: 0.5}
	if got := s.Prob(0, 0); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("Scaled.Prob = %v", got)
	}
}

func TestEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(0, 1, 1, 1); err == nil {
		t.Error("accepted zero users")
	}
	if _, err := NewEstimator(1, 1, 1, 0); err == nil {
		t.Error("accepted alpha = 0")
	}
	e, err := NewEstimator(2, 3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(2, 0); err == nil {
		t.Error("accepted out-of-range user")
	}
	if err := e.Observe(0, 3); err == nil {
		t.Error("accepted out-of-range slot")
	}
}

func TestEstimatorPrior(t *testing.T) {
	e, _ := NewEstimator(1, 1, 10, 1)
	// No observations: Beta(1,1) posterior mean = 1/(10+2) ... the
	// smoothed estimate with zero counts is α/(periods+2α).
	want := 1.0 / 12.0
	if got := e.Estimate(0, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("prior estimate = %v, want %v", got, want)
	}
}

func TestEstimatorConvergence(t *testing.T) {
	// User goes out with p=0.7 in slot 0 and p=0.1 in slot 1 over many
	// periods; the estimate must approach those rates.
	const periods = 2000
	e, _ := NewEstimator(1, 2, periods, 1)
	src := randx.NewSource(5)
	for p := 0; p < periods; p++ {
		if src.Bool(0.7) {
			if err := e.Observe(0, 0); err != nil {
				t.Fatal(err)
			}
		}
		if src.Bool(0.1) {
			if err := e.Observe(0, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := e.Estimate(0, 0); math.Abs(got-0.7) > 0.05 {
		t.Errorf("σ̂ slot0 = %v, want ~0.7", got)
	}
	if got := e.Estimate(0, 1); math.Abs(got-0.1) > 0.05 {
		t.Errorf("σ̂ slot1 = %v, want ~0.1", got)
	}
}

func TestEstimatorCapsAtPeriods(t *testing.T) {
	e, _ := NewEstimator(1, 1, 3, 1)
	for i := 0; i < 50; i++ {
		_ = e.Observe(0, 0)
	}
	if got := e.Estimate(0, 0); got > 1 {
		t.Fatalf("estimate %v exceeds 1", got)
	}
	want := (3.0 + 1) / (3 + 2)
	if got := e.Estimate(0, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("capped estimate = %v, want %v", got, want)
	}
}

func TestEstimatorActivityMapping(t *testing.T) {
	e, _ := NewEstimator(2, 4, 10, 1)
	for i := 0; i < 8; i++ {
		_ = e.Observe(1, 2)
	}
	act, err := e.Activity([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Interval 0 maps to slot 2 (8 observations), interval 1 to slot 0
	// (none).
	hot := act.Prob(1, 0)
	cold := act.Prob(1, 1)
	if hot <= cold {
		t.Fatalf("hot slot σ̂=%v should exceed cold slot σ̂=%v", hot, cold)
	}
	if _, err := e.Activity([]int{9}); err == nil {
		t.Fatal("accepted interval mapped to invalid slot")
	}
	// The estimate holds 2 users × 2 intervals; an instance with more
	// of either must be refused before Prob indexes past it.
	if err := act.CheckShape(2, 2); err != nil {
		t.Fatalf("CheckShape(2, 2): %v", err)
	}
	if act.CheckShape(3, 2) == nil || act.CheckShape(2, 3) == nil {
		t.Fatal("CheckShape accepted an instance larger than the estimate")
	}
}
