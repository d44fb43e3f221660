package choice

import (
	"math"
	"testing"

	"ses/internal/core"
	"ses/internal/interest"
)

// sigmaOne is a σ ≡ 1 activity model for the regression test.
type sigmaOne struct{}

func (sigmaOne) Prob(user, interval int) float64 { return 1 }

// tinyMassInstance builds two candidate events that share user 0 with
// a legitimately tiny interest µ ≈ 1e-13 each; user 1 and user 2 give
// the events ordinary mass. No competing events.
func tinyMassInstance(t *testing.T) *core.Instance {
	t.Helper()
	mkRow := func(ids []int32, vals []float64) interest.SparseVector {
		v, err := interest.NewSparseVector(ids, vals)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cand := interest.NewMatrix(3, 2)
	cand.SetRow(0, mkRow([]int32{0, 1}, []float64{1e-13, 0.6}))
	cand.SetRow(1, mkRow([]int32{0, 2}, []float64{1e-13, 0.5}))
	inst := &core.Instance{
		NumUsers:     3,
		NumIntervals: 2,
		Resources:    10,
		Events: []core.Event{
			{Location: 0, Required: 1, Name: "a"},
			{Location: 1, Required: 1, Name: "b"},
		},
		CandInterest: cand,
		CompInterest: interest.NewMatrix(3, 0),
		Activity:     sigmaOne{},
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestUnapplyKeepsSharedTinyMass is the regression test for the
// epsilon-deletion bug: Unapply used to drop any scheduled-mass entry
// below an absolute 1e-12, which also erased a *different*
// still-scheduled event's legitimately tiny mass for a shared user.
// The cutoff must be relative to the mass being subtracted.
func TestUnapplyKeepsSharedTinyMass(t *testing.T) {
	inst := tinyMassInstance(t)
	for name, eng := range newEngines(inst) {
		// Co-schedule both events at interval 0, then remove event 0.
		if err := eng.Apply(0, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := eng.Apply(1, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := eng.Unapply(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Event 1 is now alone at t=0 with no competition, so each of
		// its interested users attends with probability exactly σ = 1:
		// user 0's tiny µ must still count in full, not be deleted.
		want := ReferenceUtility(inst, eng.Schedule())
		if math.Abs(want-2) > 1e-9 {
			t.Fatalf("%s: reference utility %v, want 2 (test setup broken)", name, want)
		}
		if got := eng.Utility(); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: Utility = %v after unapply, want %v (shared tiny mass lost)", name, got, want)
		}
		if got := eng.EventAttendance(1); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: ω(e1) = %v after unapply, want %v", name, got, want)
		}
		// And the score of re-adding event 0 must match the oracle.
		gotScore := eng.Score(0, 0)
		wantScore, err := ReferenceScore(inst, eng.Schedule(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotScore-wantScore) > 1e-9 {
			t.Errorf("%s: Score(e0,t0) = %v after unapply, reference %v", name, gotScore, wantScore)
		}
	}
}

// TestUnapplyKeepsAsymmetricTinyMass is the harder variant: the
// removed event's mass for the shared user is ~13 orders of magnitude
// *larger* than the surviving event's. Cancellation noise scales with
// the larger operand, so a cutoff relative to the subtracted mass
// (the first attempt at this fix) still erased the survivor; the
// cutoff must be a few ulps of the pre-subtraction accumulated mass.
func TestUnapplyKeepsAsymmetricTinyMass(t *testing.T) {
	mkRow := func(ids []int32, vals []float64) interest.SparseVector {
		v, err := interest.NewSparseVector(ids, vals)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cand := interest.NewMatrix(2, 2)
	cand.SetRow(0, mkRow([]int32{0}, []float64{1.0}))   // big event
	cand.SetRow(1, mkRow([]int32{0}, []float64{1e-13})) // tiny event
	inst := &core.Instance{
		NumUsers:     2,
		NumIntervals: 1,
		Resources:    10,
		Events: []core.Event{
			{Location: 0, Required: 1, Name: "big"},
			{Location: 1, Required: 1, Name: "tiny"},
		},
		CandInterest: cand,
		CompInterest: interest.NewMatrix(2, 0),
		Activity:     sigmaOne{},
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, eng := range newEngines(inst) {
		if err := eng.Apply(0, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := eng.Apply(1, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := eng.Unapply(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The tiny event is now alone with no competition: user 0
		// attends with probability σ = 1, however small µ is.
		want := ReferenceUtility(inst, eng.Schedule())
		if math.Abs(want-1) > 1e-9 {
			t.Fatalf("%s: reference utility %v, want 1 (test setup broken)", name, want)
		}
		if got := eng.Utility(); math.Abs(got-want) > 1e-6 {
			t.Errorf("%s: Utility = %v after unapplying the big event, want %v (survivor's mass erased)",
				name, got, want)
		}
	}
}

// TestUnapplyDropsCancellationNoise checks the other side of the
// epsilon rule: after removing the only event contributing a user's
// mass, the residual (pure floating-point cancellation noise) must not
// linger as spurious scheduled mass.
func TestUnapplyDropsCancellationNoise(t *testing.T) {
	inst := tinyMassInstance(t)
	for name, eng := range newEngines(inst) {
		if err := eng.Apply(0, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := eng.Apply(1, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := eng.Unapply(1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := eng.Unapply(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := eng.Utility(); got != 0 {
			t.Errorf("%s: Utility = %v on empty schedule, want exactly 0", name, got)
		}
		if got := eng.IntervalUtility(0); got != 0 {
			t.Errorf("%s: IntervalUtility(0) = %v on empty schedule, want exactly 0", name, got)
		}
	}
}

// TestUnapplyLargeFirstLeavesNoNoise is the ordering that defeated a
// cutoff relative to the entry's current mass: removing the *large*
// event first leaves the small entry carrying rounding noise that
// scales with the removed mass, and removing the small event next
// must not let that noise linger as a full attendee (with no
// competition, luceShare turns any surviving p > 0 into σ). The noise
// cutoff therefore scales with the interval's mass high-water mark.
func TestUnapplyLargeFirstLeavesNoNoise(t *testing.T) {
	mkRow := func(ids []int32, vals []float64) interest.SparseVector {
		v, err := interest.NewSparseVector(ids, vals)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// µA deliberately not a power of two so µA+µB rounds. Event 2
	// (user 1 only) keeps the interval occupied after events 0 and 1
	// are removed, so the noise cutoff — not the cleared-interval
	// shortcut — is what must drop user 0's residual.
	muA := 0.5005
	muB := muA / 300
	cand := interest.NewMatrix(2, 3)
	cand.SetRow(0, mkRow([]int32{0}, []float64{muA}))
	cand.SetRow(1, mkRow([]int32{0}, []float64{muB}))
	cand.SetRow(2, mkRow([]int32{1}, []float64{0.3}))
	inst := &core.Instance{
		NumUsers:     2,
		NumIntervals: 1,
		Resources:    10,
		Events: []core.Event{
			{Location: 0, Required: 1, Name: "big"},
			{Location: 1, Required: 1, Name: "small"},
			{Location: 2, Required: 1, Name: "bystander"},
		},
		CandInterest: cand,
		CompInterest: interest.NewMatrix(2, 0),
		Activity:     sigmaOne{},
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, eng := range newEngines(inst) {
		for ev := 0; ev < 3; ev++ {
			if err := eng.Apply(ev, 0); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		// Remove the big event first: the small entry survives with
		// the big event's rounding noise folded in.
		if err := eng.Unapply(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := eng.Utility(); math.Abs(got-2) > 1e-9 {
			t.Errorf("%s: Utility = %v with small+bystander left, want 2", name, got)
		}
		// Now remove the small event. The interval is still occupied
		// by the bystander, so only the noise cutoff can drop user
		// 0's residual — if it lingers, luceShare turns it into a
		// whole spurious attendee (σ·p/(0+p) = 1).
		if err := eng.Unapply(1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := ReferenceUtility(inst, eng.Schedule())
		if math.Abs(want-1) > 1e-9 {
			t.Fatalf("%s: reference utility %v, want 1 (test setup broken)", name, want)
		}
		if got := eng.Utility(); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: Utility = %v after large-first removal, want %v (noise kept as attendance)", name, got, want)
		}
		// And removing the bystander empties the interval exactly.
		if err := eng.Unapply(2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := eng.Utility(); got != 0 {
			t.Errorf("%s: Utility = %v on empty schedule, want exactly 0", name, got)
		}
	}
}

// TestHWMDecaysWhenAccumulatorEmpties is the regression test for the
// stale high-water-mark bug: the hwm that scales the noise cutoff
// never decayed, so once an interval's accumulator emptied *while
// events remained scheduled* (every residual noise-dropped), a later
// small-mass-only workload at that interval had its legitimate
// residuals judged against the old lifetime maximum and erased
// wholesale. The clear-then-small-mass sequence below drives exactly
// that: a heavy phase pushes hwm to ~4, its unapplies empty the
// accumulator with a tiny event still scheduled, and then a small
// phase (µ ~ 1e-14) must survive its own unapply arithmetic.
func TestHWMDecaysWhenAccumulatorEmpties(t *testing.T) {
	mkRow := func(ids []int32, vals []float64) interest.SparseVector {
		v, err := interest.NewSparseVector(ids, vals)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Events 0-3: the heavy phase, all mass on user 0 (hwm climbs to 4).
	// Event 4 ("holdout") shares user 0 with µ = 1e-15: its mass is
	// legitimately dropped as cancellation noise during the heavy
	// unapplies (the documented residualEps collateral), but it keeps
	// the interval occupied so only the hwm — not the cleared-interval
	// shortcut — governs the next phase. Events 5-6: the small phase on
	// user 1 (µ = 1e-14 and 1e-3).
	cand := interest.NewMatrix(2, 7)
	for ev := 0; ev < 4; ev++ {
		cand.SetRow(ev, mkRow([]int32{0}, []float64{1.0}))
	}
	cand.SetRow(4, mkRow([]int32{0}, []float64{1e-15}))
	cand.SetRow(5, mkRow([]int32{1}, []float64{1e-14}))
	cand.SetRow(6, mkRow([]int32{1}, []float64{1e-3}))
	events := make([]core.Event, 7)
	for ev := range events {
		events[ev] = core.Event{Location: ev, Required: 1}
	}
	inst := &core.Instance{
		NumUsers:     2,
		NumIntervals: 1,
		Resources:    10,
		Events:       events,
		CandInterest: cand,
		CompInterest: interest.NewMatrix(2, 0),
		Activity:     sigmaOne{},
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	// Ref has no noise cutoff (and no hwm), so it is exempt: run the
	// incremental engines only.
	engines := map[string]Engine{
		"sparse": NewSparse(inst),
		"dense":  NewDense(inst),
	}
	for name, eng := range engines {
		// Heavy phase: stack four unit masses plus the tiny holdout,
		// then remove the four. The holdout's 1e-15 residual is far
		// below residualEps·4, so the accumulator is left empty while
		// the holdout is still scheduled.
		for ev := 0; ev <= 4; ev++ {
			if err := eng.Apply(ev, 0); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for ev := 0; ev < 4; ev++ {
			if err := eng.Unapply(ev); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		// Small phase: user 1's µ = 1e-14 event joins, a µ = 1e-3 event
		// joins and leaves. The 1e-14 residual is ~70× the correct
		// noise floor (residualEps·1e-3) but far *below* the stale one
		// (residualEps·4), so with an undecayed hwm it is erased.
		for ev := 5; ev <= 6; ev++ {
			if err := eng.Apply(ev, 0); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if err := eng.Unapply(6); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// With no competition, user 1 attends event 5 with probability
		// σ = 1 however small µ is. The surviving 1e-14 residual
		// carries up to ulp(1e-3)/2 ≈ 8.5e-20 of rounding from the
		// µ = 1e-3 add/subtract cycle — ~1e-5 relative at this scale —
		// hence the loose tolerance; the buggy behavior yields exactly
		// 0. (The holdout's own user-0 share was already lost to the
		// heavy phase's legitimate noise cutoff, so the engine utility
		// is ~1, not the oracle's 2.)
		if got := eng.EventAttendance(5); math.Abs(got-1) > 1e-4 {
			t.Errorf("%s: ω(e5) = %v after small-mass unapply, want 1 (residual judged against stale hwm)", name, got)
		}
		if got := eng.Utility(); math.Abs(got-1) > 1e-4 {
			t.Errorf("%s: Utility = %v after clear-then-small-mass sequence, want 1", name, got)
		}
	}
}
