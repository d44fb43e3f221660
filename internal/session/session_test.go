package session

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/dataset"
	"ses/internal/sestest"
	"ses/internal/solver"
)

func testInstance(seed uint64) *core.Instance {
	return sestest.Random(sestest.Config{
		Seed: seed, Users: 40, Events: 14, Intervals: 6, Competing: 8,
	})
}

// freshClone rebuilds an identical session from scratch (no score
// cache), preserving the instance and all constraints. Its next
// Resolve is the from-scratch baseline incremental resolves are
// compared against.
func freshClone(t *testing.T, s *Scheduler) *Scheduler {
	t.Helper()
	ns, err := New(s.inst, s.k, s.opts)
	if err != nil {
		t.Fatal(err)
	}
	ns.obj = s.obj // the objective is state, not an option
	copy(ns.cancelled, s.cancelled)
	for e, ti := range s.pins {
		ns.pins[e] = ti
	}
	for e, m := range s.forbidden {
		cp := make(map[int]bool, len(m))
		for ti := range m {
			cp[ti] = true
		}
		ns.forbidden[e] = cp
	}
	return ns
}

func sameAssignments(a, b []core.Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertIncrementalEquivalence resolves s incrementally and a fresh
// clone from scratch, then requires identical schedules and utilities
// with strictly fewer InitialScores on the incremental side.
func assertIncrementalEquivalence(t *testing.T, s *Scheduler, wantInitial int) *Delta {
	t.Helper()
	fresh := freshClone(t, s)
	fd, err := fresh.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Utility != fd.Utility {
		t.Fatalf("incremental utility %v, from-scratch %v", d.Utility, fd.Utility)
	}
	if !sameAssignments(s.Schedule(), fresh.Schedule()) {
		t.Fatalf("incremental schedule %v, from-scratch %v", s.Schedule(), fresh.Schedule())
	}
	if d.Counters.InitialScores >= fd.Counters.InitialScores {
		t.Fatalf("incremental InitialScores %d not fewer than from-scratch %d",
			d.Counters.InitialScores, fd.Counters.InitialScores)
	}
	if wantInitial >= 0 && d.Counters.InitialScores != wantInitial {
		t.Fatalf("incremental InitialScores %d, want %d", d.Counters.InitialScores, wantInitial)
	}
	return d
}

// kernelTwin is the from-scratch solver whose counters a session's
// first resolve reproduces: the session runs SelectGreedy in heap
// mode under a submodular objective, as grdlazy does, and in the
// paper's scan mode otherwise, as grd does.
func kernelTwin(cfg solver.Config) solver.Solver {
	if cfg.Objective == nil || cfg.Objective.Submodular() {
		return solver.NewGRDLazy(cfg)
	}
	return solver.NewGRD(cfg)
}

func TestFirstResolveMatchesGRDExactly(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		inst := testInstance(seed)
		const k = 7
		for _, workers := range []int{1, 4} {
			s, err := New(inst, k, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			d, err := s.Resolve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			grd, err := solver.NewGRD(solver.Config{Workers: workers}).Solve(context.Background(), inst, k)
			if err != nil {
				t.Fatal(err)
			}
			if d.Utility != grd.Utility {
				t.Fatalf("seed %d: session %v, GRD %v", seed, d.Utility, grd.Utility)
			}
			if !sameAssignments(s.Schedule(), grd.Schedule.Assignments()) {
				t.Fatalf("seed %d: schedules differ", seed)
			}
			twin, err := kernelTwin(solver.Config{Workers: workers}).Solve(context.Background(), inst, k)
			if err != nil {
				t.Fatal(err)
			}
			if d.Counters != twin.Counters {
				t.Fatalf("seed %d: counters differ from %s: %+v vs %+v", seed, twin.Solver, d.Counters, twin.Counters)
			}
			if len(d.Added) != grd.Schedule.Size() || len(d.Removed) != 0 || len(d.Moved) != 0 {
				t.Fatalf("seed %d: first delta %+v", seed, d)
			}
		}
	}
}

func TestUpdateInterestInvalidatesOneRow(t *testing.T) {
	inst := testInstance(1)
	s, err := New(inst, 7, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateInterest(3, 5, 0.95); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateInterest(7, 5, 0); err != nil {
		t.Fatal(err)
	}
	// One dirty event: exactly |T| rescored entries.
	d := assertIncrementalEquivalence(t, s, s.inst.NumIntervals)
	// The mutated instance must also match plain GRD (no constraints
	// are active), pinning the equivalence to the real solver.
	grd, err := solver.NewGRD(solver.Config{Workers: 1}).Solve(context.Background(), s.Instance(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if d.Utility != grd.Utility {
		t.Fatalf("session %v, GRD %v", d.Utility, grd.Utility)
	}
}

func TestAddEventInvalidatesOneRow(t *testing.T) {
	inst := testInstance(2)
	s, err := New(inst, 7, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	id, err := s.AddEvent(core.Event{Location: 1, Required: 2, Name: "late-addition"},
		map[int]float64{0: 0.9, 1: 0.8, 2: 0.7, 5: 1})
	if err != nil {
		t.Fatal(err)
	}
	if id != inst.NumEvents() {
		t.Fatalf("new event id %d, want %d", id, inst.NumEvents())
	}
	d := assertIncrementalEquivalence(t, s, s.inst.NumIntervals)
	grd, err := solver.NewGRD(solver.Config{Workers: 1}).Solve(context.Background(), s.Instance(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if d.Utility != grd.Utility {
		t.Fatalf("session %v, GRD %v", d.Utility, grd.Utility)
	}
}

func TestAddCompetingInvalidatesOneColumn(t *testing.T) {
	inst := testInstance(3)
	s, err := New(inst, 7, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddCompeting(core.CompetingEvent{Interval: 2, Name: "rival"},
		map[int]float64{0: 1, 3: 0.6, 9: 0.4}); err != nil {
		t.Fatal(err)
	}
	assertIncrementalEquivalence(t, s, s.inst.NumEvents())
}

func TestCancelEventInvalidatesNothing(t *testing.T) {
	inst := testInstance(4)
	s, err := New(inst, 7, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	victim := s.Schedule()[0].Event
	if err := s.CancelEvent(victim); err != nil {
		t.Fatal(err)
	}
	d := assertIncrementalEquivalence(t, s, 0)
	for _, a := range s.Schedule() {
		if a.Event == victim {
			t.Fatal("cancelled event still scheduled")
		}
	}
	found := false
	for _, r := range d.Removed {
		if r.Event == victim {
			found = true
		}
	}
	if !found && len(d.Moved) == 0 {
		t.Fatalf("delta does not reflect the cancellation: %+v", d)
	}
}

func TestPinAndForbidAreHonoredWithZeroRescore(t *testing.T) {
	inst := testInstance(5)
	s, err := New(inst, 6, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := s.Schedule()[0]
	// Forbid the greedy's favorite pair and pin another event far
	// from where greedy put it.
	if err := s.Forbid(first.Event, first.Interval); err != nil {
		t.Fatal(err)
	}
	pinned := s.Schedule()[1].Event
	pinTo := (s.Schedule()[1].Interval + 3) % s.inst.NumIntervals
	if err := s.Pin(pinned, pinTo); err != nil {
		t.Fatal(err)
	}
	d := assertIncrementalEquivalence(t, s, 0)
	got := map[int]int{}
	for _, a := range s.Schedule() {
		got[a.Event] = a.Interval
	}
	if got[first.Event] == first.Interval {
		t.Fatalf("forbidden pair (%d,%d) still scheduled", first.Event, first.Interval)
	}
	if got[pinned] != pinTo {
		t.Fatalf("pinned event %d at %d, want %d", pinned, got[pinned], pinTo)
	}
	_ = d
}

func TestMutationBatchThenResolve(t *testing.T) {
	// A realistic booking session: several mutations of different
	// kinds between two resolves; invalidation is the union.
	inst := testInstance(6)
	s, err := New(inst, 8, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateInterest(1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddCompeting(core.CompetingEvent{Interval: 0}, map[int]float64{4: 0.8}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddEvent(core.Event{Location: 0, Required: 1}, map[int]float64{2: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := s.CancelEvent(3); err != nil {
		t.Fatal(err)
	}
	nE, nT := s.inst.NumEvents(), s.inst.NumIntervals
	// One dirty interval (nE entries) + two dirty rows at the nT-1
	// clean intervals each.
	want := nE + 2*(nT-1)
	assertIncrementalEquivalence(t, s, want)
}

func TestResolveAfterKChange(t *testing.T) {
	inst := testInstance(7)
	s, err := New(inst, 4, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.SetK(8); err != nil {
		t.Fatal(err)
	}
	d := assertIncrementalEquivalence(t, s, 0)
	if len(s.Schedule()) <= 4 {
		t.Fatalf("k=8 resolve kept only %d events", len(s.Schedule()))
	}
	if len(d.Added) == 0 {
		t.Fatal("raising k added nothing")
	}
}

func TestEngineIsReusedWhenOnlyConstraintsChange(t *testing.T) {
	inst := testInstance(8)
	s, err := New(inst, 5, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	warm := s.eng
	if err := s.Pin(s.cur[0].Event, s.cur[0].Interval); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.eng != warm {
		t.Fatal("engine was rebuilt although only constraints changed")
	}
	// Structural mutations patch the Sparse engine in place; the
	// patched engine must still resolve exactly like a fresh session.
	for _, m := range []struct {
		name   string
		mutate func() error
	}{
		{"AddEvent", func() error {
			_, err := s.AddEvent(core.Event{Location: 0, Required: 1}, map[int]float64{3: 0.9, 17: 0.4})
			return err
		}},
		{"UpdateInterest", func() error { return s.UpdateInterest(5, 2, 0.8) }},
		{"AddCompeting", func() error {
			_, err := s.AddCompeting(core.CompetingEvent{Interval: 1}, map[int]float64{3: 0.7, 9: 0.5})
			return err
		}},
	} {
		if err := m.mutate(); err != nil {
			t.Fatal(err)
		}
		assertIncrementalEquivalence(t, s, -1)
		if s.eng != warm {
			t.Fatalf("engine rebuilt after %s", m.name)
		}
	}
}

// TestPatchIsIdempotentAcrossFailedResolve: a Resolve that fails
// after patching the engine keeps the dirty sets, so its retry
// patches the same interval again. Patching must re-derive the
// interval from the instance: a patch that folded the interval's
// competitors into the mass it already held would count the first
// rival twice and drift from a from-scratch resolve.
func TestPatchIsIdempotentAcrossFailedResolve(t *testing.T) {
	s, err := New(testInstance(13), 6, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	const ti = 2
	if _, err := s.AddCompeting(core.CompetingEvent{Interval: ti}, map[int]float64{1: 0.9, 4: 0.6, 7: 0.3}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Resolve(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, err := s.AddCompeting(core.CompetingEvent{Interval: ti}, map[int]float64{4: 0.5, 8: 0.7}); err != nil {
		t.Fatal(err)
	}
	assertIncrementalEquivalence(t, s, s.inst.NumEvents())
}

func TestResolveCancelKeepsPreviousSchedule(t *testing.T) {
	inst := testInstance(9)
	s, err := New(inst, 6, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := s.Schedule()
	beforeUtil := s.Utility()
	if err := s.UpdateInterest(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Resolve(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if !sameAssignments(s.Schedule(), before) || s.Utility() != beforeUtil {
		t.Fatal("canceled resolve mutated the committed schedule")
	}
	// The session must recover fully on the next resolve.
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// countdownCtx reports err (DeadlineExceeded when nil) after a fixed
// number of Err checks — a deterministic stand-in for a deadline that
// expires, or a cancellation that arrives, mid-selection.
type countdownCtx struct {
	context.Context
	remaining int
	err       error
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		if c.err != nil {
			return c.err
		}
		return context.DeadlineExceeded
	}
	c.remaining--
	return nil
}

func TestResolveDeadlineCommitsBestSoFar(t *testing.T) {
	inst := testInstance(10)
	s, err := New(inst, 8, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateInterest(2, 3, 0.9); err != nil {
		t.Fatal(err)
	}
	// Enough checks to finish score patching, few enough to cut the
	// selection loop short.
	ctx := &countdownCtx{Context: context.Background(), remaining: s.inst.NumIntervals + 3}
	d, err := s.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d.Stopped != solver.StoppedDeadline {
		t.Fatalf("Stopped = %q, want %q", d.Stopped, solver.StoppedDeadline)
	}
	if len(s.Schedule()) >= 8 {
		t.Fatalf("deadline resolve still scheduled all %d events", len(s.Schedule()))
	}
	// Best-so-far is committed; a fresh resolve completes the job.
	d2, err := s.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d2.Stopped != "" {
		t.Fatalf("follow-up resolve stopped: %q", d2.Stopped)
	}
	if d2.Counters.InitialScores != 0 {
		t.Fatalf("follow-up resolve rescored %d entries, want 0", d2.Counters.InitialScores)
	}
}

func TestMutationValidation(t *testing.T) {
	inst := testInstance(12)
	s, err := New(inst, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddEvent(core.Event{Location: -1}, nil); err == nil {
		t.Error("negative location accepted")
	}
	if _, err := s.AddEvent(core.Event{Required: -2}, nil); err == nil {
		t.Error("negative required accepted")
	}
	if _, err := s.AddEvent(core.Event{}, map[int]float64{999: 0.5}); err == nil {
		t.Error("out-of-range user accepted")
	}
	if _, err := s.AddEvent(core.Event{}, map[int]float64{0: 1.5}); err == nil {
		t.Error("µ > 1 accepted")
	}
	if _, err := s.AddCompeting(core.CompetingEvent{Interval: 99}, nil); err == nil {
		t.Error("out-of-range competing interval accepted")
	}
	if err := s.UpdateInterest(0, 999, 0.5); err == nil {
		t.Error("out-of-range event accepted")
	}
	if err := s.UpdateInterest(-1, 0, 0.5); err == nil {
		t.Error("negative user accepted")
	}
	if err := s.UpdateInterest(0, 0, 2); err == nil {
		t.Error("µ > 1 accepted in UpdateInterest")
	}
	if err := s.Pin(0, 99); err == nil {
		t.Error("out-of-range pin accepted")
	}
	if err := s.Forbid(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(0, 2); err == nil {
		t.Error("pin onto forbidden pair accepted")
	}
	if err := s.Pin(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Forbid(1, 2); err == nil {
		t.Error("forbid of pinned pair accepted")
	}
	if err := s.CancelEvent(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(1, 0); err == nil {
		t.Error("pin of cancelled event accepted")
	}
	if _, err := New(inst, -1, Options{}); !errors.Is(err, solver.ErrNegativeK) {
		t.Error("negative k accepted")
	}
}

func TestPinsBeyondKAreHonored(t *testing.T) {
	// Pins are hard constraints: with more pins than k, every pin is
	// applied and greedy fill adds nothing.
	inst := sestest.Random(sestest.Config{Seed: 17, Events: 8, Intervals: 6, Locations: 6, Resources: 100})
	s, err := New(inst, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if err := s.Pin(e, e%inst.NumIntervals); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := s.Schedule()
	if len(got) != 3 {
		t.Fatalf("scheduled %d events, want the 3 pins (k=2)", len(got))
	}
	for _, a := range got {
		if s.pins[a.Event] != a.Interval {
			t.Fatalf("non-pinned assignment %+v crept in past k", a)
		}
	}
}

func TestInfeasiblePinFailsResolve(t *testing.T) {
	// Two events sharing a location pinned to the same interval.
	inst := sestest.Random(sestest.Config{Seed: 13, Events: 6, Intervals: 3, Locations: 1, Resources: 100})
	s, err := New(inst, 4, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err == nil {
		t.Fatal("conflicting pins resolved without error")
	}
	if err := s.Unpin(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestProgressStreamsFromResolve(t *testing.T) {
	inst := testInstance(14)
	var events []solver.Progress
	s, err := New(inst, 5, Options{Workers: 1, Progress: func(p solver.Progress) { events = append(events, p) }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(s.Schedule()) {
		t.Fatalf("%d progress events for %d selections", len(events), len(s.Schedule()))
	}
	for i, p := range events {
		if p.Solver != "session" || p.Scheduled != i+1 {
			t.Fatalf("event %d: %+v", i, p)
		}
	}
}

// TestProgressDoesNotChangeCounters: a progress callback is an
// observer and must not change the work done. GRD, grdlazy and a
// session, each with and without Progress, must report the counters
// of their kernel mode without Progress: GRD's for GRD, grdlazy's for
// the session's first resolve, which runs heap mode under Omega. The
// session's warm resolve after a mutation, which replays part of its
// trail, must not differ either, and the session must keep its bare
// engine, which the progress decorator would hide from the in-place
// reuse and patching.
func TestProgressDoesNotChangeCounters(t *testing.T) {
	inst := sestest.Random(sestest.Config{Users: 80, Events: 12, Intervals: 5, Seed: 1})
	const k = 8
	var wantScan, wantHeap, wantWarm solver.Counters
	for i, progress := range []func(solver.Progress){nil, func(solver.Progress) {}} {
		cfg := solver.Config{Workers: 1, Progress: progress}
		grd, err := solver.NewGRD(cfg).Solve(context.Background(), inst, k)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := solver.NewGRDLazy(cfg).Solve(context.Background(), inst, k)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(inst, k, Options{Workers: 1, Progress: progress})
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.Resolve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.UpdateInterest(3, 11, 0.9); err != nil {
			t.Fatal(err)
		}
		warm, err := s.Resolve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantScan, wantHeap, wantWarm = grd.Counters, lazy.Counters, warm.Counters
			if wantWarm.Replayed == 0 {
				t.Fatalf("the warm resolve replayed nothing (counters %+v)", wantWarm)
			}
		}
		if grd.Counters != wantScan {
			t.Errorf("GRD with progress=%v: counters %+v, want %+v", progress != nil, grd.Counters, wantScan)
		}
		if lazy.Counters != wantHeap {
			t.Errorf("grdlazy with progress=%v: counters %+v, want %+v", progress != nil, lazy.Counters, wantHeap)
		}
		if d.Counters != wantHeap {
			t.Errorf("session with progress=%v: counters %+v, want %+v", progress != nil, d.Counters, wantHeap)
		}
		if warm.Counters != wantWarm {
			t.Errorf("warm session resolve with progress=%v: counters %+v, want %+v", progress != nil, warm.Counters, wantWarm)
		}
		if _, ok := s.eng.(*choice.Sparse); !ok {
			t.Errorf("session with progress=%v keeps a %T, not the bare *choice.Sparse", progress != nil, s.eng)
		}
	}
}

func TestConcurrentMutationsAndResolves(t *testing.T) {
	// Exercised under -race in CI: mutations and resolves from many
	// goroutines must serialize cleanly.
	inst := testInstance(15)
	s, err := New(inst, 6, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch (g + i) % 4 {
				case 0:
					_ = s.UpdateInterest(i%s.inst.NumUsers, g, 0.5)
				case 1:
					_, _ = s.Resolve(context.Background())
				case 2:
					_ = s.Pin(g, i%inst.NumIntervals)
					_ = s.Unpin(g)
				default:
					_ = s.Utility()
					_ = s.Counters()
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	sched := core.NewSchedule(s.Instance())
	for _, a := range s.Schedule() {
		if err := sched.Assign(a.Event, a.Interval); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.CheckFeasible(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineDuringScorePatchIsAnError(t *testing.T) {
	inst := testInstance(16)
	s, err := New(inst, 5, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.Resolve(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if len(s.Schedule()) != 0 {
		t.Fatal("failed resolve committed a schedule")
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestHugeUserSpaceStaysSmall: a valid document that claims 2^30 users
// but holds a handful of interest entries is decoded, created and
// resolved with memory bounded by its entries, not by its claim. (The
// Sparse engine keeps its dense per-user view and σ keys only when the
// instance's candidate rows hold at least NumUsers entries.) TotalAlloc counts
// every byte allocated, including the scoring forks' discarded
// scratch.
func TestHugeUserSpaceStaysSmall(t *testing.T) {
	const users = 1 << 30
	row := func(ids ...int32) dataset.VectorDoc {
		vals := make([]float64, len(ids))
		for i := range vals {
			vals[i] = 0.5
		}
		return dataset.VectorDoc{IDs: ids, Vals: vals}
	}
	raw, err := json.Marshal(dataset.InstanceDoc{
		NumUsers: users, NumIntervals: 3, Resources: 10,
		Events:    []core.Event{{Location: 0, Required: 1}, {Location: 1, Required: 1}, {Location: 2, Required: 1}},
		Competing: []core.CompetingEvent{{Interval: 1}},
		CandInterest: dataset.MatrixDoc{NumUsers: users, Rows: []dataset.VectorDoc{
			row(0, 5, users-1), row(5, 7), row(users - 2),
		}},
		CompInterest: dataset.MatrixDoc{NumUsers: users, Rows: []dataset.VectorDoc{row(5, users-1)}},
		Activity:     dataset.ActivityDoc{Type: "uniformhash", Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var doc dataset.InstanceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	inst, err := doc.Instance()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(inst, 2, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := len(s.Schedule()); n != 2 || !(s.Utility() > 0) {
		t.Fatalf("resolve scheduled %d events, utility %v", n, s.Utility())
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 4<<20 {
		t.Fatalf("decode, create and resolve allocated %d bytes for %d interest entries", grown, 8)
	}
}
