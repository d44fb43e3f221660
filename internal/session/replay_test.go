package session

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/randx"
	"ses/internal/sestest"
	"ses/internal/solver"
)

// replayEngines are the engines the replay differential runs, each
// patched in place after structural mutations: the production engine
// and the Ref oracle.
var replayEngines = []struct {
	name string
	f    solver.EngineFactory
}{
	{"sparse", solver.DefaultEngine},
	{"ref", func(in *core.Instance) choice.Engine { return choice.NewRef(in) }},
}

// picker records the assignments a session applies, in order, through
// its Progress callback.
type picker struct{ picks []core.Assignment }

func (p *picker) progress(pr solver.Progress) {
	p.picks = append(p.picks, core.Assignment{Event: pr.Event, Interval: pr.Interval})
}

// replaySession starts a session under Omega whose picks rec records.
func replaySession(t *testing.T, inst *core.Instance, k int, f solver.EngineFactory, rec *picker) *Scheduler {
	t.Helper()
	s, err := New(inst, k, Options{Workers: 1, Engine: f, Progress: rec.progress})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// resolveAgainstScratch resolves s and a session restored from s's
// exported state, which has neither a score cache nor a trail and so
// selects from scratch. Both must fail together, or agree on the
// delta, the committed schedule, the order every assignment was
// applied in and the utility's bits. rec must be s's recorder.
func resolveAgainstScratch(t *testing.T, s *Scheduler, f solver.EngineFactory, rec *picker) *Delta {
	t.Helper()
	var scratch picker
	fresh, err := FromState(s.ExportState(), Options{Workers: 1, Engine: f, Progress: scratch.progress})
	if err != nil {
		t.Fatal(err)
	}
	rec.picks = rec.picks[:0]
	d, err := s.Resolve(context.Background())
	fd, ferr := fresh.Resolve(context.Background())
	if (err == nil) != (ferr == nil) {
		t.Fatalf("replaying resolve: %v, from scratch: %v", err, ferr)
	}
	if err != nil {
		return nil // conflicting pins fail both
	}
	if !sameAssignments(rec.picks, scratch.picks) {
		t.Fatalf("pick order %v, from scratch %v (delta %+v)", rec.picks, scratch.picks, d.Counters)
	}
	if !sameAssignments(s.Schedule(), fresh.Schedule()) {
		t.Fatalf("schedule %v, from scratch %v", s.Schedule(), fresh.Schedule())
	}
	if math.Float64bits(d.Utility) != math.Float64bits(fd.Utility) {
		t.Fatalf("utility %v, from scratch %v (counters %+v)", d.Utility, fd.Utility, d.Counters)
	}
	if !sameAssignments(d.Added, fd.Added) || !sameAssignments(d.Removed, fd.Removed) || len(d.Moved) != len(fd.Moved) {
		t.Fatalf("delta %+v, from scratch %+v", d, fd)
	}
	for i := range d.Moved {
		if d.Moved[i] != fd.Moved[i] {
			t.Fatalf("moved %v, from scratch %v", d.Moved, fd.Moved)
		}
	}
	if fd.Counters.Replayed != 0 {
		t.Fatalf("a restored session replayed %d steps", fd.Counters.Replayed)
	}
	return d
}

// checkResolveReplay drives a session over a random instance through
// random batches of all nine mutation kinds, leaning on the cases that
// decide what may replay: re-pinning a committed pair, unpinning an
// event that is not pinned, forbidding and allowing scheduled pairs,
// cancelling scheduled events, k going down and up, new competitors
// and interest rows at pinned intervals. Every resolve must equal a
// from-scratch one (resolveAgainstScratch); deadline-stopped and
// cancelled resolves and installed commits are mixed in, and the next
// resolve after each must equal from scratch too. It returns the
// steps replayed in all.
func checkResolveReplay(t *testing.T, seed uint64, f solver.EngineFactory, k, batches int) int {
	t.Helper()
	rng := randx.NewSource(seed)
	inst := sestest.Random(sestest.Config{
		Users: rng.IntRange(10, 50), Events: rng.IntRange(4, 14), Intervals: rng.IntRange(2, 6),
		Competing: rng.IntN(6), Locations: rng.IntRange(2, 5), Seed: seed,
	})
	var rec picker
	s := replaySession(t, inst, k, f, &rec)
	replayed := 0
	if d := resolveAgainstScratch(t, s, f, &rec); d != nil {
		replayed += d.Counters.Replayed
	}
	interest := func() map[int]float64 {
		mu := make(map[int]float64)
		for i := rng.IntRange(1, 5); i > 0; i-- {
			mu[rng.IntN(inst.NumUsers)] = math.Round(rng.Float64()*100) / 100
		}
		return mu
	}
	nT := inst.NumIntervals
	event := func() int { return rng.IntN(s.inst.NumEvents()) }
	scheduled := func() (core.Assignment, bool) {
		if len(s.cur) == 0 {
			return core.Assignment{}, false
		}
		return s.cur[rng.IntN(len(s.cur))], true
	}
	pinned := func() (core.Assignment, bool) {
		pins := s.sortedPins()
		if len(pins) == 0 {
			return core.Assignment{}, false
		}
		return pins[rng.IntN(len(pins))], true
	}
	// pick draws from the committed schedule (or the pins) half the
	// time and anywhere otherwise.
	pick := func(from func() (core.Assignment, bool)) core.Assignment {
		if a, ok := from(); ok && rng.IntN(2) == 0 {
			return a
		}
		return core.Assignment{Event: event(), Interval: rng.IntN(nT)}
	}
	for b := 0; b < batches; b++ {
		for m := rng.IntRange(1, 3); m > 0; m-- {
			var err error
			switch rng.IntN(9) {
			case 0:
				_, err = s.AddEvent(core.Event{Location: rng.IntN(4), Required: float64(rng.IntRange(0, 3))}, interest())
			case 1:
				err = s.CancelEvent(pick(scheduled).Event)
			case 2:
				mu := math.Round(rng.Float64()*100) / 100
				if rng.IntN(4) == 0 {
					mu = 0
				}
				err = s.UpdateInterest(rng.IntN(inst.NumUsers), pick(pinned).Event, mu)
			case 3:
				_, err = s.AddCompeting(core.CompetingEvent{Interval: pick(pinned).Interval}, interest())
			case 4:
				from := scheduled
				if rng.IntN(2) == 0 {
					from = pinned
				}
				a := pick(from)
				err = s.Pin(a.Event, a.Interval)
			case 5:
				err = s.Unpin(pick(pinned).Event)
			case 6:
				a := pick(scheduled)
				err = s.Forbid(a.Event, a.Interval)
			case 7:
				a := pick(scheduled)
				if rng.IntN(2) == 0 {
					a.Event, a.Interval = forbiddenPair(s, rng)
				}
				err = s.Allow(a.Event, a.Interval)
			case 8:
				err = s.SetK(max(0, s.k+rng.IntRange(-3, 3)))
			}
			if err == nil {
				if verr := s.inst.Validate(); verr != nil {
					t.Fatalf("seed %d: an accepted mutation left an invalid instance: %v", seed, verr)
				}
			}
		}
		switch rng.IntN(8) {
		case 0:
			// A deadline during selection, replay included, commits the
			// best-so-far, and with it a shorter trail. Its utility must
			// be that of the assignments applied, in their order.
			ctx := &countdownCtx{Context: context.Background(), remaining: rng.IntN(2 * s.inst.NumIntervals)}
			rec.picks = rec.picks[:0]
			d, err := s.Resolve(ctx)
			if err != nil && !expectedFailure(err) {
				t.Fatalf("seed %d: deadline resolve: %v", seed, err)
			}
			if err == nil {
				eng := f(s.inst)
				for _, a := range rec.picks {
					if err := eng.Apply(a.Event, a.Interval); err != nil {
						t.Fatal(err)
					}
				}
				if math.Float64bits(eng.Utility()) != math.Float64bits(d.Utility) {
					t.Fatalf("seed %d: stopped resolve committed utility %v for a schedule worth %v", seed, d.Utility, eng.Utility())
				}
			}
		case 1:
			// A cancelled resolve commits nothing and keeps the record
			// of what changed.
			ctx := &countdownCtx{Context: context.Background(), remaining: rng.IntN(2 * s.inst.NumIntervals), err: context.Canceled}
			if _, err := s.Resolve(ctx); err != nil && !expectedFailure(err) {
				t.Fatalf("seed %d: cancelled resolve: %v", seed, err)
			}
		case 2:
			// Install an outcome this session did not select, as a
			// follower does: a twin's schedule at another k.
			twin, err := FromState(s.ExportState(), Options{Workers: 1, Engine: f})
			if err != nil {
				t.Fatal(err)
			}
			if err := twin.SetK(max(0, s.k-1)); err != nil {
				t.Fatal(err)
			}
			if _, err := twin.Resolve(context.Background()); err == nil {
				if err := s.InstallCommit(twin.Committed()); err != nil {
					t.Fatalf("seed %d: InstallCommit: %v", seed, err)
				}
			}
		}
		if d := resolveAgainstScratch(t, s, f, &rec); d != nil {
			replayed += d.Counters.Replayed
		}
	}
	return replayed
}

// expectedFailure reports whether a side resolve's error is one a
// from-scratch resolve could give too: a context error, or pins that
// conflict.
func expectedFailure(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		strings.HasPrefix(err.Error(), "solver: pinned assignment")
}

// TestResolveReplayMatchesScratch runs the replay differential over
// fixed seeds on every engine, and requires that replay happens.
func TestResolveReplayMatchesScratch(t *testing.T) {
	for _, eng := range replayEngines {
		t.Run(eng.name, func(t *testing.T) {
			replayed := 0
			for seed := uint64(0); seed < 24; seed++ {
				replayed += checkResolveReplay(t, seed, eng.f, int(seed%8)+1, 30)
			}
			if replayed == 0 {
				t.Fatal("no resolve replayed a step")
			}
		})
	}
}

// FuzzResolveReplay widens TestResolveReplayMatchesScratch to
// arbitrary seeds, schedule sizes and engines.
func FuzzResolveReplay(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(4))
	f.Add(uint64(7), uint8(1), uint8(6))
	f.Add(uint64(42), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, engine, k uint8) {
		eng := replayEngines[int(engine)%len(replayEngines)]
		checkResolveReplay(t, seed, eng.f, int(k%12), 24)
	})
}

// TestReplayAfterDeadlineCommit: a deadline-stopped resolve commits
// the steps it took as the trail, and the next resolve replays them
// and selects the rest, exactly as from scratch.
func TestReplayAfterDeadlineCommit(t *testing.T) {
	var rec picker
	s := replaySession(t, testInstance(10), 8, solver.DefaultEngine, &rec)
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateInterest(2, 3, 0.9); err != nil {
		t.Fatal(err)
	}
	ctx := &countdownCtx{Context: context.Background(), remaining: s.inst.NumIntervals + 3}
	d, err := s.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d.Stopped != solver.StoppedDeadline || len(s.trail) == 0 || len(s.trail) >= 8 {
		t.Fatalf("stopped %q with a trail of %d steps", d.Stopped, len(s.trail))
	}
	want := len(s.trail)
	d = resolveAgainstScratch(t, s, solver.DefaultEngine, &rec)
	if d.Counters.Replayed != want || len(s.Schedule()) != 8 {
		t.Fatalf("replayed %d of %d steps, scheduled %d", d.Counters.Replayed, want, len(s.Schedule()))
	}
}

// TestDeadlineStopsReplay: replaying is selection too, so a deadline
// stops it between steps and commits the steps replayed so far, whose
// utility is refolded rather than taken from the longer commit.
func TestDeadlineStopsReplay(t *testing.T) {
	var rec picker
	s := replaySession(t, testInstance(10), 8, solver.DefaultEngine, &rec)
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	full, util := len(s.trail), s.Utility()
	// Nothing changed: patching checks the context once per interval,
	// then replay checks it before each step.
	const steps = 3
	d, err := s.Resolve(&countdownCtx{Context: context.Background(), remaining: s.inst.NumIntervals + steps})
	if err != nil {
		t.Fatal(err)
	}
	if d.Stopped != solver.StoppedDeadline || d.Counters.Replayed != steps || len(s.trail) != steps || full <= steps {
		t.Fatalf("stopped %q after replaying %d of %d steps; trail %d", d.Stopped, d.Counters.Replayed, full, len(s.trail))
	}
	if d.Utility >= util {
		t.Fatalf("a %d-step prefix kept the %d-step utility %v", steps, full, util)
	}
	d = resolveAgainstScratch(t, s, solver.DefaultEngine, &rec)
	if d.Counters.Replayed != steps || d.Utility != util {
		t.Fatalf("replayed %d steps to utility %v, want %d and %v", d.Counters.Replayed, d.Utility, steps, util)
	}
}

// TestReplayAfterInstallCommit: an installed commit was not selected
// by the session, so the trail goes with it and the next resolve
// selects in full. Keeping the trail would replay the old schedule
// and report the installed utility for it.
func TestReplayAfterInstallCommit(t *testing.T) {
	var rec picker
	inst := testInstance(12)
	s := replaySession(t, inst, 6, solver.DefaultEngine, &rec)
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	twin, err := New(inst, 5, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallCommit(twin.Committed()); err != nil {
		t.Fatal(err)
	}
	d := resolveAgainstScratch(t, s, solver.DefaultEngine, &rec)
	if d.Counters.Replayed != 0 {
		t.Fatalf("replayed %d steps after InstallCommit", d.Counters.Replayed)
	}
}

// TestRepinReplays: pinning a pair that is already pinned leaves the
// pin set as it was, so the whole trail still replays.
func TestRepinReplays(t *testing.T) {
	var rec picker
	s := replaySession(t, testInstance(14), 6, solver.DefaultEngine, &rec)
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	p := s.cur[0]
	if err := s.Pin(p.Event, p.Interval); err != nil {
		t.Fatal(err)
	}
	resolveAgainstScratch(t, s, solver.DefaultEngine, &rec)
	steps := len(s.trail)
	if err := s.Pin(p.Event, p.Interval); err != nil {
		t.Fatal(err)
	}
	d := resolveAgainstScratch(t, s, solver.DefaultEngine, &rec)
	if steps == 0 || d.Counters.Replayed != steps || d.Counters.Pops != 0 || d.Counters.ScoreUpdates != 0 {
		t.Fatalf("re-pin replayed %d of %d steps with counters %+v", d.Counters.Replayed, steps, d.Counters)
	}
}

// TestResolveHugeK: nothing a resolve allocates is sized by k, which
// only bounds how far selection goes. A session whose k dwarfs its
// events schedules every event that fits, replays them on the next
// resolve, and keeps going after SetK raises k further.
func TestResolveHugeK(t *testing.T) {
	const huge = 1 << 40
	var rec picker
	s := replaySession(t, testInstance(16), huge, solver.DefaultEngine, &rec)
	resolveAgainstScratch(t, s, solver.DefaultEngine, &rec)
	steps := len(s.trail)
	d := resolveAgainstScratch(t, s, solver.DefaultEngine, &rec)
	if steps == 0 || d.Counters.Replayed != steps {
		t.Fatalf("replayed %d of %d steps", d.Counters.Replayed, steps)
	}
	if err := s.UpdateInterest(3, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := s.SetK(huge + 1); err != nil {
		t.Fatal(err)
	}
	resolveAgainstScratch(t, s, solver.DefaultEngine, &rec)
}
