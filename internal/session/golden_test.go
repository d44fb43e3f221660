package session

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/randx"
	"ses/internal/sestest"
	"ses/internal/solver"
)

// Regenerate the committed resolve logs with:
//
//	go test ./internal/session/ -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestGoldenResolveLog locks every Resolve's Delta — added, removed
// and moved assignments, the utility's exact bits, and the work
// counters — over one seeded mutation sequence that cycles through
// all nine mutation kinds, for the sparse and pruned engines under
// each objective. The equivalence tests compare the session against
// its own from-scratch resolve and against GRD; this log pins the
// absolute outcome, so a change to the shared selection loop that
// moves both sides in step still shows.
func TestGoldenResolveLog(t *testing.T) {
	engines := []struct {
		name string
		f    solver.EngineFactory
	}{
		{"sparse", solver.DefaultEngine},
		{"pruned", solver.PrunedEngineK(6)},
	}
	for _, eng := range engines {
		for _, obj := range choice.Objectives() {
			family, _, _ := strings.Cut(obj.Name(), ":")
			name := fmt.Sprintf("resolve_%s_%s.golden", eng.name, family)
			t.Run(name, func(t *testing.T) {
				checkGolden(t, name, goldenResolveLog(t, eng.f, obj))
			})
		}
	}
}

// goldenResolveLog replays the seeded mutation sequence on a fresh
// session and renders one line per mutation and per resolve.
func goldenResolveLog(t *testing.T, eng solver.EngineFactory, obj choice.Objective) string {
	t.Helper()
	inst := sestest.Random(sestest.Config{
		Users: 60, Events: 14, Intervals: 5, Competing: 4, Locations: 4, Seed: 2026,
	})
	s, err := New(inst, 6, Options{Workers: 1, Engine: eng, Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.NewSource(14)
	var b strings.Builder
	resolve := func() {
		d, err := s.Resolve(context.Background())
		if err != nil {
			// Only conflicting pins fail a resolve; the committed
			// schedule stays as it was.
			fmt.Fprintf(&b, "resolve: failed\n")
			return
		}
		fmt.Fprintf(&b, "resolve: +%v -%v moved %v utility %016x (%.9g) counters %+v\n",
			d.Added, d.Removed, d.Moved, math.Float64bits(d.Utility), d.Utility, d.Counters)
	}
	interest := func() map[int]float64 {
		mu := make(map[int]float64)
		for i := rng.IntRange(1, 6); i > 0; i-- {
			mu[rng.IntN(inst.NumUsers)] = math.Round(rng.Float64()*100) / 100
		}
		return mu
	}
	event := func() int { return rng.IntN(s.inst.NumEvents()) }
	interval := func() int { return rng.IntN(inst.NumIntervals) }

	resolve()
	const rounds = 5
	for r := 0; r < rounds; r++ {
		for _, kind := range rng.Perm(9) {
			var line string
			var err error
			switch kind {
			case 0:
				ev := core.Event{Location: rng.IntN(4), Required: float64(rng.IntRange(1, 3))}
				var id int
				id, err = s.AddEvent(ev, interest())
				line = fmt.Sprintf("add_event loc=%d req=%v -> %d", ev.Location, ev.Required, id)
			case 1:
				e := event()
				err = s.CancelEvent(e)
				line = fmt.Sprintf("cancel %d", e)
			case 2:
				u, e := rng.IntN(inst.NumUsers), event()
				mu := math.Round(rng.Float64()*100) / 100
				if rng.IntN(4) == 0 {
					mu = 0
				}
				err = s.UpdateInterest(u, e, mu)
				line = fmt.Sprintf("update_interest user=%d event=%d mu=%v", u, e, mu)
			case 3:
				ti := interval()
				var id int
				id, err = s.AddCompeting(core.CompetingEvent{Interval: ti}, interest())
				line = fmt.Sprintf("add_competing interval=%d -> %d", ti, id)
			case 4:
				e, ti := event(), interval()
				err = s.Pin(e, ti)
				line = fmt.Sprintf("pin %d@%d", e, ti)
			case 5:
				e := pinnedEvent(s, rng)
				err = s.Unpin(e)
				line = fmt.Sprintf("unpin %d", e)
			case 6:
				e, ti := event(), interval()
				err = s.Forbid(e, ti)
				line = fmt.Sprintf("forbid %d@%d", e, ti)
			case 7:
				e, ti := forbiddenPair(s, rng)
				err = s.Allow(e, ti)
				line = fmt.Sprintf("allow %d@%d", e, ti)
			case 8:
				k := rng.IntRange(3, 9)
				err = s.SetK(k)
				line = fmt.Sprintf("set_k %d", k)
			}
			if err != nil {
				line += " rejected"
			}
			fmt.Fprintln(&b, line)
			// Most mutations resolve at once; the rest batch with the
			// next one, so invalidation unions are covered too.
			if rng.IntN(3) > 0 {
				resolve()
			}
		}
	}
	resolve()
	return b.String()
}

// pinnedEvent picks a pinned event when there is one (lowest id
// first, then a random step), else any event (unpinning it is a
// no-op).
func pinnedEvent(s *Scheduler, rng *randx.Source) int {
	for e := 0; e < s.inst.NumEvents(); e++ {
		if _, ok := s.pins[e]; ok && rng.IntN(2) == 0 {
			return e
		}
	}
	return rng.IntN(s.inst.NumEvents())
}

// forbiddenPair picks a forbidden pair when there is one, else a
// random pair (allowing it is a no-op).
func forbiddenPair(s *Scheduler, rng *randx.Source) (int, int) {
	for e := 0; e < s.inst.NumEvents(); e++ {
		for ti := 0; ti < s.inst.NumIntervals; ti++ {
			if s.forbidden[e][ti] && rng.IntN(2) == 0 {
				return e, ti
			}
		}
	}
	return rng.IntN(s.inst.NumEvents()), rng.IntN(s.inst.NumIntervals)
}

// checkGolden compares got against testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("resolve log drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
