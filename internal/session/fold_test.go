package session

import (
	"slices"
	"testing"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/solver"
)

// foldCounter is a Sparse engine that records every interval
// IntervalUtility is asked for. It promotes every other method, Reset
// and Patch included, so the session keeps it warm as it keeps the
// bare engine.
type foldCounter struct {
	choice.Engine
	folded *[]int
}

func (c foldCounter) IntervalUtility(t int) float64 {
	*c.folded = append(*c.folded, t)
	return c.Engine.IntervalUtility(t)
}

// byInterval lists the events applied at each interval, in the order
// the picks applied them.
func byInterval(picks []core.Assignment, nT int) [][]int {
	at := make([][]int, nT)
	for _, p := range picks {
		at[p.Interval] = append(at[p.Interval], p.Event)
	}
	return at
}

// TestResolveFoldsOnlyChangedIntervals: a resolve asks the engine for
// an interval's value only when the events applied there or their
// order changed since the commit, the interval gained competing
// events, or one of its events has a new row; every other interval
// keeps its committed value. The utility stays that of a session
// resolved from scratch, bit for bit (resolveAgainstScratch), and the
// session builds its engine once: every later resolve folds on the
// engine it patched and reset.
func TestResolveFoldsOnlyChangedIntervals(t *testing.T) {
	var folded []int
	builds := 0
	count := func(inst *core.Instance) choice.Engine {
		builds++
		return foldCounter{choice.NewSparse(inst), &folded}
	}
	var rec picker
	s := replaySession(t, testInstance(21), 6, count, &rec)
	nT := s.inst.NumIntervals
	all := make([]int, nT)
	for i := range all {
		all[i] = i
	}
	var prev [][]int
	// resolve resolves against a from-scratch session and returns the
	// intervals folded and the events now applied at each interval.
	resolve := func(what string) (got []int, at [][]int) {
		t.Helper()
		folded = folded[:0]
		if resolveAgainstScratch(t, s, solver.DefaultEngine, &rec) == nil {
			t.Fatalf("%s: resolve failed", what)
		}
		return slices.Clone(folded), byInterval(rec.picks, nT)
	}
	// expect requires the resolve to fold exactly the intervals given
	// plus those whose applied events changed.
	expect := func(what string, got []int, at [][]int, also ...int) {
		t.Helper()
		var want []int
		for ti := range at {
			if slices.Contains(also, ti) || !slices.Equal(at[ti], prev[ti]) {
				want = append(want, ti)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: folded %v, want %v (applied %v, committed %v)", what, got, want, at, prev)
		}
		prev = at
	}

	got, at := resolve("first resolve")
	if !slices.Equal(got, all) {
		t.Fatalf("first resolve folded %v, want every interval", got)
	}
	prev = at

	got, at = resolve("replay-only resolve")
	if len(got) != 0 || !slices.EqualFunc(at, prev, slices.Equal[[]int]) {
		t.Fatalf("a resolve with nothing to change folded %v", got)
	}

	// New competition at a scheduled interval folds it, whatever
	// moves.
	c := s.cur[0].Interval
	if _, err := s.AddCompeting(core.CompetingEvent{Interval: c}, map[int]float64{1: 0.5, 7: 0.25}); err != nil {
		t.Fatal(err)
	}
	got, at = resolve("add_competing")
	expect("add_competing", got, at, c)

	// A pinned event keeps its place while its row changes: its
	// interval holds the same events in the same order, and is folded
	// all the same.
	p := s.cur[len(s.cur)-1]
	if err := s.Pin(p.Event, p.Interval); err != nil {
		t.Fatal(err)
	}
	got, at = resolve("pin")
	expect("pin", got, at)
	if err := s.UpdateInterest(3, p.Event, 0.875); err != nil {
		t.Fatal(err)
	}
	got, at = resolve("update_interest of a pinned event")
	if !slices.Equal(at[p.Interval], prev[p.Interval]) {
		t.Fatalf("interval %d's events changed (%v, were %v): the case this checks did not occur",
			p.Interval, at[p.Interval], prev[p.Interval])
	}
	expect("update_interest of a pinned event", got, at, p.Interval)

	if err := s.Unpin(p.Event); err != nil {
		t.Fatal(err)
	}
	got, at = resolve("unpin")
	expect("unpin", got, at)

	// An installed commit was not selected here: the next resolve
	// folds every interval, even when it applies what the session
	// itself committed last.
	if err := s.InstallCommit(s.Committed()); err != nil {
		t.Fatal(err)
	}
	if got, _ = resolve("resolve after InstallCommit"); !slices.Equal(got, all) {
		t.Fatalf("the first resolve after InstallCommit folded %v, want every interval", got)
	}
	if builds != 1 {
		t.Fatalf("the session built %d engines over its resolves, want 1", builds)
	}
}
