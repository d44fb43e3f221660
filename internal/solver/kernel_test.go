package solver

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"ses/internal/core"
	"ses/internal/randx"
	"ses/internal/sestest"
)

// kernelEngines are the engines the heap ≡ scan harness runs: the
// production engine and the Ref oracle.
var kernelEngines = []struct {
	name string
	f    EngineFactory
}{
	{"sparse", DefaultEngine},
	{"ref", refEngine},
}

// kernelRun is what one SelectGreedy run did: every applied
// assignment in order (pins first), the steps after the pins with
// their winning scores, the final utility and the work.
type kernelRun struct {
	applied []core.Assignment
	steps   []Step
	utility float64
	cnt     Counters
}

// kernelMode is how runKernel selects: in heap mode or scan mode, in
// heap mode through the flat heap it replaced (selectFlatHeap), and
// from a worklist filled in (interval, event) order instead of the
// canonical (event, interval) order.
type kernelMode struct {
	lazy, flat, byInterval bool
}

var (
	scanMode = kernelMode{}
	heapMode = kernelMode{lazy: true}
	flatMode = kernelMode{lazy: true, flat: true}
)

// runKernel selects up to k events on a fresh engine in one mode,
// from a worklist built the way the session builds its own: the
// scored cross product minus cancelled events, pinned events,
// replayed events and forbidden pairs.
func runKernel(inst *core.Instance, f EngineFactory, k int, pins []core.Assignment, replay []Step,
	cancelled []bool, forbidden map[core.Assignment]bool, mode kernelMode) (kernelRun, error) {
	var run kernelRun
	eng := Instrument(f(inst), "kernel", func(p Progress) {
		run.applied = append(run.applied, core.Assignment{Event: p.Event, Interval: p.Interval})
	})
	mat, err := scoreMatrix(context.Background(), eng, 1, &run.cnt)
	if err != nil {
		return run, err
	}
	pinned := make([]bool, inst.NumEvents())
	for _, p := range pins {
		pinned[p.Event] = true
	}
	for _, st := range replay {
		pinned[st.Event] = true
	}
	nE, nT := inst.NumEvents(), inst.NumIntervals
	var wl Worklist
	wl.Reset(nE * nT)
	add := func(e, t int) {
		if !cancelled[e] && !pinned[e] && !forbidden[core.Assignment{Event: e, Interval: t}] {
			wl.Add(e, t, mat[t*nE+e])
		}
	}
	for i := 0; i < nE*nT; i++ {
		if mode.byInterval {
			add(i%nE, i/nE)
		} else {
			add(i/nT, i%nT)
		}
	}
	var stop string
	if mode.flat {
		g := greedy{eng: eng, cnt: &run.cnt}
		if stop, err = g.start(context.Background(), pins, replay, true); err == nil && stop == "" {
			stop, err = selectFlatHeap(context.Background(), &g, &wl, k)
		}
		run.steps = g.steps
	} else {
		run.steps, stop, err = SelectGreedy(context.Background(), eng, &wl, k, pins, replay, mode.lazy, &run.cnt)
	}
	if err != nil {
		return run, err
	}
	if stop != "" {
		return run, fmt.Errorf("stopped: %s", stop)
	}
	run.utility = eng.Utility()
	return run, nil
}

// selectFlatHeap is heap mode as it ran before it grouped the list
// by event: one binary heap over the whole list, where a picked
// event's other entries stay in the heap and are popped one by one as
// invalid. It is the reference selectHeap must match.
func selectFlatHeap(ctx context.Context, g *greedy, wl *Worklist, k int) (string, error) {
	eng, versions, cnt := g.eng, g.versions, g.cnt
	sched := eng.Schedule()
	heapify(wl.list)
	pop := func() assignment {
		l := wl.list
		top, last := l[0], len(l)-1
		wl.list = l[:last]
		if last > 0 {
			l[0] = l[last]
			siftDown(wl.list, 0)
		}
		return top
	}
	for sched.Size() < k && len(wl.list) > 0 {
		if stop, err := ctxCheck(ctx, true); err != nil || stop != "" {
			return stop, err
		}
		cnt.Pops++
		top := &wl.list[0]
		switch {
		case !sched.IsValid(top.event, top.interval):
			pop()
		case top.version != versions[top.interval]:
			rescore(eng, top, cnt)
			top.version = versions[top.interval]
			siftDown(wl.list, 0)
		default:
			if err := g.take(pop()); err != nil {
				return "", err
			}
		}
	}
	return "", nil
}

// checkHeapMatchesScan draws a random instance, pins, cancellations
// and forbidden pairs from seed and requires SelectGreedy's heap mode
// to apply exactly the scan mode's assignments, in the same order,
// with the same winning scores, to the same utility bits. A heap run
// that replays a prefix of those steps must apply them too. Heap mode
// must also do exactly the flat heap's rescores (selectFlatHeap) with
// no more pops, from a worklist in canonical order and from one in
// (interval, event) order, whose runs are split. It returns the scan,
// heap and flat heap runs' counters.
func checkHeapMatchesScan(t *testing.T, seed uint64, k int, f EngineFactory) (scan, heap, flat Counters) {
	t.Helper()
	inst := sestest.Random(sestest.Config{
		Users: 40, Events: 12, Intervals: 4, Competing: 5, Locations: 4, Seed: seed,
	})
	rng := randx.NewSource(seed ^ 0x9e3779b97f4a7c15)
	nE, nT := inst.NumEvents(), inst.NumIntervals
	cancelled := make([]bool, nE)
	forbidden := make(map[core.Assignment]bool)
	for i := rng.IntN(3); i > 0; i-- {
		cancelled[rng.IntN(nE)] = true
	}
	for i := rng.IntN(6); i > 0; i-- {
		forbidden[core.Assignment{Event: rng.IntN(nE), Interval: rng.IntN(nT)}] = true
	}
	// Pins must be jointly feasible: keep only those a schedule holding
	// the earlier ones accepts.
	var pins []core.Assignment
	feasible := core.NewSchedule(inst)
	for i := rng.IntN(3); i > 0; i-- {
		p := core.Assignment{Event: rng.IntN(nE), Interval: rng.IntN(nT)}
		if !cancelled[p.Event] && !forbidden[p] && feasible.Assign(p.Event, p.Interval) == nil {
			pins = append(pins, p)
		}
	}
	slices.SortFunc(pins, func(a, b core.Assignment) int { return cmp.Compare(a.Event, b.Event) })

	s, err := runKernel(inst, f, k, pins, nil, cancelled, forbidden, scanMode)
	if err != nil {
		t.Fatalf("seed %d k %d: scan: %v", seed, k, err)
	}
	h, err := runKernel(inst, f, k, pins, nil, cancelled, forbidden, heapMode)
	if err != nil {
		t.Fatalf("seed %d k %d: heap: %v", seed, k, err)
	}
	sameRuns(t, fmt.Sprintf("seed %d k %d: scan vs heap", seed, k), s, h)
	if h.cnt.ListScans != 0 {
		t.Fatalf("seed %d k %d: heap mode scanned %d list entries", seed, k, h.cnt.ListScans)
	}
	fl, err := runKernel(inst, f, k, pins, nil, cancelled, forbidden, flatMode)
	if err != nil {
		t.Fatalf("seed %d k %d: flat heap: %v", seed, k, err)
	}
	for _, m := range []kernelMode{heapMode, {lazy: true, byInterval: true}} {
		g := h
		if m.byInterval {
			if g, err = runKernel(inst, f, k, pins, nil, cancelled, forbidden, m); err != nil {
				t.Fatalf("seed %d k %d: heap over split runs: %v", seed, k, err)
			}
		}
		what := fmt.Sprintf("seed %d k %d: flat heap vs heap (split runs %v)", seed, k, m.byInterval)
		sameRuns(t, what, fl, g)
		if g.cnt.ScoreUpdates != fl.cnt.ScoreUpdates || g.cnt.Pops > fl.cnt.Pops {
			t.Fatalf("%s: counters %+v and %+v", what, fl.cnt, g.cnt)
		}
	}
	n := rng.IntN(len(h.steps) + 1)
	r, err := runKernel(inst, f, k, pins, h.steps[:n], cancelled, forbidden, heapMode)
	if err != nil {
		t.Fatalf("seed %d k %d: heap replaying %d steps: %v", seed, k, n, err)
	}
	sameRuns(t, fmt.Sprintf("seed %d k %d: heap vs heap replaying %d steps", seed, k, n), h, r)
	if r.cnt.Replayed != n {
		t.Fatalf("seed %d k %d: replayed %d of %d steps", seed, k, r.cnt.Replayed, n)
	}
	return s.cnt, h.cnt, fl.cnt
}

// sameRuns requires two kernel runs to apply the same assignments in
// the same order, report the same steps with the same score bits and
// reach the same utility bits.
func sameRuns(t *testing.T, what string, a, b kernelRun) {
	t.Helper()
	if !slices.Equal(a.applied, b.applied) {
		t.Fatalf("%s: applied %v and %v", what, a.applied, b.applied)
	}
	if len(a.steps) != len(b.steps) {
		t.Fatalf("%s: steps %v and %v", what, a.steps, b.steps)
	}
	for i := range a.steps {
		x, y := a.steps[i], b.steps[i]
		if x.Event != y.Event || x.Interval != y.Interval || math.Float64bits(x.Score) != math.Float64bits(y.Score) {
			t.Fatalf("%s: step %d is %+v and %+v", what, i, x, y)
		}
	}
	if math.Float64bits(a.utility) != math.Float64bits(b.utility) {
		t.Fatalf("%s: utility %v and %v", what, a.utility, b.utility)
	}
}

// TestHeapModeMatchesScanMode: under Omega, SelectGreedy's CELF heap
// mode selects exactly the paper's scan, step for step, on every
// engine — with pins applied first and a worklist that lacks
// cancelled events and forbidden pairs, as the session builds it —
// and exactly the flat heap it replaced, with fewer pops in all.
func TestHeapModeMatchesScanMode(t *testing.T) {
	for _, eng := range kernelEngines {
		t.Run(eng.name, func(t *testing.T) {
			var scanWork, heapWork, heapPops, flatPops int
			for seed := uint64(0); seed < 12; seed++ {
				for _, k := range []int{1, 3, 6, 10} {
					s, h, fl := checkHeapMatchesScan(t, seed, k, eng.f)
					scanWork += s.ScoreUpdates
					heapWork += h.ScoreUpdates
					heapPops += h.Pops
					flatPops += fl.Pops
				}
			}
			if heapWork >= scanWork {
				t.Errorf("heap mode rescored %d times, scan mode %d", heapWork, scanWork)
			}
			if heapPops >= flatPops {
				t.Errorf("heap mode popped %d times, the flat heap %d", heapPops, flatPops)
			}
		})
	}
}

// FuzzHeapMatchesScan widens TestHeapModeMatchesScanMode to arbitrary
// seeds, schedule sizes and engines.
func FuzzHeapMatchesScan(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0))
	f.Add(uint64(7), uint8(9), uint8(1))
	f.Add(uint64(42), uint8(6), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, k, engine uint8) {
		checkHeapMatchesScan(t, seed, int(k%16), kernelEngines[int(engine)%len(kernelEngines)].f)
	})
}
