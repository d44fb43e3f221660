package solver

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"ses/internal/choice"
)

// This file is the shared worklist component: every solver that starts
// from the scored E×T assignment cross product (Algorithm 1, lines
// 2–4) builds it here, and the initial scoring — the dominant cost of
// the paper's Fig. 1b/1d time series — is fanned out across a worker
// pool. Determinism is preserved by construction: each worker scores
// whole intervals against its own Fork of the engine (all forks see
// the same empty schedule, so every Score value is bit-identical to
// the serial run), results land at fixed offsets in a preallocated
// matrix, and the assignment list is assembled from the matrix in the
// canonical (event, interval) order afterwards.

// assignment is a scored (event, interval) pair in a solver worklist.
// version is, in SelectGreedy's heap mode, the interval's version the
// score was computed at; it sits in the struct's padding, so an entry
// stays 32 bytes.
type assignment struct {
	event    int
	interval int
	score    float64
	version  int32
}

// forEachIndexState runs fn(state, i) for every i in [0, n), fanning
// out across up to `workers` goroutines, each with its own state from
// newState. fn must be safe to call concurrently for distinct i with
// distinct states. Iteration order is unspecified; callers that need
// determinism must write results to per-index slots. A done ctx stops
// workers from claiming further indices; the caller decides what a
// partially-processed range means (every caller here treats it as
// ctx.Err() and discards the partial results).
func forEachIndexState[S any](ctx context.Context, n, workers int, newState func() S, fn func(s S, i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := newState()
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			fn(s, i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newState()
			for ctx == nil || ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(s, i)
			}
		}()
	}
	wg.Wait()
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// ScoreIntervals computes the initial (current-engine-state) score of
// every event at each listed interval into mat[t*nE+e], fanning out
// across up to `workers` goroutines. Every worker (including the
// serial path) scores against its own Fork of the engine, so no
// engine scratch state is ever shared and the values are identical
// for any worker count. counters.InitialScores advances by |E| per
// interval actually scored — on a ctx abort it reflects the completed
// prefix, not the requested total. It is the scoring kernel of the
// worklist builder and of the session layer's incremental score-cache
// patching; a done ctx aborts the fan-out and returns ctx.Err() with
// mat only partially written.
func ScoreIntervals(ctx context.Context, eng choice.Engine, intervals []int, workers int, mat []float64, counters *Counters) error {
	nE := eng.Instance().NumEvents()
	events := make([]int, nE)
	for i := range events {
		events[i] = i
	}
	var completed atomic.Int64
	err := forEachIndexState(ctx, len(intervals), workers,
		func() choice.Engine { return eng.Fork() },
		func(own choice.Engine, i int) {
			t := intervals[i]
			own.ScoreBatch(events, t, mat[t*nE:(t+1)*nE])
			completed.Add(1)
		})
	counters.InitialScores += nE * int(completed.Load())
	return err
}

// scoreMatrix computes the initial score of every (event, interval)
// pair, parallelized over intervals; the result is indexed [t*|E|+e].
func scoreMatrix(ctx context.Context, eng choice.Engine, workers int, counters *Counters) ([]float64, error) {
	inst := eng.Instance()
	nE, nT := inst.NumEvents(), inst.NumIntervals
	mat := make([]float64, nE*nT)
	intervals := make([]int, nT)
	for t := range intervals {
		intervals[t] = t
	}
	if err := ScoreIntervals(ctx, eng, intervals, workers, mat, counters); err != nil {
		return nil, err
	}
	return mat, nil
}

// Worklist is the scored assignment list shared by the constructive
// solvers (GRD in either selection mode, TOP, TOPFill) and consumed
// by SelectGreedy. The session layer fills one itself, with Reset and
// Add, to select from its cached scores.
type Worklist struct {
	list []assignment
	// runs and heap are heap mode's index over list (groupRuns), kept
	// across selections so a refilled list allocates nothing: the live
	// part of each run of one event's entries, and a max-heap of run
	// indices ordered by each run's top entry.
	runs []run
	heap []int
}

// run is the live part list[lo:hi] of one run: a max-heap under
// better, its top at lo.
type run struct{ lo, hi int }

// Reset empties w for refilling with up to n entries. The storage is
// kept across calls and grows with 25% headroom, so a caller whose
// instance widens one event at a time does not reallocate on every
// rebuild.
func (w *Worklist) Reset(n int) {
	if cap(w.list) < n {
		w.list = make([]assignment, 0, n+n/4)
	}
	w.list = w.list[:0]
}

// Add appends assignment (event, t) with its initial score. Callers
// add in (event, interval) order, which fixes tie-breaking and gives
// heap mode one run per event.
func (w *Worklist) Add(event, t int, score float64) {
	w.list = append(w.list, assignment{event: event, interval: t, score: score})
}

// newWorklist scores the full cross product (in parallel when workers
// > 1) and generates the list in (event, interval) order, which fixes
// tie-breaking deterministically.
func newWorklist(ctx context.Context, eng choice.Engine, workers int, counters *Counters) (*Worklist, error) {
	inst := eng.Instance()
	nE, nT := inst.NumEvents(), inst.NumIntervals
	mat, err := scoreMatrix(ctx, eng, workers, counters)
	if err != nil {
		return nil, err
	}
	wl := &Worklist{list: make([]assignment, 0, nE*nT)}
	for e := 0; e < nE; e++ {
		for t := 0; t < nT; t++ {
			wl.Add(e, t, mat[t*nE+e])
		}
	}
	return wl, nil
}

// sortByScore orders by score descending with (event, interval) as
// deterministic tie-breakers.
func (w *Worklist) sortByScore() { sortAssignments(w.list) }

// truncate keeps the first n entries.
func (w *Worklist) truncate(n int) {
	if len(w.list) > n {
		w.list = w.list[:n]
	}
}

// popTop removes and returns the maximum-score assignment with a
// linear scan — exactly the paper's list-based popTopAssgn — breaking
// ties toward the earliest (event, interval) so runs are reproducible.
func (w *Worklist) popTop(counters *Counters) assignment {
	l := w.list
	counters.Pops++
	best := 0
	for i := 1; i < len(l); i++ {
		counters.ListScans++
		if better(l[i], l[best]) {
			best = i
		}
	}
	top := l[best]
	l[best] = l[len(l)-1]
	w.list = l[:len(l)-1]
	return top
}

// groupRuns readies the list for heap mode: it splits the list into
// runs, the maximal stretches of entries of one event, orders each
// run as a max-heap under better in place, and orders the run heap by
// each run's top. A list filled in (event, interval) order has one run
// per event; any other order only makes more, shorter runs.
func (w *Worklist) groupRuns() {
	l := w.list
	w.runs, w.heap = w.runs[:0], w.heap[:0]
	for lo := 0; lo < len(l); {
		hi := lo + 1
		for hi < len(l) && l[hi].event == l[lo].event {
			hi++
		}
		heapify(l[lo:hi])
		w.heap = append(w.heap, len(w.runs))
		w.runs = append(w.runs, run{lo: lo, hi: hi})
		lo = hi
	}
	for i := len(w.heap)/2 - 1; i >= 0; i-- {
		w.siftRun(i)
	}
}

// dropRun removes the top run from the run heap.
func (w *Worklist) dropRun() {
	last := len(w.heap) - 1
	w.heap[0] = w.heap[last]
	w.heap = w.heap[:last]
	if last > 0 {
		w.siftRun(0)
	}
}

// siftRun sifts run heap entry i toward the leaves until neither
// child's top is better than its own.
func (w *Worklist) siftRun(i int) {
	h, l, runs := w.heap, w.list, w.runs
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && better(l[runs[h[r]].lo], l[runs[h[c]].lo]) {
			c = r
		}
		if !better(l[runs[h[c]].lo], l[runs[x].lo]) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// heapify orders h as a binary max-heap under better, in place.
func heapify(h []assignment) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// siftDown sifts entry i of heap h toward the leaves until neither
// child is better.
func siftDown(h []assignment, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && better(h[r], h[c]) {
			c = r
		}
		if !better(h[c], x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// better orders assignments by score with deterministic tie-breaking.
func better(a, b assignment) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.event != b.event {
		return a.event < b.event
	}
	return a.interval < b.interval
}

// sortAssignments orders by score descending with (event, interval)
// as deterministic tie-breakers.
func sortAssignments(list []assignment) {
	sort.Slice(list, func(i, j int) bool { return better(list[i], list[j]) })
}
