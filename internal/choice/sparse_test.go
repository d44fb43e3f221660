package choice

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"ses/internal/core"
	"ses/internal/interest"
	"ses/internal/randx"
	"ses/internal/sestest"
)

// aggregateIntervalMap is the map-and-sort summation aggregateInterval
// replaced, kept as the reference its k-way merge must match bit for
// bit: per user, the values of the listed rows added in list order,
// starting from 0.
func aggregateIntervalMap(inst *core.Instance, cis []int) massVector {
	if len(cis) == 0 {
		return massVector{}
	}
	m := make(map[int32]float64)
	for _, ci := range cis {
		row := inst.CompInterest.Row(ci)
		for i, id := range row.IDs {
			m[id] += row.Vals[i]
		}
	}
	mv := massVector{
		ids:  make([]int32, 0, len(m)),
		vals: make([]float64, 0, len(m)),
	}
	for id := range m {
		mv.ids = append(mv.ids, id)
	}
	sort.Slice(mv.ids, func(i, j int) bool { return mv.ids[i] < mv.ids[j] })
	for _, id := range mv.ids {
		mv.vals = append(mv.vals, m[id])
	}
	return mv
}

// sameMass fails the test unless got holds want's ids and
// bit-identical values, with no capacity beyond its length.
func sameMass(t *testing.T, what string, got, want massVector) {
	t.Helper()
	if len(got.ids) != len(want.ids) || len(got.vals) != len(want.vals) {
		t.Fatalf("%s: %d ids/%d vals, reference %d/%d", what, len(got.ids), len(got.vals), len(want.ids), len(want.vals))
	}
	for i := range want.ids {
		if got.ids[i] != want.ids[i] || math.Float64bits(got.vals[i]) != math.Float64bits(want.vals[i]) {
			t.Fatalf("%s: entry %d = (%d, %v), reference (%d, %v)", what, i, got.ids[i], got.vals[i], want.ids[i], want.vals[i])
		}
	}
	if cap(got.ids) != len(got.ids) || cap(got.vals) != len(got.vals) {
		t.Fatalf("%s: capacity %d/%d for %d distinct users", what, cap(got.ids), cap(got.vals), len(got.ids))
	}
}

// randomCompeting builds an instance whose competing rows overlap
// heavily (few users, many rows per interval) and include empty rows.
func randomCompeting(seed uint64) *core.Instance {
	src := randx.Derive(seed, "competing-rows")
	users := 1 + src.IntN(40)
	nT := 1 + src.IntN(4)
	nC := src.IntN(24)
	inst := sestest.Random(sestest.Config{Users: users, Intervals: nT, Events: 3, Seed: seed})
	inst.Competing = make([]core.CompetingEvent, nC)
	inst.CompInterest = interest.NewMatrix(users, nC)
	for c := 0; c < nC; c++ {
		inst.Competing[c] = core.CompetingEvent{Interval: src.IntN(nT)}
		density := src.Float64()
		if c%5 == 0 {
			density = 0 // an empty row
		}
		var ids []int32
		var vals []float64
		for u := 0; u < users; u++ {
			if src.Bool(density) {
				ids = append(ids, int32(u))
				vals = append(vals, src.Range(0.001, 1))
			}
		}
		row, err := interest.NewSparseVector(ids, vals)
		if err != nil {
			panic(err)
		}
		inst.CompInterest.SetRow(c, row)
	}
	if err := inst.Validate(); err != nil {
		panic(err)
	}
	return inst
}

func TestAggregateIntervalMatchesMapSum(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		inst := randomCompeting(seed)
		eng := NewSparse(inst)
		for ti := 0; ti < inst.NumIntervals; ti++ {
			cis := inst.CompetingAt(ti)
			want := aggregateIntervalMap(inst, cis)
			sameMass(t, "built", eng.comp[ti], want)
			// Order matters for the sums: any permutation of the list
			// must match the reference summed in that same order.
			rev := append([]int(nil), cis...)
			sort.Sort(sort.Reverse(sort.IntSlice(rev)))
			var m massMerger
			sameMass(t, "reversed", m.aggregateInterval(inst, rev), aggregateIntervalMap(inst, rev))
		}

		// A competing event added after construction (the session's
		// AddCompeting) is absorbed by Patch, which must produce what a
		// fresh engine builds.
		src := randx.Derive(seed, "added")
		ti := src.IntN(inst.NumIntervals)
		var ids []int32
		var vals []float64
		for u := 0; u < inst.NumUsers; u++ {
			if src.Bool(0.5) {
				ids = append(ids, int32(u))
				vals = append(vals, src.Range(0.001, 1))
			}
		}
		row, err := interest.NewSparseVector(ids, vals)
		if err != nil {
			t.Fatal(err)
		}
		inst.Competing = append(inst.Competing, core.CompetingEvent{Interval: ti})
		inst.CompInterest.ByEvent = append(inst.CompInterest.ByEvent, row)
		eng.Patch(nil, map[int]bool{ti: true})
		fresh := NewSparse(inst)
		for tj := 0; tj < inst.NumIntervals; tj++ {
			sameMass(t, "patched", eng.comp[tj], fresh.comp[tj])
			sameMass(t, "patched vs map", eng.comp[tj], aggregateIntervalMap(inst, inst.CompetingAt(tj)))
		}
	}
}

func TestSeekMatchesSortSearch(t *testing.T) {
	src := randx.Derive(7, "seek")
	for trial := 0; trial < 2000; trial++ {
		n := src.IntN(64)
		var v massVector
		id := int32(src.IntN(5)) - 2
		for i := 0; i < n; i++ {
			id += 1 + int32(src.IntN(4))
			v.ids = append(v.ids, id)
			v.vals = append(v.vals, float64(id))
		}
		for probe := 0; probe < 20; probe++ {
			lo := src.IntN(n + 1)
			target := int32(src.IntN(int(id)+8)) - 4
			want := lo + sort.Search(n-lo, func(i int) bool { return v.ids[lo+i] >= target })
			if got := v.seek(lo, target); got != want {
				t.Fatalf("seek(%d, %d) over %v = %d, sort.Search %d", lo, target, v.ids, got, want)
			}
			i := sort.Search(n, func(i int) bool { return v.ids[i] >= target })
			wantAt := 0.0
			if i < n && v.ids[i] == target {
				wantAt = v.vals[i]
			}
			if got := v.at(target); got != wantAt {
				t.Fatalf("at(%d) over %v = %v, want %v", target, v.ids, got, wantAt)
			}
		}
	}
}

func TestSparseScoreBatchAllocatesNothing(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 3, Competing: 5})
	events := make([]int, inst.NumEvents())
	for i := range events {
		events[i] = i
	}
	eng := NewSparse(inst)
	if !eng.viewOK || eng.sigmaKeys == nil {
		t.Fatal("the instance keeps neither the dense view nor σ keys")
	}
	greedyFill(eng, 3)
	// Score allocates the view on its first call that takes it, and
	// nothing after that, whichever path a call takes.
	_ = eng.Score(events[len(events)-1], 0)
	if eng.denseC == nil {
		t.Fatal("Score did not take the dense view")
	}
	if n := testing.AllocsPerRun(20, func() {
		for ti := 0; ti < inst.NumIntervals; ti++ {
			for _, ev := range events {
				_ = eng.Score(ev, ti)
			}
		}
	}); n != 0 {
		t.Fatalf("Score allocated %v times per run after the first call", n)
	}
	out := make([]float64, len(events))
	if n := testing.AllocsPerRun(20, func() {
		for ti := 0; ti < inst.NumIntervals; ti++ {
			eng.ScoreBatch(events, ti, out)
		}
	}); n != 0 {
		t.Fatalf("ScoreBatch allocated %v times per run", n)
	}

	// A fork starts without a view and scores through one of its own,
	// allocated on its own first call, so parallel forks never share
	// one. The σ keys never change, so forks share them.
	f := eng.Fork().(*Sparse)
	if f.denseC != nil || f.denseP != nil || f.viewT != -1 {
		t.Fatal("fork shares the dense view")
	}
	if &f.sigmaKeys[0] != &eng.sigmaKeys[0] {
		t.Fatal("fork copies the σ keys")
	}
	f.ScoreBatch(events, 1, out)
	if &f.denseC[0] == &eng.denseC[0] || &f.denseP[0] == &eng.denseP[0] {
		t.Fatal("fork scores through the original's dense view")
	}
}

// TestSparseViewFollowsEntries: the view and σ keys exist exactly
// while the candidate rows hold at least NumUsers entries, and Patch
// re-decides when rows are added or replaced.
func TestSparseViewFollowsEntries(t *testing.T) {
	inst := sestest.Random(sestest.Config{Users: 300, Events: 4, Density: 0.02, Seed: 5})
	eng := NewSparse(inst)
	if eng.viewOK || eng.sigmaKeys != nil {
		t.Fatalf("%d entries for %d users keep the view", inst.CandInterest.NNZ(), inst.NumUsers)
	}
	if _ = eng.Score(0, 0); eng.denseC != nil {
		t.Fatal("Score allocated a view the instance is too sparse for")
	}
	ids := make([]int32, inst.NumUsers)
	vals := make([]float64, inst.NumUsers)
	for u := range ids {
		ids[u], vals[u] = int32(u), 0.5
	}
	everyone, err := interest.NewSparseVector(ids, vals)
	if err != nil {
		t.Fatal(err)
	}
	inst.Events = append(inst.Events, core.Event{Location: 0, Required: 1})
	inst.CandInterest.ByEvent = append(inst.CandInterest.ByEvent, everyone)
	eng.Patch(map[int]bool{4: true}, nil)
	if !eng.viewOK || len(eng.sigmaKeys) != inst.NumUsers {
		t.Fatal("an added row over every user did not bring the view and σ keys")
	}
	if _ = eng.Score(4, 0); eng.viewT != 0 {
		t.Fatal("the added row did not score through the view")
	}
	inst.CandInterest.SetRow(4, interest.SparseVector{})
	eng.Patch(map[int]bool{4: true}, nil)
	if eng.viewOK || eng.sigmaKeys != nil || eng.denseC != nil || eng.viewT != -1 {
		t.Fatal("emptying the row kept the view or the σ keys")
	}
}

// mergeJoinTwin returns an engine over inst that never takes the dense
// view and reads σ through the activity model: the paths the view and
// the σ keys must match bit for bit. Patch may re-enable both, so
// viewPair.patch pins the twin again after each one.
func mergeJoinTwin(inst *core.Instance) *Sparse {
	e := NewSparse(inst)
	e.viewOK, e.sigmaKeys = false, nil
	return e
}

// viewPair drives an engine that scores through the view and σ keys
// and its merge-join twin through the same operations, comparing
// every reading with math.Float64bits.
type viewPair struct {
	t          *testing.T
	view, twin *Sparse
}

func newViewPair(t *testing.T, inst *core.Instance) *viewPair {
	t.Helper()
	p := &viewPair{t: t, view: NewSparse(inst), twin: mergeJoinTwin(inst)}
	if !p.view.viewOK || p.view.sigmaKeys == nil {
		t.Fatal("the instance keeps neither the dense view nor σ keys")
	}
	return p
}

func (p *viewPair) same(what string, got, want float64) {
	p.t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		p.t.Fatalf("%s: view %v (%#x), merge-join %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// do runs op on both engines; they must fail alike.
func (p *viewPair) do(what string, op func(e *Sparse) error) {
	p.t.Helper()
	if ev, et := op(p.view), op(p.twin); (ev == nil) != (et == nil) {
		p.t.Fatalf("%s: view err %v, merge-join err %v", what, ev, et)
	}
}

// patch applies Patch to both and keeps the twin off the view.
func (p *viewPair) patch(events, intervals map[int]bool) {
	p.view.Patch(events, intervals)
	p.twin.Patch(events, intervals)
	p.twin.viewOK, p.twin.sigmaKeys = false, nil
}

// score compares Score(e, ti); when wantView is set, the view must
// hold ti afterwards, so the reading came through it.
func (p *viewPair) score(what string, e, ti int, wantView bool) {
	p.t.Helper()
	p.same(fmt.Sprintf("%s: Score(%d,%d)", what, e, ti), p.view.Score(e, ti), p.twin.Score(e, ti))
	if wantView && p.view.viewT != ti {
		p.t.Fatalf("%s: Score(%d,%d) left the view at %d", what, e, ti, p.view.viewT)
	}
}

// all compares every reading: Score and ScoreBatch of every unassigned
// event at every interval, IntervalUtility, EventAttendance, Utility
// and ValueOf(Omega).
func (p *viewPair) all(what string) {
	p.t.Helper()
	inst := p.view.inst
	var free []int
	for e := 0; e < inst.NumEvents(); e++ {
		if !p.view.sched.Contains(e) {
			free = append(free, e)
		}
		p.same(fmt.Sprintf("%s: EventAttendance(%d)", what, e), p.view.EventAttendance(e), p.twin.EventAttendance(e))
	}
	got, want := make([]float64, len(free)), make([]float64, len(free))
	for ti := 0; ti < inst.NumIntervals; ti++ {
		for _, e := range free {
			p.score(what, e, ti, false)
		}
		p.view.ScoreBatch(free, ti, got)
		p.twin.ScoreBatch(free, ti, want)
		for i, e := range free {
			p.same(fmt.Sprintf("%s: ScoreBatch(%d,%d)", what, e, ti), got[i], want[i])
		}
		p.same(fmt.Sprintf("%s: IntervalUtility(%d)", what, ti), p.view.IntervalUtility(ti), p.twin.IntervalUtility(ti))
	}
	p.same(what+": Utility", p.view.Utility(), p.twin.Utility())
	p.same(what+": ValueOf(Omega)", p.view.ValueOf(Omega), p.twin.ValueOf(Omega))
}

// randomRow draws a sorted interest row over users.
func randomRow(src *randx.Source, users int, density float64) interest.SparseVector {
	var ids []int32
	var vals []float64
	for u := 0; u < users; u++ {
		if src.Bool(density) {
			ids = append(ids, int32(u))
			vals = append(vals, src.Range(0.05, 1))
		}
	}
	row, err := interest.NewSparseVector(ids, vals)
	if err != nil {
		panic(err)
	}
	return row
}

// viewInstance is dense enough that every score takes the view:
// rows of about 20 entries against intervals of at most 80.
func viewInstance() *core.Instance {
	return sestest.Random(sestest.Config{
		Users: 40, Events: 12, Intervals: 3, Competing: 6, Density: 0.5,
		Locations: 12, Resources: 1e9, Seed: 11,
	})
}

// TestSparseViewMatchesMergeJoin scores through a view that holds the
// interval a mutation changes, right after the mutation: a view kept
// across Apply, Unapply, Patch or Reset reads stale mass there.
func TestSparseViewMatchesMergeJoin(t *testing.T) {
	inst := viewInstance()
	p := newViewPair(t, inst)
	src := randx.Derive(11, "view-rows")
	for e, ti := range []int{0, 1, 2} {
		p.do("fill", func(x *Sparse) error { return x.Apply(e, ti) })
	}
	p.all("filled")

	p.score("before Apply", 3, 0, true)
	p.do("Apply at the view", func(x *Sparse) error { return x.Apply(4, 0) })
	p.score("after Apply", 3, 0, true)
	p.do("Unapply at the view", func(x *Sparse) error { return x.Unapply(4) })
	p.score("after Unapply", 3, 0, true)
	p.score("before emptying", 3, 1, true)
	p.do("Unapply emptying the view", func(x *Sparse) error { return x.Unapply(1) })
	p.score("after emptying", 3, 1, true)
	p.all("unapplied")

	// A competing event added at the viewed interval.
	p.score("before AddCompeting", 3, 2, true)
	inst.Competing = append(inst.Competing, core.CompetingEvent{Interval: 2})
	inst.CompInterest.ByEvent = append(inst.CompInterest.ByEvent, randomRow(src, inst.NumUsers, 0.8))
	p.patch(nil, map[int]bool{2: true})
	p.score("after AddCompeting", 3, 2, true)
	p.all("competing added")

	// An event added, then an unscheduled event given a new row.
	p.score("before AddEvent", 3, 0, true)
	inst.Events = append(inst.Events, core.Event{Location: 0, Required: 1})
	inst.CandInterest.ByEvent = append(inst.CandInterest.ByEvent, randomRow(src, inst.NumUsers, 0.5))
	added := inst.NumEvents() - 1
	p.patch(map[int]bool{added: true}, nil)
	p.score("after AddEvent", added, 0, true)
	p.score("after AddEvent", 3, 0, true)
	inst.CandInterest.SetRow(5, randomRow(src, inst.NumUsers, 0.6))
	p.patch(map[int]bool{5: true}, nil)
	p.score("after a new row", 5, 0, true)
	p.all("events patched")

	p.score("before Reset", 3, 0, true)
	p.view.Reset()
	p.twin.Reset()
	p.score("after Reset", 3, 0, true)
	for e, ti := range []int{6, 7, 8, 9} {
		p.do("refill", func(x *Sparse) error { return x.Apply(e, ti%3) })
	}
	p.all("refilled")

	// A fork starts without a view and shares the σ keys.
	view, twin := p.view, p.twin
	p.view, p.twin = view.Fork().(*Sparse), twin.Fork().(*Sparse)
	if p.view.viewT != -1 || p.view.denseC != nil || &p.view.sigmaKeys[0] != &view.sigmaKeys[0] {
		t.Fatal("a fork inherits the view or copies the σ keys")
	}
	p.all("forked")
	p.do("Apply on the fork", func(x *Sparse) error { return x.Apply(10, 1) })
	p.all("fork applied")
	p.view, p.twin = view, twin
	p.all("original after the fork")

	// Fairness scores through scoreNonlinear and σ keys; mass changed
	// meanwhile must not reach Omega's view once it is back.
	fair, err := NewFairness(0.5)
	if err != nil {
		t.Fatal(err)
	}
	p.score("before SetObjective", 3, 1, true)
	p.view.SetObjective(fair)
	p.twin.SetObjective(fair)
	p.all("fairness")
	p.do("Apply under fairness", func(x *Sparse) error { return x.Apply(11, 1) })
	p.all("fairness applied")
	p.view.SetObjective(nil)
	p.twin.SetObjective(nil)
	p.score("back to Omega", 3, 1, true)
	p.all("back to Omega")
}

// FuzzSparseView drives the view pair through random operation
// sequences, instance mutations and Patch included: every reading
// through the view and σ keys must equal the merge-join's bit for bit.
func FuzzSparseView(f *testing.F) {
	f.Add([]byte{2, 3, 0, 0, 0, 0, 2, 3, 0, 8, 0, 0, 2, 3, 0, 4, 0, 0})
	f.Add([]byte{0, 1, 1, 2, 2, 1, 1, 1, 0, 2, 2, 1, 9, 5, 1, 2, 12, 1, 6, 0, 0, 2, 2, 1})
	f.Add([]byte{0, 0, 2, 3, 4, 2, 10, 4, 0, 2, 4, 2, 7, 0, 0, 5, 0, 0, 3, 0, 2, 4, 1, 1})
	f.Add([]byte{0, 0, 2, 2, 3, 2, 7, 6, 2, 2, 3, 2, 0, 1, 0, 2, 3, 0, 5, 0, 0, 2, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxOps = 60
		if len(ops) > 3*maxOps {
			ops = ops[:3*maxOps]
		}
		inst := viewInstance()
		p := newViewPair(t, inst)
		objs := Objectives()
		obj := 0
		src := randx.Derive(uint64(len(ops)), "fuzz-view-rows")
		for i := 0; i+2 < len(ops); i += 3 {
			code, a, b := ops[i]%11, int(ops[i+1]), int(ops[i+2])
			nE := inst.NumEvents()
			e, ti := a%nE, b%inst.NumIntervals
			what := fmt.Sprintf("op %d (%d,%d,%d)", i/3, code, a, b)
			switch code {
			case 0:
				p.do(what, func(x *Sparse) error { return x.Apply(e, ti) })
			case 1:
				p.do(what, func(x *Sparse) error { return x.Unapply(e) })
			case 2:
				if !p.view.sched.Contains(e) {
					p.score(what, e, ti, false)
				}
			case 3:
				p.all(what)
			case 4:
				p.view, p.twin = p.view.Fork().(*Sparse), p.twin.Fork().(*Sparse)
			case 5:
				p.view.Reset()
				p.twin.Reset()
			case 6:
				obj = (obj + 1) % len(objs)
				p.view.SetObjective(objs[obj])
				p.twin.SetObjective(objs[obj])
			case 7: // a competing event at ti
				inst.Competing = append(inst.Competing, core.CompetingEvent{Interval: ti})
				inst.CompInterest.ByEvent = append(inst.CompInterest.ByEvent, randomRow(src, inst.NumUsers, float64(a%8)/8))
				p.patch(nil, map[int]bool{ti: true})
			case 8: // a new event
				inst.Events = append(inst.Events, core.Event{Location: a % 12, Required: 1})
				inst.CandInterest.ByEvent = append(inst.CandInterest.ByEvent, randomRow(src, inst.NumUsers, float64(b%8)/8))
				p.patch(map[int]bool{nE: true}, nil)
			case 9: // a new row for an unscheduled event
				if p.view.sched.Contains(e) {
					continue
				}
				inst.CandInterest.SetRow(e, randomRow(src, inst.NumUsers, float64(b%8)/8))
				p.patch(map[int]bool{e: true}, nil)
			case 10: // score right after moving the view to ti
				if !p.view.sched.Contains(e) {
					p.score(what, e, ti, false)
					p.do(what, func(x *Sparse) error { return x.Apply(e, ti) })
					p.all(what)
				}
			}
		}
		p.all("final")
	})
}
