package choice

import (
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
	if !entriesAtLeast(inst.CandInterest, events, inst.NumUsers) {
		t.Fatal("the all-events batch does not take the dense path")
	}
	eng := NewSparse(inst)
	greedyFill(eng, 3)
	out := make([]float64, len(events))
	eng.ScoreBatch(events, 0, out) // the engine's first call allocates its view
	if n := testing.AllocsPerRun(20, func() {
		for ti := 0; ti < inst.NumIntervals; ti++ {
			eng.ScoreBatch(events, ti, out)
		}
	}); n != 0 {
		t.Fatalf("ScoreBatch allocated %v times per run after the first call", n)
	}

	// A fork scores through a view of its own, allocated on its own
	// first call, so parallel forks never share one.
	f := eng.Fork().(*Sparse)
	if f.denseC != nil || f.denseP != nil {
		t.Fatal("fork shares the dense view")
	}
	f.ScoreBatch(events, 1, out)
	if &f.denseC[0] == &eng.denseC[0] || &f.denseP[0] == &eng.denseP[0] {
		t.Fatal("fork scores through the original's dense view")
	}
}
