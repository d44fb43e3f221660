package choice

import (
	"math"

	"ses/internal/activity"
	"ses/internal/core"
	"ses/internal/interest"
	"ses/internal/randx"
)

// residualEps bounds, relative to the *high-water mark* of the
// interval's accumulated mass, the residual that Unapply treats as
// floating-point noise. Rounding error of the P ± µe updates scales
// with the largest value the accumulator has held — not with the
// current entry (a small surviving mass can carry noise from a large
// removed one) and not with the mass being subtracted — so the cutoff
// is a small multiple of the machine epsilon relative to that mark:
// far below any mass another co-scheduled event could legitimately
// contribute, yet above the noise accumulated over many Apply/Unapply
// cycles. An absolute cutoff (or one relative to the current or
// subtracted mass) mistakes one side for the other.
//
// Independently of the threshold, an interval with no scheduled
// events left is cleared outright: whatever the accumulator still
// holds then is noise by definition. The threshold only has to
// arbitrate partial removals.
const residualEps = 64 * 2.220446049250313e-16 // 64 ulps ≈ 1.4e-14

// viewPays is the rule for moving the dense view: a Score or
// ScoreBatch at an interval the view does not hold scatters that
// interval into it only when the rows it reads hold at least 1/viewPays
// as many entries as the interval's competing and scheduled mass.
// Otherwise it merge-joins, which costs two galloping seeks per entry
// but writes nothing. Measured on edit-warm's step stream replayed in
// process (2000 users, k=50, a memory store under the pipeline, two
// goroutines, 10,000 writes, three alternating rounds on a 2-CPU
// host), the write p90 read 0.93–1.13 ms before the view, 0.93–1.05
// at a factor of 4, 0.71–0.92 at 8, 0.70–0.79 at 16 and 0.66–0.75
// when every call moved the view; moving it for every call also
// raised add_event's p50 from 0.15–0.21 to 0.22–0.29 ms, because each
// initial score of its one-user row scattered a fresh interval.
const viewPays = 16

// Sparse is the production engine. It exploits the sparsity of tag-
// derived interest: the score of assigning event e to interval t
// involves only users with µ(u,e) > 0, because everyone else's Luce
// denominator at t is unchanged by the assignment.
//
// Competing interest mass C(t,u) = Σ_{c∈Ct} µ(u,c) is aggregated at
// construction into per-interval sorted vectors, by a k-way merge of
// the sorted competing rows, and re-aggregated per interval when the
// instance gains competing events (Patch).
// Scheduled mass P(t,u) = Σ_{p∈Et(S)} µ(u,p) is maintained
// incrementally in per-interval *sorted accumulators*: Apply/Unapply
// merge the event's (sorted) interest row into the interval's
// accumulator through a pair of reusable scratch buffers, so the id
// list never has to be rebuilt or re-sorted. EventAttendance and
// IntervalUtility are allocation-free merge-joins over sorted vectors
// with deterministic summation order.
//
// Under a linear objective, Score and ScoreBatch read one interval
// through a dense per-user view instead: C(t,·) and P(t,·) scattered
// into two float64 arrays indexed by user id, so each row entry is two
// direct loads instead of two seeks. The view stays scattered across
// calls until the viewed interval's mass changes (Apply, Unapply,
// Patch, Reset); a call at another interval moves it there when its
// rows are long enough to pay for the scatter (viewPays), and
// merge-joins otherwise. When σ is activity.UniformHash, the engine
// also keeps each user's half of the σ hash (randx.HashKey), so σ(u,t)
// costs one mix instead of three. Both cost 24 B per user, so they
// exist only when the instance's candidate rows hold at least NumUsers
// entries: a document claiming 2^31 users with a few entries merge-
// joins and calls the σ model. Every path sums the same terms in the
// same order, so scores are bit-identical whichever one runs.
type Sparse struct {
	objectiveHolder
	inst  *core.Instance
	sched *core.Schedule
	comp  []massVector // per interval: aggregated competing mass (replaced only by Patch)
	pmass []massVector // per interval: scheduled mass, sorted, incremental
	// hwm is the per-interval high-water mark of accumulated mass; it
	// scales Unapply's noise cutoff (see residualEps).
	hwm []float64
	// scratch buffers the Apply/Unapply merges write into; after each
	// merge they swap with the interval's previous storage, so the
	// steady state allocates nothing.
	scratchIDs  []int32
	scratchVals []float64
	// viewOK reports that the instance's candidate rows hold at least
	// NumUsers entries, so the engine may keep the view and σ keys.
	viewOK bool
	// denseC and denseP are the dense view of interval viewT's
	// competing and scheduled mass, indexed by user id; both are all
	// zero when viewT is -1. They are allocated by the first call that
	// takes the view and never shared with a fork.
	denseC, denseP []float64
	viewT          int
	// sigmaKeys[u] is randx.HashKey(seed, u) when σ is UniformHash and
	// viewOK, else nil. It is immutable, so forks share it.
	sigmaKeys []uint64
}

// massVector is a sorted sparse vector of per-user mass. Competing
// vectors are never edited (Patch replaces them whole); the
// scheduled-mass accumulators are rebuilt wholesale by merge (never
// edited in place).
type massVector struct {
	ids  []int32
	vals []float64
}

func (v massVector) at(id int32) float64 {
	lo := 0
	return v.atFrom(&lo, id)
}

// seek returns the smallest index i >= lo with v.ids[i] >= id, using
// exponential (galloping) search from lo. A caller probing ascending
// ids and threading the result back in as the next lo pays O(log gap)
// per probe and never rescans earlier entries.
func (v massVector) seek(lo int, id int32) int {
	n := len(v.ids)
	if lo >= n || v.ids[lo] >= id {
		return lo
	}
	step := 1
	hi := lo + step
	for hi < n && v.ids[hi] < id {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > n {
		hi = n
	}
	// v.ids[lo] < id, and hi is n or v.ids[hi] >= id: bisect (lo, hi).
	for lo++; lo < hi; {
		m := int(uint(lo+hi) >> 1)
		if v.ids[m] < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// atFrom is the monotone variant of at: it resumes from *lo and stores
// the position back for the caller's next (larger) id.
func (v massVector) atFrom(lo *int, id int32) float64 {
	i := v.seek(*lo, id)
	*lo = i
	if i < len(v.ids) && v.ids[i] == id {
		return v.vals[i]
	}
	return 0
}

// aggregateCompeting folds the competing events' interest rows into
// one sorted mass vector per interval.
func aggregateCompeting(inst *core.Instance) []massVector {
	byInterval := make([][]int, inst.NumIntervals)
	for ci, c := range inst.Competing {
		byInterval[c.Interval] = append(byInterval[c.Interval], ci)
	}
	comp := make([]massVector, inst.NumIntervals)
	var m massMerger
	for t, cis := range byInterval {
		comp[t] = m.aggregateInterval(inst, cis)
	}
	return comp
}

// massMerger holds the buffers of aggregateInterval's k-way merge, so
// aggregating many intervals reuses them.
type massMerger struct {
	rows []interest.SparseVector
	pos  []int   // per row: the next entry to merge
	heap []int32 // rows with entries left, a min-heap under less
	ids  []int32
	vals []float64
}

// less orders rows by their next user id, then by list position.
func (m *massMerger) less(a, b int32) bool {
	ia, ib := m.rows[a].IDs[m.pos[a]], m.rows[b].IDs[m.pos[b]]
	return ia < ib || (ia == ib && a < b)
}

// down sifts heap entry i toward the leaves.
func (m *massMerger) down(i int) {
	h := m.heap
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && m.less(h[r], h[c]) {
			c = r
		}
		if !m.less(h[c], x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// aggregateInterval sums the interest rows of the listed competing
// events per user into one sorted mass vector. The rows are sorted by
// user id, so a k-way merge over them pops entries in ascending user
// order, and a user's entries in list order: every sum starts from 0
// and adds in list order, exactly as a per-user map filled row by row
// would. It is the only place competing mass is summed, so a patched
// interval is bit-identical to a freshly built one. The result is
// sized to the distinct users.
func (m *massMerger) aggregateInterval(inst *core.Instance, cis []int) massVector {
	if len(cis) == 0 {
		return massVector{}
	}
	m.rows, m.pos, m.heap = m.rows[:0], m.pos[:0], m.heap[:0]
	total := 0
	for k, ci := range cis {
		row := inst.CompInterest.Row(ci)
		m.rows = append(m.rows, row)
		m.pos = append(m.pos, 0)
		if row.Len() > 0 {
			m.heap = append(m.heap, int32(k))
		}
		total += row.Len()
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	if cap(m.ids) < total {
		m.ids = make([]int32, 0, total)
		m.vals = make([]float64, 0, total)
	}
	ids, vals := m.ids[:0], m.vals[:0]
	for len(m.heap) > 0 {
		k := m.heap[0]
		row := m.rows[k]
		id, v := row.IDs[m.pos[k]], row.Vals[m.pos[k]]
		if m.pos[k]++; m.pos[k] == len(row.IDs) {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		if len(m.heap) > 0 {
			m.down(0)
		}
		if n := len(ids); n > 0 && ids[n-1] == id {
			vals[n-1] += v
			continue
		}
		ids = append(ids, id)
		vals = append(vals, 0+v) // a map's first += adds to 0 too
	}
	return massVector{
		ids:  append(make([]int32, 0, len(ids)), ids...),
		vals: append(make([]float64, 0, len(vals)), vals...),
	}
}

// NewSparse builds the engine for inst with an empty schedule.
// The instance should be validated beforehand.
func NewSparse(inst *core.Instance) *Sparse {
	e := &Sparse{
		objectiveHolder: omegaHolder(),
		inst:            inst,
		sched:           core.NewSchedule(inst),
		comp:            aggregateCompeting(inst),
		pmass:           make([]massVector, inst.NumIntervals),
		hwm:             make([]float64, inst.NumIntervals),
		viewT:           -1,
	}
	e.fitView()
	return e
}

// fitView decides, from the instance's candidate rows, whether the
// engine may keep the dense view and σ keys (see Sparse), and builds
// the keys when it may. The view must be empty.
func (e *Sparse) fitView() {
	e.viewOK = e.inst.CandInterest.NNZ() >= e.inst.NumUsers
	if !e.viewOK {
		e.denseC, e.denseP, e.sigmaKeys = nil, nil, nil
		return
	}
	if h, ok := e.inst.Activity.(activity.UniformHash); ok && e.sigmaKeys == nil {
		e.sigmaKeys = make([]uint64, e.inst.NumUsers)
		for u := range e.sigmaKeys {
			e.sigmaKeys[u] = randx.HashKey(h.Seed, u)
		}
	}
}

// sigma returns σ(id, t), from the user's σ key when the engine keeps
// them.
func (e *Sparse) sigma(id int32, t int) float64 {
	if e.sigmaKeys != nil {
		return randx.KeyToUnit(e.sigmaKeys[id], t)
	}
	return e.inst.Activity.Prob(int(id), t)
}

// viewAt reports whether interval t can be scored through the dense
// view, first moving the view to t when rows holding entries entries
// pay for the scatter (see viewPays).
func (e *Sparse) viewAt(t, entries int) bool {
	if e.viewT == t {
		return true
	}
	comp, pm := e.comp[t], e.pmass[t]
	if !e.viewOK || entries*viewPays < len(comp.ids)+len(pm.ids) {
		return false
	}
	e.dropView()
	if e.denseC == nil {
		e.denseC = make([]float64, e.inst.NumUsers)
		e.denseP = make([]float64, e.inst.NumUsers)
	}
	for i, id := range comp.ids {
		e.denseC[id] = comp.vals[i]
	}
	for i, id := range pm.ids {
		e.denseP[id] = pm.vals[i]
	}
	e.viewT = t
	return true
}

// dropView empties the view, zeroing only what it scattered. Anything
// that changes the viewed interval's competing or scheduled mass calls
// it first, while comp and pmass still hold what was scattered.
func (e *Sparse) dropView() {
	if e.viewT < 0 {
		return
	}
	for _, id := range e.comp[e.viewT].ids {
		e.denseC[id] = 0
	}
	for _, id := range e.pmass[e.viewT].ids {
		e.denseP[id] = 0
	}
	e.viewT = -1
}

// touch drops the view if it holds interval t, whose mass is about to
// change.
func (e *Sparse) touch(t int) {
	if e.viewT == t {
		e.dropView()
	}
}

// Instance returns the problem instance.
func (e *Sparse) Instance() *core.Instance { return e.inst }

// Schedule returns the engine's schedule.
func (e *Sparse) Schedule() *core.Schedule { return e.sched }

// CompetingMass returns C(t, u), the user's aggregated interest in the
// competing events at t.
func (e *Sparse) CompetingMass(t int, u int) float64 { return e.comp[t].at(int32(u)) }

// Score returns the assignment score of (event, t): the objective's
// gain (Eq. 4 under Omega). For linear objectives it reads the
// interval through the dense view when the view holds t or the row
// pays for moving it there; otherwise the event's interest row and
// both interval mass vectors are sorted by user id, so one monotone
// merge-join pass over the row covers all lookups. Nonlinear
// objectives re-fold the whole interval (see scoreNonlinear).
func (e *Sparse) Score(event, t int) float64 {
	if !e.linear {
		return e.scoreNonlinear(event, t)
	}
	row := e.inst.CandInterest.Row(event)
	if e.viewAt(t, row.Len()) {
		return e.scoreView(row, t)
	}
	comp := e.comp[t]
	pm := e.pmass[t]
	obj := e.obj
	sum := 0.0
	ci, pi := 0, 0
	for i, id := range row.IDs {
		mu := row.Vals[i]
		c := comp.atFrom(&ci, id)
		p := pm.atFrom(&pi, id)
		sum += obj.Gain(e.sigma(id, t), mu, c, p)
	}
	return sum
}

// scoreView is Score's linear sum read through the dense view, which
// must hold t: the same terms in the same order as the merge-join.
func (e *Sparse) scoreView(row interest.SparseVector, t int) float64 {
	dc, dp, obj := e.denseC, e.denseP, e.obj
	sum := 0.0
	for i, id := range row.IDs {
		sum += obj.Gain(e.sigma(id, t), row.Vals[i], dc[id], dp[id])
	}
	return sum
}

// scoreNonlinear computes Score for a nonlinear objective as the
// interval-value delta: the fold after the event's mass joins minus
// the fold before. The "after" pass is a merge-join over the union of
// the interval's accumulator and the event's interest row, so the cost
// is O(|supp P| + |row|) instead of the linear path's O(|row|).
func (e *Sparse) scoreNonlinear(event, t int) float64 {
	before := e.intervalValue(t, e.obj, false)
	row := e.inst.CandInterest.Row(event)
	comp := e.comp[t]
	pm := e.pmass[t]
	var fold objFold
	ci, i, j := 0, 0, 0
	for i < len(pm.ids) || j < len(row.IDs) {
		var id int32
		var p float64
		switch {
		case j == len(row.IDs) || (i < len(pm.ids) && pm.ids[i] < row.IDs[j]):
			id, p = pm.ids[i], pm.vals[i]
			i++
		case i == len(pm.ids) || pm.ids[i] > row.IDs[j]:
			id, p = row.IDs[j], row.Vals[j]
			j++
		default:
			id, p = pm.ids[i], pm.vals[i]+row.Vals[j]
			i++
			j++
		}
		if p <= 0 {
			continue
		}
		fold.add(e.obj.Share(e.sigma(id, t), comp.atFrom(&ci, id), p))
	}
	return fold.value(e.obj) - before
}

// ScoreBatch computes Score for every listed event at t. Under a
// linear objective it takes the dense view when the view holds t or
// the batch's rows together pay for moving it there (the rule Score
// applies to one row), and reads every row through it; otherwise it
// loops Score, whose own rule may still move the view for a long row.
// Every event sums the same terms in the same order as Score, so the
// scores are bit-identical.
func (e *Sparse) ScoreBatch(events []int, t int, out []float64) {
	entries := 0
	for _, ev := range events {
		entries += e.inst.CandInterest.Row(ev).Len()
	}
	if !e.linear || !e.viewAt(t, entries) {
		scoreBatchSerial(e, events, t, out)
		return
	}
	for k, ev := range events {
		out[k] = e.scoreView(e.inst.CandInterest.Row(ev), t)
	}
}

// merge rebuilds pmass[t] as acc ± row into the scratch buffers, then
// swaps storage so the interval owns the merged vector and the old
// arrays become the next scratch. When subtracting, entries whose
// residual is numerical noise relative to the pre-subtraction
// accumulated mass are dropped (see residualEps).
func (e *Sparse) merge(t int, row massVector, subtract bool) {
	e.touch(t)
	acc := e.pmass[t]
	if len(acc.ids) == 0 {
		if subtract {
			return // subtracting from an empty accumulator is a no-op
		}
		if cap(acc.ids) == 0 {
			// First event ever at this interval: copy the row into
			// storage the interval owns. Going through the scratch
			// swap here would trade the scratch buffers for acc's nil
			// arrays and force the next merge to reallocate them. An
			// emptied interval that still has capacity (from an
			// earlier swap) falls through and reuses it.
			e.pmass[t] = massVector{
				ids:  append([]int32(nil), row.ids...),
				vals: append([]float64(nil), row.vals...),
			}
			for _, v := range row.vals {
				if v > e.hwm[t] {
					e.hwm[t] = v
				}
			}
			return
		}
	}
	noiseFloor := residualEps * e.hwm[t]
	mark := e.hwm[t]
	need := len(acc.ids) + len(row.ids)
	// The two scratch arrays can have different capacities (they
	// rotate independently through differently-sized allocations), so
	// both must clear the bound for the merge to stay allocation-free.
	if cap(e.scratchIDs) < need || cap(e.scratchVals) < need {
		e.scratchIDs = make([]int32, 0, 2*need)
		e.scratchVals = make([]float64, 0, 2*need)
	}
	outIDs := e.scratchIDs[:0]
	outVals := e.scratchVals[:0]
	i, j := 0, 0
	for i < len(acc.ids) && j < len(row.ids) {
		switch {
		case acc.ids[i] < row.ids[j]:
			outIDs = append(outIDs, acc.ids[i])
			outVals = append(outVals, acc.vals[i])
			i++
		case acc.ids[i] > row.ids[j]:
			if !subtract {
				outIDs = append(outIDs, row.ids[j])
				outVals = append(outVals, row.vals[j])
				if row.vals[j] > mark {
					mark = row.vals[j]
				}
			}
			j++
		default:
			if subtract {
				if v := acc.vals[i] - row.vals[j]; math.Abs(v) > noiseFloor {
					outIDs = append(outIDs, acc.ids[i])
					outVals = append(outVals, v)
				}
			} else {
				v := acc.vals[i] + row.vals[j]
				outIDs = append(outIDs, acc.ids[i])
				outVals = append(outVals, v)
				if v > mark {
					mark = v
				}
			}
			i++
			j++
		}
	}
	for ; i < len(acc.ids); i++ {
		outIDs = append(outIDs, acc.ids[i])
		outVals = append(outVals, acc.vals[i])
	}
	if !subtract {
		for ; j < len(row.ids); j++ {
			outIDs = append(outIDs, row.ids[j])
			outVals = append(outVals, row.vals[j])
			if row.vals[j] > mark {
				mark = row.vals[j]
			}
		}
	}
	if subtract && len(outIDs) == 0 {
		// Every residual was dropped as noise: the accumulator emptied
		// and is cleared outright even though events may remain
		// scheduled (their masses were all noise-erased). The high-water
		// mark must decay with it — a later small-mass-only workload at
		// this interval would otherwise have its residuals judged
		// against a stale lifetime maximum and be erased wholesale.
		mark = 0
	}
	e.pmass[t] = massVector{ids: outIDs, vals: outVals}
	e.hwm[t] = mark
	e.scratchIDs = acc.ids[:0:cap(acc.ids)]
	e.scratchVals = acc.vals[:0:cap(acc.vals)]
}

// Apply assigns (event, t) and merges the event's interest row into
// the interval's scheduled-mass accumulator.
func (e *Sparse) Apply(event, t int) error {
	if err := e.sched.Assign(event, t); err != nil {
		return err
	}
	row := e.inst.CandInterest.Row(event)
	e.merge(t, massVector{ids: row.IDs, vals: row.Vals}, false)
	return nil
}

// Unapply removes the event and subtracts its mass from the interval's
// accumulator. When the interval has no scheduled events left, any
// remaining accumulator content is rounding noise by definition and is
// cleared exactly (keeping the storage for reuse).
func (e *Sparse) Unapply(event int) error {
	t := e.sched.IntervalOf(event)
	if err := e.sched.Unassign(event); err != nil {
		return err
	}
	row := e.inst.CandInterest.Row(event)
	e.merge(t, massVector{ids: row.IDs, vals: row.Vals}, true)
	if len(e.sched.EventsAt(t)) == 0 {
		e.touch(t)
		acc := e.pmass[t]
		e.pmass[t] = massVector{ids: acc.ids[:0], vals: acc.vals[:0]}
		e.hwm[t] = 0
	}
	return nil
}

// Patch absorbs instance mutations (see Engine): the schedule grows
// to the instance's events, and each listed interval's competing mass
// is re-summed from the instance. Interest updates need nothing but a
// fresh look at whether the rows still hold enough entries for the
// view, since Score reads event rows from the instance. The competing
// vectors are replaced in a copy of the per-interval table, so forks
// taken earlier keep the mass they were forked with.
func (e *Sparse) Patch(events, intervals map[int]bool) {
	e.dropView()
	e.sched.Grow()
	if len(events) > 0 {
		e.fitView()
	}
	if len(intervals) == 0 {
		return
	}
	comp := append([]massVector(nil), e.comp...)
	var m massMerger
	for t := range intervals {
		comp[t] = m.aggregateInterval(e.inst, e.inst.CompetingAt(t))
	}
	e.comp = comp
}

// Reset empties the schedule and the scheduled-mass accumulators in
// place, keeping their storage (and the competing-mass aggregates,
// which depend only on the instance) for the next solve.
func (e *Sparse) Reset() {
	e.dropView()
	e.sched.Reset()
	for t := range e.pmass {
		acc := e.pmass[t]
		e.pmass[t] = massVector{ids: acc.ids[:0], vals: acc.vals[:0]}
		e.hwm[t] = 0
	}
}

// EventAttendance returns ω (Eq. 2) of a scheduled event, 0 if
// unassigned.
func (e *Sparse) EventAttendance(event int) float64 {
	t := e.sched.IntervalOf(event)
	if t == core.Unassigned {
		return 0
	}
	row := e.inst.CandInterest.Row(event)
	comp := e.comp[t]
	pm := e.pmass[t]
	sum := 0.0
	ci, pi := 0, 0
	for i, id := range row.IDs {
		mu := row.Vals[i]
		denom := comp.atFrom(&ci, id) + pm.atFrom(&pi, id) // pm includes mu itself
		if denom <= 0 {
			continue
		}
		sum += e.sigma(id, t) * mu / denom
	}
	return sum
}

// IntervalUtility returns the objective's value of interval t
// (Σ_{e∈Et} ω under Omega, via the aggregated identity
// Σ_e σ·µe/(C+P) = σ·P/(C+P) per user). The accumulator is already in
// sorted user order, so the fold is deterministic and allocation-free.
func (e *Sparse) IntervalUtility(t int) float64 {
	return e.intervalValue(t, e.obj, e.linear)
}

// intervalValue folds interval t's per-user shares under obj. The
// linear path is the plain share sum; the nonlinear path also tracks
// the minimum share and participant count for Combine.
func (e *Sparse) intervalValue(t int, obj Objective, linear bool) float64 {
	pm := e.pmass[t]
	if len(pm.ids) == 0 {
		return 0
	}
	comp := e.comp[t]
	sum := 0.0
	ci := 0
	if linear {
		for i, id := range pm.ids {
			sum += obj.Share(e.sigma(id, t), comp.atFrom(&ci, id), pm.vals[i])
		}
		return sum
	}
	var fold objFold
	for i, id := range pm.ids {
		p := pm.vals[i]
		if p <= 0 {
			continue
		}
		fold.add(obj.Share(e.sigma(id, t), comp.atFrom(&ci, id), p))
	}
	return fold.value(obj)
}

// Utility returns the objective's total value (Ω(S), Eq. 3, under
// Omega).
func (e *Sparse) Utility() float64 {
	sum := 0.0
	for t := range e.pmass {
		sum += e.IntervalUtility(t)
	}
	return sum
}

// ValueOf returns the schedule's total value under obj (nil = Omega)
// without changing the engine's own objective.
func (e *Sparse) ValueOf(obj Objective) float64 {
	if obj == nil {
		obj = Omega
	}
	linear := obj.Linear()
	sum := 0.0
	for t := range e.pmass {
		sum += e.intervalValue(t, obj, linear)
	}
	return sum
}

// Fork deep-copies the schedule and scheduled-mass accumulators while
// sharing the immutable competing-mass vectors, σ keys, objective and
// instance. The fork starts without a view and gets fresh scratch
// buffers, so it is independent of the original for both reads and
// writes.
func (e *Sparse) Fork() Engine {
	f := &Sparse{
		objectiveHolder: e.objectiveHolder,
		inst:            e.inst,
		sched:           e.sched.Clone(),
		comp:            e.comp, // Patch replaces the table, never edits it
		pmass:           make([]massVector, len(e.pmass)),
		hwm:             append([]float64(nil), e.hwm...),
		viewOK:          e.viewOK,
		viewT:           -1,
		sigmaKeys:       e.sigmaKeys,
	}
	for t, m := range e.pmass {
		if len(m.ids) == 0 {
			continue
		}
		f.pmass[t] = massVector{
			ids:  append([]int32(nil), m.ids...),
			vals: append([]float64(nil), m.vals...),
		}
	}
	return f
}

var _ Engine = (*Sparse)(nil)
