// Package session implements the mutable scheduling session behind
// ses.Scheduler: a long-lived owner of one SES instance that absorbs
// portfolio mutations (new events, cancellations, interest updates,
// new competition, pinned or forbidden assignments) and re-solves
// incrementally.
//
// The key observation is that the expensive phase of the greedy
// solver — the |E|·|T| initial (empty-schedule) assignment scores of
// Algorithm 1, lines 2–4 — depends only on per-event interest rows,
// per-interval competing mass and the activity model, never on the
// previous solution. Each mutation therefore invalidates a precise
// slice of the cached score matrix:
//
//   - AddEvent / UpdateInterest: one event row (|T| entries)
//   - AddCompeting: one interval column (|E| entries)
//   - CancelEvent / Pin / Forbid: nothing at all
//
// Resolve patches exactly the invalidated slice, then reruns the
// greedy *selection* phase over the patched matrix under the
// session's constraints. That phase is solver.SelectGreedy, the
// kernel GRD runs: the session hands it the pins and a worklist
// without cancelled events, pinned events or forbidden pairs. Under a
// submodular objective (Omega) the kernel runs in heap mode — CELF
// lazy re-evaluation, which rescores an assignment only when it
// surfaces at the top after its interval changed — and otherwise in
// the paper's scan mode with eager same-interval updates. Both modes
// select the same schedule under Omega, and the patched matrix is
// bit-identical to a from-scratch rescore, so the resulting schedule
// and utility are exactly those of from-scratch GRD on the mutated
// instance — with InitialScores reduced from |E|·|T| to the
// invalidated slice. The equivalence is enforced by tests, not just
// argued.
//
// The warm engine follows the same record of what changed: a
// choice.Patcher engine (Sparse, the default) is patched in place
// after AddEvent, UpdateInterest and AddCompeting, and any other
// engine is rebuilt.
//
// Under a submodular objective Resolve also skips the part of the
// selection the mutations cannot have changed. A heap-mode commit
// keeps its greedy steps after the pins in memory: each pick and the
// exact score it won with. The next Resolve replays the longest
// prefix of those steps that from-scratch GRD is certain to pick
// again. A step is certified while its event and interval are clean,
// it is still valid and allowed, and no valid dirty pair's fresh
// initial score beats its winning score; under submodularity a pair's
// initial score bounds all its later scores, the bound heap mode
// already relies on. A changed pin set certifies nothing. The
// certified steps enter SelectGreedy like pins, with no score and no
// pop, and heap mode runs only for the steps after them.
//
// The utility is summed from per-interval values, under every
// objective. A commit keeps each interval's value and the events
// applied there in order: the pins in event order, then the steps.
// The next Resolve refolds an interval only when its applied events
// or their order changed, it gained competing events, or one of its
// events was given a new row; an interval's value depends on nothing
// else (choice.Engine.Utility), so the sum is the engine's Utility
// bit for bit. The steps and the values are not session state: the
// first Resolve after New, FromState or InstallCommit selects in full
// and folds every interval.
package session

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/interest"
	"ses/internal/obs"
	"ses/internal/solver"
)

// Options configures a Scheduler; the zero value is usable.
type Options struct {
	// Workers is the scoring fan-out width (0 = GOMAXPROCS, 1 =
	// serial); results are identical for any value.
	Workers int
	// Engine builds the choice engine (nil = the sparse production
	// engine).
	Engine solver.EngineFactory
	// Objective selects what the session maximizes (nil = choice.Omega,
	// the paper's expected attendance). Unlike the other options it is
	// consumed at creation and becomes part of the session's state: it
	// is exported by ExportState, travels in snapshots, and on restore
	// the snapshot's objective wins over the restoring process's
	// Options.
	Objective choice.Objective
	// Progress, when non-nil, receives one notification per
	// assignment applied during Resolve (pins and replayed steps
	// included), from the goroutine running Resolve while the session
	// lock is held — the callback must not call back into the
	// Scheduler.
	Progress func(solver.Progress)
}

// Move records one event that changed interval between two resolves.
type Move struct {
	Event    int
	From, To int
}

// Delta describes how one Resolve changed the committed schedule.
type Delta struct {
	// Added lists assignments present now but not before.
	Added []core.Assignment
	// Removed lists assignments present before but not now.
	Removed []core.Assignment
	// Moved lists events scheduled in both but at different intervals.
	Moved []Move
	// Utility is Ω of the new schedule.
	Utility float64
	// Stopped is solver.StoppedDeadline when the context deadline
	// expired during selection and the committed schedule is the
	// feasible best-so-far; empty for a complete resolve.
	Stopped string
	// Counters is the work of this resolve only. InitialScores covers
	// just the score-matrix slice invalidated by the mutations since
	// the previous resolve (the full |E|·|T| on the first).
	Counters solver.Counters
}

// Scheduler is a mutable scheduling session. It owns a private copy
// of the instance, a warm choice engine, and the initial-score cache;
// mutations are cheap bookkeeping and Resolve re-solves incrementally
// up to k events (pins are hard constraints and may exceed k).
// All methods are safe for concurrent use; Resolve holds the session
// lock for the duration of the solve, serializing with mutations.
type Scheduler struct {
	mu   sync.Mutex
	opts Options
	k    int
	// obj is the session's objective (never nil). It is session state,
	// not configuration: fixed at creation (or by the restored
	// snapshot) and exported with the state.
	obj choice.Objective

	inst      *core.Instance
	cancelled []bool
	pins      map[int]int          // event -> pinned interval
	forbidden map[int]map[int]bool // event -> forbidden intervals

	eng choice.Engine

	cache       []float64 // initial scores [t*nE+e] at last commit
	cacheEvents int       // nE when the cache was committed
	cacheValid  bool
	// dirtyEvents and dirtyIntervals record what changed since the
	// last commit: events added or given a new interest row, and
	// intervals that gained competing events. They are the one record
	// both the score cache and the engine are brought up to date from.
	dirtyEvents    map[int]bool
	dirtyIntervals map[int]bool
	// matBuf and list recycle the score-matrix and worklist storage
	// across resolves (matBuf double-buffers against cache), keeping
	// the steady-state repair path allocation-light like the warm
	// engine underneath it.
	matBuf []float64
	list   solver.Worklist

	// trail is the last commit's greedy steps after the pins, in the
	// order they were applied, each with the exact score it won with;
	// nil when no trail describes the committed schedule. Only a
	// heap-mode resolve records one, and it lives in memory only:
	// New, FromState and InstallCommit start without it. pinsMoved
	// and allowed complete the dirty sets as the record certify checks
	// the trail against: the pin set changed, and the pairs re-allowed,
	// since the commit.
	trail     []solver.Step
	pinsMoved bool
	allowed   []core.Assignment
	// certSched is certify's scratch schedule, kept across resolves.
	certSched *core.Schedule
	// fold is the last commit's value of each interval and the events
	// applied there in order; it lives in memory only, like trail, and
	// is invalid after New, FromState and InstallCommit. A resolve
	// builds the next one in foldNext (foldUtility) and swaps the two
	// on commit, so neither allocates in steady state. rescoreBuf is
	// patchScores' scratch list of events to score.
	fold, foldNext intervalFold
	rescoreBuf     []int

	cur      []core.Assignment
	curUtil  float64
	lastStop string
	totals   solver.Counters
}

// New starts a session over a private copy of inst, targeting
// schedules of up to k events. The caller's inst is not retained:
// later mutations affect only the session's copy.
func New(inst *core.Instance, k int, opts Options) (*Scheduler, error) {
	if k < 0 {
		return nil, fmt.Errorf("session: %w: %d", solver.ErrNegativeK, k)
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	cp := copyInstance(inst)
	obj := opts.Objective
	if obj == nil {
		obj = choice.Omega
	}
	return &Scheduler{
		opts:           opts,
		k:              k,
		obj:            obj,
		inst:           cp,
		cancelled:      make([]bool, len(cp.Events)),
		pins:           make(map[int]int),
		forbidden:      make(map[int]map[int]bool),
		dirtyEvents:    make(map[int]bool),
		dirtyIntervals: make(map[int]bool),
	}, nil
}

// copyInstance deep-copies an instance up to the immutable sparse
// interest rows and the (immutable) activity model, which are shared.
func copyInstance(inst *core.Instance) *core.Instance {
	return &core.Instance{
		NumUsers:     inst.NumUsers,
		NumIntervals: inst.NumIntervals,
		Resources:    inst.Resources,
		Events:       append([]core.Event(nil), inst.Events...),
		Competing:    append([]core.CompetingEvent(nil), inst.Competing...),
		CandInterest: copyMatrix(inst.CandInterest),
		CompInterest: copyMatrix(inst.CompInterest),
		Activity:     inst.Activity,
	}
}

// copyMatrix shallow-copies the row table; the sparse row vectors are
// immutable and shared. Mutations always install fresh rows.
func copyMatrix(m *interest.Matrix) *interest.Matrix {
	cp := interest.NewMatrix(m.NumUsers, m.NumEvents())
	for e := 0; e < m.NumEvents(); e++ {
		cp.SetRow(e, m.Row(e))
	}
	return cp
}

// engineFactory resolves the engine option.
func (s *Scheduler) engineFactory() solver.EngineFactory {
	if s.opts.Engine != nil {
		return s.opts.Engine
	}
	return solver.DefaultEngine
}

// K returns the current schedule-size target.
func (s *Scheduler) K() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.k
}

// SetK retargets the session to schedules of up to k events. No
// scores are invalidated: k only affects selection.
func (s *Scheduler) SetK(k int) error {
	if k < 0 {
		return fmt.Errorf("session: %w: %d", solver.ErrNegativeK, k)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.k = k
	return nil
}

// Instance returns a point-in-time snapshot of the session's
// instance for inspection (utility evaluation, reporting). The
// snapshot shares only immutable row vectors with the session, so it
// stays safe to read while other goroutines keep mutating the
// Scheduler. Mutate through the Scheduler methods so invalidation
// stays precise.
func (s *Scheduler) Instance() *core.Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return copyInstance(s.inst)
}

// Dims reports the current instance dimensions (|U|, |T|, |E|)
// without copying the instance.
func (s *Scheduler) Dims() (users, intervals, events int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inst.NumUsers, s.inst.NumIntervals, len(s.inst.Events)
}

// Schedule returns the committed schedule of the last successful
// Resolve (nil before the first).
func (s *Scheduler) Schedule() []core.Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.Assignment(nil), s.cur...)
}

// Utility returns the objective's value of the committed schedule (Ω
// under the default Omega objective).
func (s *Scheduler) Utility() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curUtil
}

// Objective returns the session's objective (choice.Omega unless one
// was selected at creation or carried in by a restored snapshot).
func (s *Scheduler) Objective() choice.Objective {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obj
}

// Counters returns the cumulative work across all resolves.
func (s *Scheduler) Counters() solver.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals
}

// AddEvent adds a candidate event with the given per-user interest
// (user -> µ ∈ [0,1]) and returns its event id. Only the new event's
// |T| initial scores are invalidated.
func (s *Scheduler) AddEvent(ev core.Event, mu map[int]float64) (int, error) {
	if ev.Location < 0 {
		return 0, fmt.Errorf("session: AddEvent: negative location %d", ev.Location)
	}
	// The negated-range form rejects NaN too (every comparison with a
	// NaN is false): a NaN that slipped in here would solve fine but
	// poison snapshot and WAL-record encoding later.
	if !(ev.Required >= 0) {
		return 0, fmt.Errorf("session: AddEvent: negative required resources %v", ev.Required)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	row, err := s.buildRow(mu)
	if err != nil {
		return 0, fmt.Errorf("session: AddEvent: %w", err)
	}
	id := len(s.inst.Events)
	s.inst.Events = append(s.inst.Events, ev)
	s.inst.CandInterest.ByEvent = append(s.inst.CandInterest.ByEvent, row)
	s.cancelled = append(s.cancelled, false)
	s.dirtyEvents[id] = true
	return id, nil
}

// buildRow validates and sorts a user->µ map into a sparse row.
func (s *Scheduler) buildRow(mu map[int]float64) (interest.SparseVector, error) {
	ids := make([]int32, 0, len(mu))
	vals := make([]float64, 0, len(mu))
	for u, v := range mu {
		if u < 0 || u >= s.inst.NumUsers {
			return interest.SparseVector{}, fmt.Errorf("user %d outside [0,%d)", u, s.inst.NumUsers)
		}
		if !(v >= 0 && v <= 1) { // negated form also rejects NaN
			return interest.SparseVector{}, fmt.Errorf("µ = %v for user %d outside [0,1]", v, u)
		}
		ids = append(ids, int32(u))
		vals = append(vals, v)
	}
	return interest.NewSparseVector(ids, vals)
}

// CancelEvent withdraws a candidate event: it leaves the schedule at
// the next Resolve and is never selected again. No scores are
// invalidated — the event's cached row simply stops participating.
// Canceling twice is a no-op.
func (s *Scheduler) CancelEvent(e int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e < 0 || e >= len(s.inst.Events) {
		return fmt.Errorf("session: CancelEvent: %w: %d", core.ErrEventRange, e)
	}
	s.cancelled[e] = true
	s.unpin(e)
	return nil
}

// UpdateInterest sets µ(user, event) for a candidate event (µ = 0
// removes the entry). Only that event's |T| initial scores are
// invalidated.
func (s *Scheduler) UpdateInterest(user, event int, mu float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if event < 0 || event >= len(s.inst.Events) {
		return fmt.Errorf("session: UpdateInterest: %w: %d", core.ErrEventRange, event)
	}
	if user < 0 || user >= s.inst.NumUsers {
		return fmt.Errorf("session: UpdateInterest: user %d outside [0,%d)", user, s.inst.NumUsers)
	}
	if !(mu >= 0 && mu <= 1) { // negated form also rejects NaN
		return fmt.Errorf("session: UpdateInterest: µ = %v outside [0,1]", mu)
	}
	old := s.inst.CandInterest.Row(event)
	ids := make([]int32, 0, old.Len()+1)
	vals := make([]float64, 0, old.Len()+1)
	for i, id := range old.IDs {
		if int(id) != user {
			ids = append(ids, id)
			vals = append(vals, old.Vals[i])
		}
	}
	if mu > 0 {
		ids = append(ids, int32(user))
		vals = append(vals, mu)
	}
	row, err := interest.NewSparseVector(ids, vals)
	if err != nil {
		return fmt.Errorf("session: UpdateInterest: %w", err)
	}
	s.inst.CandInterest.SetRow(event, row)
	s.dirtyEvents[event] = true
	return nil
}

// AddCompeting registers a third-party event at its interval with the
// given per-user interest and returns its competing-event id. Only
// that interval's |E| initial scores are invalidated.
func (s *Scheduler) AddCompeting(c core.CompetingEvent, mu map[int]float64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.Interval < 0 || c.Interval >= s.inst.NumIntervals {
		return 0, fmt.Errorf("session: AddCompeting: %w: %d", core.ErrIntervalRange, c.Interval)
	}
	row, err := s.buildRow(mu)
	if err != nil {
		return 0, fmt.Errorf("session: AddCompeting: %w", err)
	}
	id := len(s.inst.Competing)
	s.inst.Competing = append(s.inst.Competing, c)
	s.inst.CompInterest.ByEvent = append(s.inst.CompInterest.ByEvent, row)
	s.dirtyIntervals[c.Interval] = true
	return id, nil
}

// Pin forces event e to interval t in every future schedule. Pins
// are hard constraints: they are applied before greedy selection,
// count toward k, and are honored even when more than k events are
// pinned (greedy fill then adds nothing). No scores are invalidated.
func (s *Scheduler) Pin(e, t int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e < 0 || e >= len(s.inst.Events) {
		return fmt.Errorf("session: Pin: %w: %d", core.ErrEventRange, e)
	}
	if t < 0 || t >= s.inst.NumIntervals {
		return fmt.Errorf("session: Pin: %w: %d", core.ErrIntervalRange, t)
	}
	if s.cancelled[e] {
		return fmt.Errorf("session: Pin: event %d is cancelled", e)
	}
	if s.forbidden[e][t] {
		return fmt.Errorf("session: Pin: assignment (%d,%d) is forbidden", e, t)
	}
	if pt, ok := s.pins[e]; !ok || pt != t {
		s.pinsMoved = true
	}
	s.pins[e] = t
	return nil
}

// Unpin releases a pinned event back to free selection. Unpinning an
// unpinned event is a no-op.
func (s *Scheduler) Unpin(e int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e < 0 || e >= len(s.inst.Events) {
		return fmt.Errorf("session: Unpin: %w: %d", core.ErrEventRange, e)
	}
	s.unpin(e)
	return nil
}

// unpin drops e's pin, if it has one.
func (s *Scheduler) unpin(e int) {
	if _, ok := s.pins[e]; ok {
		delete(s.pins, e)
		s.pinsMoved = true
	}
}

// Forbid excludes assignment (e, t) from every future schedule. No
// scores are invalidated.
func (s *Scheduler) Forbid(e, t int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e < 0 || e >= len(s.inst.Events) {
		return fmt.Errorf("session: Forbid: %w: %d", core.ErrEventRange, e)
	}
	if t < 0 || t >= s.inst.NumIntervals {
		return fmt.Errorf("session: Forbid: %w: %d", core.ErrIntervalRange, t)
	}
	if pt, ok := s.pins[e]; ok && pt == t {
		return fmt.Errorf("session: Forbid: assignment (%d,%d) is pinned; Unpin first", e, t)
	}
	if s.forbidden[e] == nil {
		s.forbidden[e] = make(map[int]bool)
	}
	s.forbidden[e][t] = true
	return nil
}

// Allow removes a Forbid. Allowing a non-forbidden pair is a no-op.
func (s *Scheduler) Allow(e, t int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e < 0 || e >= len(s.inst.Events) {
		return fmt.Errorf("session: Allow: %w: %d", core.ErrEventRange, e)
	}
	if s.forbidden[e][t] {
		delete(s.forbidden[e], t)
		s.allowed = append(s.allowed, core.Assignment{Event: e, Interval: t})
	}
	return nil
}

// workers resolves the scoring fan-out width like solver.Config does.
func (s *Scheduler) workers() int {
	return solver.Config{Workers: s.opts.Workers}.ResolvedWorkers()
}

// Resolve repairs the schedule against all mutations since the last
// resolve and commits the result. The returned Delta reports what
// moved. The schedule and utility are exactly those of from-scratch
// GRD on the current instance under the session's pins/forbids/
// cancellations; only the invalidated slice of the initial-score
// matrix is recomputed (Delta.Counters.InitialScores). Under a
// submodular objective the greedy steps of the last commit that those
// mutations cannot change are replayed without scoring
// (Delta.Counters.Replayed; certify has the rule), and selection
// proper starts after them.
//
// Context: cancellation aborts without committing (the previous
// schedule stays current); a deadline during selection commits the
// feasible best-so-far with Delta.Stopped set.
func (s *Scheduler) Resolve(ctx context.Context) (*Delta, error) {
	// The span opens before the lock so it covers lock wait — on a
	// contended session that wait IS the latency story.
	ctx, rsp := obs.StartSpan(ctx, obs.SpanResolve)
	defer rsp.End()
	s.mu.Lock()
	defer s.mu.Unlock()

	s.ensureEngine()
	nE, nT := s.inst.NumEvents(), s.inst.NumIntervals
	var cnt solver.Counters
	// The working matrix comes from the spare buffer when it fits
	// (mat never aliases s.cache: the spare is always a *previous*
	// cache generation). patchScores overwrites every entry the
	// selection can read — only cancelled events' slots are skipped,
	// and those never enter the worklist — so no zeroing is needed.
	mat := s.matBuf[:0]
	if cap(mat) < nE*nT {
		// Grow with 25% headroom: the cache/spare pair double-buffers,
		// and AddEvent widens the matrix one event column at a time, so
		// exact-fit allocation would reallocate both generations on
		// every structural growth cycle of a long-lived session.
		mat = make([]float64, nE*nT, nE*nT+nE*nT/4)
	} else {
		mat = mat[:nE*nT]
	}
	s.matBuf = nil
	sctx, ssp := obs.StartSpan(ctx, obs.SpanScoring)
	err := s.patchScores(sctx, mat, &cnt)
	ssp.SetAttr("initial_scores", cnt.InitialScores)
	ssp.End()
	if err != nil {
		s.matBuf = mat
		return nil, err
	}

	gctx, gsp := obs.StartSpan(ctx, obs.SpanSelect)
	pins := s.sortedPins()
	replay := s.certify(mat, pins)
	s.fillWorklist(mat, replay)
	eng := solver.Instrument(s.eng, "session", s.opts.Progress)
	steps, stop, err := solver.SelectGreedy(gctx, eng, &s.list, s.k, pins, replay, s.obj.Submodular(), &cnt)
	gsp.SetAttr("pops", cnt.Pops)
	gsp.SetAttr("score_updates", cnt.ScoreUpdates)
	gsp.SetAttr("replayed", cnt.Replayed)
	gsp.End()
	if err != nil {
		// Nothing is committed; the engine will be reset on the next
		// Resolve.
		s.matBuf = mat
		return nil, err
	}

	newAssgn := s.eng.Schedule().Assignments()
	util := s.foldUtility(pins, steps)
	delta := s.diff(newAssgn)
	delta.Utility = util
	delta.Stopped = stop
	delta.Counters = cnt
	rsp.SetAttr("scheduled", len(newAssgn))
	if stop != "" {
		rsp.SetAttr("stopped", stop)
	}

	// Commit; the outgoing cache becomes the next resolve's spare.
	s.matBuf = s.cache
	s.cache = mat
	s.cacheEvents = nE
	s.cacheValid = true
	clear(s.dirtyEvents)
	clear(s.dirtyIntervals)
	s.trail = steps
	if !s.obj.Submodular() {
		s.trail = nil // certify's bound needs submodularity
	}
	s.pinsMoved = false
	s.allowed = s.allowed[:0]
	s.fold, s.foldNext = s.foldNext, s.fold
	s.fold.valid = true
	s.cur = newAssgn
	s.curUtil = util
	s.lastStop = stop
	s.totals.Add(cnt)
	return delta, nil
}

// Summary is a consistent point-in-time view of the facts a serving
// layer reports about a session: instance dimensions, the target k,
// and the committed schedule's size, utility and early-stop reason.
type Summary struct {
	Users, Intervals, Events int
	K                        int
	Scheduled                int
	Utility                  float64
	Stopped                  string
	// Objective is the canonical spec of the session's objective.
	Objective string
}

// Summary captures all reportable facts under one lock acquisition,
// so the fields are guaranteed to describe the same commit.
func (s *Scheduler) Summary() Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Summary{
		Users:     s.inst.NumUsers,
		Intervals: s.inst.NumIntervals,
		Events:    len(s.inst.Events),
		K:         s.k,
		Scheduled: len(s.cur),
		Utility:   s.curUtil,
		Stopped:   s.lastStop,
		Objective: s.obj.Name(),
	}
}

// ensureEngine readies the warm engine for a solve: it is reset in
// place when it is a choice.Reuser and, after structural mutations,
// also a choice.Patcher, which is patched from the dirty sets first.
// Any other engine is rebuilt, bound to the session's objective. The
// dirty sets are cleared only on commit, so a Resolve that fails
// after patching patches again on retry; Patch is idempotent.
func (s *Scheduler) ensureEngine() {
	if r, ok := s.eng.(choice.Reuser); ok {
		if len(s.dirtyEvents) == 0 && len(s.dirtyIntervals) == 0 {
			r.Reset()
			return
		}
		if p, ok := s.eng.(choice.Patcher); ok {
			p.Patch(s.dirtyEvents, s.dirtyIntervals)
			r.Reset()
			return
		}
	}
	s.eng = s.engineFactory()(s.inst)
	s.eng.SetObjective(s.obj)
}

// patchScores fills mat with the initial (empty-schedule) score of
// every (event, interval) pair, recomputing only the slice the
// mutation log invalidated and copying everything else from the
// cache. The patched matrix is bit-identical to a full rescore.
func (s *Scheduler) patchScores(ctx context.Context, mat []float64, cnt *solver.Counters) error {
	nE, nT := s.inst.NumEvents(), s.inst.NumIntervals
	if !s.cacheValid {
		all := make([]int, nT)
		for t := range all {
			all[t] = t
		}
		return solver.ScoreIntervals(ctx, s.eng, all, s.workers(), mat, cnt)
	}
	if len(s.dirtyIntervals) > 0 {
		dirtyT := make([]int, 0, len(s.dirtyIntervals))
		for t := range s.dirtyIntervals {
			dirtyT = append(dirtyT, t)
		}
		sort.Ints(dirtyT)
		if err := solver.ScoreIntervals(ctx, s.eng, dirtyT, s.workers(), mat, cnt); err != nil {
			return err
		}
	}
	// Every clean interval copies the cached scores of the events the
	// cache covers, then scores the events it cannot vouch for: those
	// given a new row or added since the commit. Cancelled events are
	// never selected, so their slots keep whatever they hold.
	rescore := s.rescoreBuf[:0]
	for e := range s.dirtyEvents {
		if e < s.cacheEvents && !s.cancelled[e] {
			rescore = append(rescore, e)
		}
	}
	slices.Sort(rescore)
	for e := s.cacheEvents; e < nE; e++ {
		if !s.cancelled[e] {
			rescore = append(rescore, e)
		}
	}
	s.rescoreBuf = rescore
	m := min(nE, s.cacheEvents)
	for t := 0; t < nT; t++ {
		if s.dirtyIntervals[t] {
			continue
		}
		// The whole scoring phase is one-shot: a partially patched
		// matrix is unusable, so any done ctx — deadline included —
		// aborts here exactly like ScoreIntervals does. Only the
		// selection phase below is anytime.
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		dst := mat[t*nE : (t+1)*nE]
		copy(dst[:m], s.cache[t*s.cacheEvents:t*s.cacheEvents+m])
		for _, e := range rescore {
			dst[e] = s.eng.Score(e, t)
		}
		cnt.InitialScores += len(rescore)
	}
	return nil
}

// sortedPins lists the pins in event order, the order they apply in.
func (s *Scheduler) sortedPins() []core.Assignment {
	pins := make([]core.Assignment, 0, len(s.pins))
	for e, t := range s.pins {
		pins = append(pins, core.Assignment{Event: e, Interval: t})
	}
	slices.SortFunc(pins, func(a, b core.Assignment) int { return cmp.Compare(a.Event, b.Event) })
	return pins
}

// certify returns the longest prefix of the last commit's trail that
// from-scratch GRD is certain to pick again, given the patched initial
// scores in mat and the pins in the order they apply.
//
// A changed pin set certifies nothing. Otherwise step i survives, on
// a schedule holding the pins and the steps before it, when its event
// and interval are clean, the pair is neither cancelled nor forbidden
// and still valid, and no valid dirty pair beats it in the kernel's
// selection order. Dirty events are those added or given a new
// interest row; dirty intervals gained competing events or hold a pin
// whose event is dirty; dirty pairs are every pair of a dirty event,
// every pair at a dirty interval, and every re-allowed pair. A clean
// pair's score on that schedule is exactly its score at step i of the
// commit, where step i beat it. A dirty pair is judged by its fresh
// initial score, which under a submodular objective bounds every
// later score of the pair — the bound heap mode already relies on.
func (s *Scheduler) certify(mat []float64, pins []core.Assignment) []solver.Step {
	if s.trail == nil || s.pinsMoved {
		return nil
	}
	nE, nT := s.inst.NumEvents(), s.inst.NumIntervals
	dirtyT := make([]bool, nT)
	for t := range s.dirtyIntervals {
		dirtyT[t] = true
	}
	for _, p := range pins {
		if s.dirtyEvents[p.Event] {
			dirtyT[p.Interval] = true
		}
	}
	// The dirty pairs the worklist holds, best first. A pair listed
	// twice is harmless.
	var dirty []solver.Step
	add := func(e, t int) {
		if _, pinned := s.pins[e]; pinned || s.cancelled[e] || s.forbidden[e][t] {
			return
		}
		dirty = append(dirty, solver.Step{Event: e, Interval: t, Score: mat[t*nE+e]})
	}
	for e := range s.dirtyEvents {
		for t := 0; t < nT; t++ {
			add(e, t)
		}
	}
	for t, d := range dirtyT {
		for e := 0; d && e < nE; e++ {
			if !s.dirtyEvents[e] {
				add(e, t)
			}
		}
	}
	for _, a := range s.allowed {
		add(a.Event, a.Interval)
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].Beats(dirty[j]) })

	sched := s.certSched
	if sched == nil {
		sched = core.NewSchedule(s.inst)
		s.certSched = sched
	}
	sched.Grow()
	sched.Reset()
	for _, p := range pins {
		if sched.Assign(p.Event, p.Interval) != nil {
			return nil // SelectGreedy reports the infeasible pin
		}
	}
	// A pair invalid on this schedule stays invalid as it grows, so the
	// best valid dirty pair only moves down the sorted list.
	best, n := 0, 0
	for ; n < len(s.trail) && sched.Size() < s.k; n++ {
		st := s.trail[n]
		if s.dirtyEvents[st.Event] || dirtyT[st.Interval] || s.cancelled[st.Event] || s.forbidden[st.Event][st.Interval] {
			break
		}
		for best < len(dirty) && !sched.IsValid(dirty[best].Event, dirty[best].Interval) {
			best++
		}
		if best < len(dirty) && dirty[best].Beats(st) || sched.Assign(st.Event, st.Interval) != nil {
			break
		}
	}
	return s.trail[:n]
}

// intervalFold records a commit's schedule per interval: each
// interval's value and the events applied there, in the order they
// were applied.
type intervalFold struct {
	// vals[t] is interval t's value, eng.IntervalUtility(t).
	vals []float64
	// The events applied at t are events[start[t]:start[t+1]].
	start  []int
	events []int
	// valid is false until a commit fills the record.
	valid bool
}

// at lists the events applied at t, in order.
func (f *intervalFold) at(t int) []int { return f.events[f.start[t]:f.start[t+1]] }

// group records the events the pins, then the steps, applied at each
// of nT intervals, in that order: a stable counting sort by interval.
func (f *intervalFold) group(nT int, pins []core.Assignment, steps []solver.Step) {
	f.start = slices.Grow(f.start[:0], nT+1)[:nT+1]
	clear(f.start)
	for _, p := range pins {
		f.start[p.Interval]++
	}
	for _, st := range steps {
		f.start[st.Interval]++
	}
	// start[t] becomes the end of t's events; filling from the back
	// moves it to their beginning and keeps their order.
	n := 0
	for t := range f.start {
		n += f.start[t]
		f.start[t] = n
	}
	f.events = slices.Grow(f.events[:0], n)[:n]
	for i := len(steps) - 1; i >= 0; i-- {
		t := steps[i].Interval
		f.start[t]--
		f.events[f.start[t]] = steps[i].Event
	}
	for i := len(pins) - 1; i >= 0; i-- {
		t := pins[i].Interval
		f.start[t]--
		f.events[f.start[t]] = pins[i].Event
	}
}

// foldUtility returns the engine's utility of the schedule just
// selected, the pins then the steps, and records it per interval in
// s.foldNext. An interval keeps its committed value when the same
// events were applied there in the same order, it gained no competing
// events and none of those events has a new row since the commit:
// its value depends on nothing else (choice.Engine.Utility). Every
// other interval is refolded. The values are summed in interval
// order, so the sum is eng.Utility() bit for bit.
func (s *Scheduler) foldUtility(pins []core.Assignment, steps []solver.Step) float64 {
	nT := s.inst.NumIntervals
	prev, next := &s.fold, &s.foldNext
	next.group(nT, pins, steps)
	next.vals = slices.Grow(next.vals[:0], nT)[:nT]
	sum := 0.0
	for t := range next.vals {
		at := next.at(t)
		if prev.valid && !s.dirtyIntervals[t] && slices.Equal(at, prev.at(t)) &&
			!slices.ContainsFunc(at, func(e int) bool { return s.dirtyEvents[e] }) {
			next.vals[t] = prev.vals[t]
		} else {
			next.vals[t] = s.eng.IntervalUtility(t)
		}
		sum += next.vals[t]
	}
	return sum
}

// fillWorklist refills the recycled worklist from mat in GRD's
// canonical (event, interval) order, minus cancelled events, pinned
// events, replayed events and forbidden pairs. Heap mode selects
// nothing once the pins and the replayed steps reach k, so then the
// list stays empty.
func (s *Scheduler) fillWorklist(mat []float64, replay []solver.Step) {
	nE, nT := s.inst.NumEvents(), s.inst.NumIntervals
	s.list.Reset(nE * nT)
	if s.obj.Submodular() && len(s.pins)+len(replay) >= s.k {
		return
	}
	replayed := make([]bool, nE)
	for _, st := range replay {
		replayed[st.Event] = true
	}
	for e := 0; e < nE; e++ {
		if s.cancelled[e] || replayed[e] {
			continue
		}
		if _, ok := s.pins[e]; ok {
			continue
		}
		forb := s.forbidden[e]
		for t := 0; t < nT; t++ {
			if !forb[t] {
				s.list.Add(e, t, mat[t*nE+e])
			}
		}
	}
}

// diff compares the committed schedule with the new one.
func (s *Scheduler) diff(next []core.Assignment) *Delta {
	old := make(map[int]int, len(s.cur))
	for _, a := range s.cur {
		old[a.Event] = a.Interval
	}
	d := &Delta{}
	for _, a := range next {
		if from, ok := old[a.Event]; ok {
			if from != a.Interval {
				d.Moved = append(d.Moved, Move{Event: a.Event, From: from, To: a.Interval})
			}
			delete(old, a.Event)
		} else {
			d.Added = append(d.Added, a)
		}
	}
	for e, t := range old {
		d.Removed = append(d.Removed, core.Assignment{Event: e, Interval: t})
	}
	sort.Slice(d.Removed, func(i, j int) bool { return d.Removed[i].Event < d.Removed[j].Event })
	sort.Slice(d.Moved, func(i, j int) bool { return d.Moved[i].Event < d.Moved[j].Event })
	return d
}
