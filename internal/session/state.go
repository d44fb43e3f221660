package session

import (
	"fmt"
	"math"
	"sort"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/solver"
)

// State is a portable, self-contained image of a Scheduler: the
// instance, the session constraints (cancellations, pins, forbids),
// the schedule-size target and the committed schedule of the last
// resolve. It is the in-memory form behind snapshot/restore — the
// wire and disk encodings live in ses/internal/snap.
//
// A State is canonical: Cancelled is sorted and duplicate-free, Pins
// and Schedule are sorted by event, Forbidden is sorted by (event,
// interval). ExportState always produces canonical states; FromState
// rejects non-canonical input so that snapshot → restore → snapshot
// round-trips byte-identically.
//
// Process-local configuration (worker count, progress callback, and
// the engine factory tests set) is deliberately not part of the
// state: the restoring process supplies its own Options.
type State struct {
	// K is the schedule-size target.
	K int
	// Objective is the canonical spec of the session's objective
	// (choice.ParseObjective). ExportState always writes it
	// explicitly ("omega" for the default); FromState accepts "" as
	// omega so states predating the objective layer keep restoring.
	Objective string
	// Inst is a deep copy of the session's instance.
	Inst *core.Instance
	// Cancelled lists withdrawn candidate events, sorted ascending.
	Cancelled []int
	// Pins lists pinned assignments, sorted by event.
	Pins []core.Assignment
	// Forbidden lists excluded assignments, sorted by (event, interval).
	Forbidden []core.Assignment
	// Schedule is the committed schedule of the last resolve (empty
	// before the first), sorted by event.
	Schedule []core.Assignment
	// Utility is Ω of Schedule at commit time.
	Utility float64
	// Totals carries the cumulative work counters across resolves.
	Totals solver.Counters
}

// ExportState captures the session's current state under the session
// lock. The returned State shares nothing mutable with the Scheduler
// and stays valid while the session keeps mutating.
func (s *Scheduler) ExportState() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &State{
		K:         s.k,
		Objective: s.obj.Name(),
		Inst:      copyInstance(s.inst),
		Schedule:  append([]core.Assignment(nil), s.cur...),
		Utility:   s.curUtil,
		Totals:    s.totals,
	}
	for e, c := range s.cancelled {
		if c {
			st.Cancelled = append(st.Cancelled, e)
		}
	}
	for e, t := range s.pins {
		st.Pins = append(st.Pins, core.Assignment{Event: e, Interval: t})
	}
	for e, m := range s.forbidden {
		for t, on := range m {
			if on {
				st.Forbidden = append(st.Forbidden, core.Assignment{Event: e, Interval: t})
			}
		}
	}
	sortAssignments(st.Pins)
	sortAssignments(st.Forbidden)
	return st
}

// sortAssignments orders by (event, interval).
func sortAssignments(as []core.Assignment) {
	sort.Slice(as, func(i, j int) bool {
		if as[i].Event != as[j].Event {
			return as[i].Event < as[j].Event
		}
		return as[i].Interval < as[j].Interval
	})
}

// FromState reconstructs a Scheduler from a state produced by
// ExportState (directly, or through a snapshot codec). The state is
// fully validated — instance invariants, index ranges, canonical
// ordering, schedule feasibility — so that a corrupted snapshot fails
// here with an error instead of corrupting a live session. The
// restored session re-scores from scratch on its first Resolve (the
// score cache is process state, not session state) and then resumes
// incremental operation.
func FromState(st *State, opts Options) (*Scheduler, error) {
	if st == nil {
		return nil, fmt.Errorf("session: FromState: nil state")
	}
	if st.K < 0 {
		return nil, fmt.Errorf("session: FromState: %w: %d", solver.ErrNegativeK, st.K)
	}
	if st.Inst == nil {
		return nil, fmt.Errorf("session: FromState: state has no instance")
	}
	if err := st.Inst.Validate(); err != nil {
		return nil, fmt.Errorf("session: FromState: %w", err)
	}
	if math.IsNaN(st.Utility) || math.IsInf(st.Utility, 0) {
		return nil, fmt.Errorf("session: FromState: non-finite utility %v", st.Utility)
	}
	// The state's objective wins over opts.Objective: a snapshot must
	// restore to the session it describes, not to whatever the
	// restoring process happens to default to.
	obj, err := choice.ParseObjective(st.Objective)
	if err != nil {
		return nil, fmt.Errorf("session: FromState: %w", err)
	}
	nE, nT := st.Inst.NumEvents(), st.Inst.NumIntervals

	cancelled := make([]bool, nE)
	for i, e := range st.Cancelled {
		if e < 0 || e >= nE {
			return nil, fmt.Errorf("session: FromState: cancelled %w: %d", core.ErrEventRange, e)
		}
		if i > 0 && e <= st.Cancelled[i-1] {
			return nil, fmt.Errorf("session: FromState: cancelled list not sorted/unique at %d", e)
		}
		cancelled[e] = true
	}

	forbidden := make(map[int]map[int]bool)
	for i, a := range st.Forbidden {
		if a.Event < 0 || a.Event >= nE {
			return nil, fmt.Errorf("session: FromState: forbidden %w: %d", core.ErrEventRange, a.Event)
		}
		if a.Interval < 0 || a.Interval >= nT {
			return nil, fmt.Errorf("session: FromState: forbidden %w: %d", core.ErrIntervalRange, a.Interval)
		}
		if i > 0 && !lessAssignment(st.Forbidden[i-1], a) {
			return nil, fmt.Errorf("session: FromState: forbidden list not sorted/unique at (%d,%d)", a.Event, a.Interval)
		}
		if forbidden[a.Event] == nil {
			forbidden[a.Event] = make(map[int]bool)
		}
		forbidden[a.Event][a.Interval] = true
	}

	pins := make(map[int]int, len(st.Pins))
	for i, a := range st.Pins {
		if a.Event < 0 || a.Event >= nE {
			return nil, fmt.Errorf("session: FromState: pin %w: %d", core.ErrEventRange, a.Event)
		}
		if a.Interval < 0 || a.Interval >= nT {
			return nil, fmt.Errorf("session: FromState: pin %w: %d", core.ErrIntervalRange, a.Interval)
		}
		if i > 0 && st.Pins[i-1].Event >= a.Event {
			return nil, fmt.Errorf("session: FromState: pin list not sorted/unique at event %d", a.Event)
		}
		if cancelled[a.Event] {
			return nil, fmt.Errorf("session: FromState: pinned event %d is cancelled", a.Event)
		}
		if forbidden[a.Event][a.Interval] {
			return nil, fmt.Errorf("session: FromState: pinned assignment (%d,%d) is forbidden", a.Event, a.Interval)
		}
		pins[a.Event] = a.Interval
	}

	// The committed schedule must be feasible on the restored instance;
	// replaying it through core.Schedule checks ranges, duplicates,
	// location conflicts and resource budgets in one pass. (It may
	// legitimately contain cancelled events: cancellation takes effect
	// at the next resolve, not retroactively.)
	check := core.NewSchedule(st.Inst)
	for i, a := range st.Schedule {
		if i > 0 && st.Schedule[i-1].Event >= a.Event {
			return nil, fmt.Errorf("session: FromState: schedule not sorted/unique at event %d", a.Event)
		}
		if err := check.Assign(a.Event, a.Interval); err != nil {
			return nil, fmt.Errorf("session: FromState: schedule: %w", err)
		}
	}

	return &Scheduler{
		opts:           opts,
		k:              st.K,
		obj:            obj,
		inst:           copyInstance(st.Inst),
		cancelled:      cancelled,
		pins:           pins,
		forbidden:      forbidden,
		dirtyEvents:    make(map[int]bool),
		dirtyIntervals: make(map[int]bool),
		cur:            append([]core.Assignment(nil), st.Schedule...),
		curUtil:        st.Utility,
		totals:         st.Totals,
	}, nil
}

// Committed returns the session's committed solve outcome — the
// schedule, its utility, the early-stop reason of the resolve that
// produced it, and the cumulative work counters — under one lock
// acquisition, so the four values always describe the same commit.
// It is the source of the commit stamps the durable store writes to
// its write-ahead log.
func (s *Scheduler) Committed() (schedule []core.Assignment, utility float64, stopped string, totals solver.Counters) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.Assignment(nil), s.cur...), s.curUtil, s.lastStop, s.totals
}

// InstallCommit installs an externally recorded committed schedule —
// the WAL-replay counterpart of a live Resolve. The durable store
// logs each commit's physical outcome (schedule, utility, stop
// reason, counters) next to the logical mutations, and recovery
// replays the mutations then installs the outcome verbatim, so the
// recovered State is byte-identical to the acknowledged one without
// re-running (and without depending on the determinism of) the
// solver.
//
// The schedule is validated like a restored snapshot's: sorted by
// event, unique, and feasible on the session's current instance.
// The score cache is left untouched — initial scores depend only on
// the instance, never on what is committed — so the next live
// Resolve proceeds incrementally as usual.
func (s *Scheduler) InstallCommit(schedule []core.Assignment, utility float64, stopped string, totals solver.Counters) error {
	if math.IsNaN(utility) || math.IsInf(utility, 0) {
		return fmt.Errorf("session: InstallCommit: non-finite utility %v", utility)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	check := core.NewSchedule(s.inst)
	for i, a := range schedule {
		if i > 0 && schedule[i-1].Event >= a.Event {
			return fmt.Errorf("session: InstallCommit: schedule not sorted/unique at event %d", a.Event)
		}
		if err := check.Assign(a.Event, a.Interval); err != nil {
			return fmt.Errorf("session: InstallCommit: schedule: %w", err)
		}
	}
	s.cur = append(s.cur[:0:0], schedule...)
	s.curUtil = utility
	s.lastStop = stopped
	s.totals = totals
	// The installed schedule was not selected here, so neither the
	// trail nor the per-interval record describes it: the next resolve
	// selects in full and folds every interval.
	s.trail = nil
	s.fold.valid = false
	return nil
}

// lessAssignment is the strict (event, interval) order used to check
// canonical sorting.
func lessAssignment(a, b core.Assignment) bool {
	if a.Event != b.Event {
		return a.Event < b.Event
	}
	return a.Interval < b.Interval
}
