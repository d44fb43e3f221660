// Package solver implements the scheduling algorithms of the SES
// paper and the extensions the rest of this repository runs. Each of
// the seven registered solvers stays for a named reason:
//
//   - GRD — the paper's greedy Algorithm 1 (Section III), faithful to
//     the pseudocode: a flat assignment list, linear-scan popTopAssgn,
//     and eager same-interval score updates after every selection.
//     Its selection phase, SelectGreedy, is the one greedy kernel:
//     the session layer's incremental Resolve runs it too, adding
//     pins and a constrained worklist.
//   - GRDLazy — GRD with SelectGreedy in heap mode, a max-heap with
//     CELF-style lazy re-evaluation that exploits the per-interval
//     submodularity of the objective; identical output to GRD under
//     Omega with far fewer score updates. It is the counter twin the
//     session tests compare a heap-mode Resolve with.
//   - TOP and RAND — the paper's two baselines (Section IV-A): TOP
//     takes the top-k valid assignments by initial score without
//     ever updating a score; RAND picks valid assignments uniformly
//     at random.
//   - TOPFill and LocalSearch — sesbench's extended algorithm set:
//     TOPFill walks TOP's sorted list until k valid picks, and
//     LocalSearch hill-climbs (relocate + swap moves) on top of any
//     starting schedule.
//   - Exact — exhaustive DFS with an admissible upper-bound prune;
//     tractable only on small instances, it is the oracle the
//     approximation tests measure the greedy against.
//
// All solvers are deterministic given their configuration (RAND takes
// an explicit seed). Every constructor takes a Config carrying the
// engine factory and a worker count; initial scoring — the dominant
// cost of the paper's Fig. 1b/1d time series — runs on a worker pool
// when Workers > 1, with byte-identical results to the serial run
// (see worklist.go).
package solver

import (
	"context"
	"errors"
	"fmt"

	"ses/internal/choice"
	"ses/internal/core"
)

// EngineFactory builds the choice engine a solver evaluates Eq. 1–4
// with. The default is the sparse engine; the dense paper-faithful
// engine can be injected for ablations.
type EngineFactory func(*core.Instance) choice.Engine

// DefaultEngine builds the sparse engine.
func DefaultEngine(inst *core.Instance) choice.Engine { return choice.NewSparse(inst) }

// DenseEngine builds the dense (paper-faithful O(|U|) score) engine.
func DenseEngine(inst *core.Instance) choice.Engine { return choice.NewDense(inst) }

// Counters records the work a solver performed; the experiment
// harness reports them next to wall-clock times (Fig. 1b/1d) so the
// paper's cost model (initial scores vs. update volume) can be checked
// directly.
type Counters struct {
	// InitialScores counts Eq. 4 evaluations during list generation.
	InitialScores int
	// ScoreUpdates counts Eq. 4 re-evaluations after selections: the
	// eager same-interval rescores in SelectGreedy's scan mode and
	// the stale re-pops in its heap mode.
	ScoreUpdates int
	// BoundUpdates is always 0.
	//
	// Deprecated: it counted the upper-bound rescores of the deleted
	// choice.Pruned engine. It stays only because the end-to-end
	// benchmark still reads it and the session goldens print it.
	BoundUpdates int
	// Pops counts popTopAssgn calls. In scan mode that is one linear
	// scan each, invalid pops included; in heap mode it is every top
	// entry looked at: each invalid entry dropped, each stale rescore
	// and each applied entry. A pick retires its event's other
	// entries without popping them.
	Pops int
	// ListScans counts assignment-list elements traversed by scan
	// mode's popTopAssgn and same-interval update; heap mode scans no
	// list, so it leaves ListScans at 0.
	ListScans int
	// Moves counts accepted local-search moves.
	Moves int
	// Replayed counts greedy steps applied from a session's last
	// commit without scoring or popping them (SelectGreedy's replay).
	// It is process-local: snapshots and commit stamps do not carry
	// it.
	Replayed int
}

// Add accumulates o into c; the session layer uses it to keep
// per-resolve and lifetime counters.
func (c *Counters) Add(o Counters) {
	c.InitialScores += o.InitialScores
	c.ScoreUpdates += o.ScoreUpdates
	c.Pops += o.Pops
	c.ListScans += o.ListScans
	c.Moves += o.Moves
	c.Replayed += o.Replayed
}

// StoppedDeadline is the Result.Stopped reason reported by anytime
// solvers that hit their context deadline and returned the best
// feasible schedule found so far.
const StoppedDeadline = "deadline"

// Result is a solver run outcome.
type Result struct {
	// Solver is the name of the producing algorithm.
	Solver string
	// Objective is the canonical spec of the objective the solver
	// maximized ("omega" for the default expected attendance).
	Objective string
	// Schedule is the feasible schedule found. Its size is k unless
	// the instance admits fewer valid assignments or the run was
	// stopped early (see Stopped).
	Schedule *core.Schedule
	// Utility is the configured objective's total value of Schedule
	// (Ω per Eq. 3 under the default Omega objective).
	Utility float64
	// Omega is Ω(Schedule) per Eq. 3 regardless of the configured
	// objective, so runs under different objectives stay comparable on
	// the paper's native metric. Equal to Utility under Omega.
	Omega float64
	// Stopped is empty for a complete run. Anytime solvers (grd,
	// grdlazy, localsearch) set it to StoppedDeadline when the
	// context deadline expired mid-run: the Schedule is then the
	// feasible best-so-far rather than the full k-selection.
	Stopped string
	// Counters describes the work performed.
	Counters Counters
}

// Solver is a SES algorithm: find a feasible schedule with (up to) k
// assignments maximizing Ω.
//
// Cancellation contract: every solver observes ctx at its selection
// and expansion boundaries (and inside the parallel scoring pool). A
// canceled context makes Solve return ctx.Err() promptly. An expired
// deadline makes the anytime solvers (grd, grdlazy, localsearch)
// return their feasible best-so-far schedule with Result.Stopped =
// StoppedDeadline instead of discarding the work; one-shot solvers
// return ctx.Err() for deadlines too.
type Solver interface {
	// Name identifies the algorithm (stable, lowercase).
	Name() string
	// Solve runs the algorithm. Implementations validate the instance
	// and return an error for k < 0.
	Solve(ctx context.Context, inst *core.Instance, k int) (*Result, error)
}

// ErrNegativeK is returned when Solve is called with k < 0.
var ErrNegativeK = errors.New("solver: k must be non-negative")

// validate runs the shared precondition checks.
func validate(inst *core.Instance, k int) error {
	if k < 0 {
		return fmt.Errorf("%w: %d", ErrNegativeK, k)
	}
	return inst.Validate()
}

// ctxCheck inspects ctx at a solver boundary. While ctx is live it
// returns ("", nil). Once ctx is done: a deadline on an anytime caller
// yields (StoppedDeadline, nil) — the caller finalizes its
// best-so-far schedule — and every other case (cancellation, or a
// deadline on a one-shot caller) yields ("", ctx.Err()) for prompt
// propagation.
func ctxCheck(ctx context.Context, anytime bool) (stop string, err error) {
	if ctx == nil {
		return "", nil
	}
	cause := ctx.Err()
	if cause == nil {
		return "", nil
	}
	if anytime && errors.Is(cause, context.DeadlineExceeded) {
		return StoppedDeadline, nil
	}
	return "", cause
}

// finish finalizes a result from the engine's current state: the
// schedule, the objective's value, the objective-independent Ω and the
// early-stop reason ("" for a complete run). Every solver funnels its
// Result through here so the per-objective report fields are uniform.
func finish(res *Result, eng choice.Engine, stop string) *Result {
	res.Schedule = eng.Schedule()
	res.Utility = eng.Utility()
	res.Objective = eng.Objective().Name()
	if eng.Objective() == choice.Omega {
		res.Omega = res.Utility // definitionally equal; skip the extra fold
	} else {
		res.Omega = eng.ValueOf(choice.Omega)
	}
	res.Stopped = stop
	return res
}

// New returns a solver by name with default configuration; Names
// lists the registry. The randomized solver (rand) gets the provided
// seed; the others ignore it.
func New(name string, seed uint64) (Solver, error) { return NewWith(name, seed, Config{}) }

// NewWith returns a solver by name carrying the given configuration
// (engine factory and worker count); see New for the known names.
func NewWith(name string, seed uint64, cfg Config) (Solver, error) {
	switch name {
	case "grd":
		return NewGRD(cfg), nil
	case "grdlazy":
		return NewGRDLazy(cfg), nil
	case "top":
		return NewTOP(cfg), nil
	case "topfill":
		return NewTOPFill(cfg), nil
	case "rand":
		return NewRAND(seed, cfg), nil
	case "exact":
		return NewExact(cfg), nil
	case "localsearch":
		return NewLocalSearch(nil, 0, cfg), nil
	default:
		return nil, fmt.Errorf("solver: unknown solver %q", name)
	}
}

// Names lists the registered solver names in a stable order.
func Names() []string {
	return []string{"grd", "grdlazy", "top", "topfill", "rand", "exact", "localsearch"}
}
