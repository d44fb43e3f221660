package solver

import (
	"runtime"

	"ses/internal/choice"
	"ses/internal/core"
)

// Config carries the cross-cutting execution options every solver
// constructor accepts.
type Config struct {
	// Engine builds the choice engine a solver evaluates Eq. 1–4
	// with. nil selects DefaultEngine, the sparse engine, and no
	// production caller sets it: it is the seam tests use to run the
	// Ref oracle or an engine wrapped to count its calls.
	Engine EngineFactory
	// Objective selects what the solver maximizes: nil (the default)
	// is choice.Omega, the paper's expected attendance — solvers then
	// behave byte-identically to the pre-objective-layer code. Any
	// registered objective (choice.ParseObjective) plugs in; the
	// anytime algorithms (grd, grdlazy, localsearch) work for any
	// monotone objective, while grdlazy's equivalence to grd and
	// exact's branch-and-bound prune additionally require
	// Objective.Submodular() (exact falls back to unpruned search
	// otherwise).
	Objective choice.Objective
	// Workers is the number of goroutines used for initial scoring.
	// 0 selects GOMAXPROCS; any other non-positive value runs
	// serially. Schedules, utilities and counters are byte-identical
	// regardless of Workers: parallel scoring only changes which
	// goroutine evaluates a score, never the engine state it is
	// evaluated against.
	Workers int
	// Progress, when non-nil, streams one notification per assignment
	// applied to the solver's main engine (see Progress). It is always
	// invoked from the goroutine running Solve, never from scoring
	// workers or forked engines.
	Progress func(Progress)
}

// engine resolves the engine factory, binding the configured
// objective to every engine it builds. With a nil Objective the
// underlying factory is returned untouched, so the default path is
// exactly the pre-objective-layer one.
func (c Config) engine() EngineFactory {
	f := c.Engine
	if f == nil {
		f = DefaultEngine
	}
	if c.Objective == nil {
		return f
	}
	obj := c.Objective
	return func(inst *core.Instance) choice.Engine {
		eng := f(inst)
		eng.SetObjective(obj)
		return eng
	}
}

// objective resolves the configured objective (nil = Omega).
func (c Config) objective() choice.Objective {
	if c.Objective != nil {
		return c.Objective
	}
	return choice.Omega
}

// workers resolves the worker count.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	if c.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// ResolvedWorkers exposes the worker-count resolution (0 →
// GOMAXPROCS, negative → 1) to sibling packages such as the session
// layer, which feeds it to ScoreIntervals.
func (c Config) ResolvedWorkers() int { return c.workers() }
