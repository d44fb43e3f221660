package solver

import "ses/internal/choice"

// Progress is one streaming progress notification: an assignment was
// applied to the solver's main engine. For constructive solvers (grd,
// grdlazy, top, topfill, rand, the session layer) that is exactly one
// notification per selection; localsearch streams its start
// schedule's replay and then every move re-application, so consumers
// should treat the stream as liveness, not a schedule log — read the
// final schedule from the Result. Exact applies and withdraws
// speculative assignments throughout its search and streams nothing.
//
// Callbacks run synchronously on the goroutine driving the solve (for
// the session layer, while the session lock is held), so they must
// not call back into the solver or Scheduler.
type Progress struct {
	// Solver is the reporting algorithm's name.
	Solver string
	// Event and Interval identify the applied assignment.
	Event    int
	Interval int
	// Scheduled is the schedule size after this application.
	Scheduled int
}

// progressEngine decorates an Engine so every successful Apply on the
// solver's main engine emits a Progress notification. Forks are
// returned unwrapped: forked engines belong to scoring workers, and
// reporting from them would interleave callbacks across goroutines.
// The decorator embeds only choice.Engine, so it hides optional
// interfaces such as choice.Bounder; SelectGreedy, which needs the
// Bounder, reports progress itself instead.
type progressEngine struct {
	choice.Engine
	solver string
	fn     func(Progress)
}

// instrument wraps eng with progress reporting when cfg.Progress is
// set.
func (c Config) instrument(solverName string, eng choice.Engine) choice.Engine {
	if c.Progress == nil {
		return eng
	}
	return &progressEngine{Engine: eng, solver: solverName, fn: c.Progress}
}

// Apply forwards to the wrapped engine and reports the application.
func (p *progressEngine) Apply(event, t int) error {
	if err := p.Engine.Apply(event, t); err != nil {
		return err
	}
	p.fn(Progress{Solver: p.solver, Event: event, Interval: t, Scheduled: p.Engine.Schedule().Size()})
	return nil
}
