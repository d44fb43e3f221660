package ses

import (
	"time"

	"ses/internal/choice"
	"ses/internal/session"
	"ses/internal/solver"
	"ses/internal/wal"
)

// Option configures solver construction (New) and Scheduler sessions
// (NewScheduler). The same options apply to both surfaces: a session
// is just a solver with retained state, so the knobs — scoring
// parallelism, objective, randomization seed, progress streaming — are
// shared.
type Option func(*config)

// config is the resolved option set.
type config struct {
	workers   int
	objective Objective
	seed      uint64
	progress  func(Progress)

	// durability (consumed by OpenStore).
	durableDir      string
	syncPolicy      SyncPolicy
	syncInterval    time.Duration
	checkpointEvery int

	// pipeline (consumed by NewPipeline).
	resolveWorkers int
	resolveQueue   int

	// observability (consumed by NewStore/OpenStore).
	obs *Observability
}

// solverConfig converts the resolved options to the internal solver
// configuration.
func (c config) solverConfig() SolverConfig {
	return SolverConfig{Objective: c.objective, Workers: c.workers, Progress: c.progress}
}

// sessionOptions converts the resolved options to the options of every
// session the facade starts, restores or stores.
func (c config) sessionOptions() session.Options {
	return session.Options{Workers: c.workers, Objective: c.objective, Progress: c.progress}
}

// resolve applies opts over the defaults.
func resolve(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithWorkers sets the number of goroutines used for initial scoring
// (0, the default, uses all cores; 1 runs serially). Schedules,
// utilities and counters are byte-identical for any value.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithObjective selects what solvers and sessions maximize: Omega
// (the default — the paper's expected attendance Ω), an
// AttendanceObjective (thresholded success-probability attendance),
// or a FairnessObjective (egalitarian min-participant blend). Specs
// parsed by ParseObjective work too. For a Scheduler the objective
// becomes session state: it is exported with snapshots and survives
// restore.
func WithObjective(obj Objective) Option { return func(c *config) { c.objective = obj } }

// WithSeed seeds the randomized algorithm (rand); deterministic
// algorithms ignore it. The default seed is 0.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithProgress streams one Progress notification per assignment
// applied to the solver's (or session's) main engine, synchronously
// from the goroutine running the solve. Use it to drive live UIs or
// logs while a long solve runs; read the final schedule from the
// Result, not from the stream. The callback must not call back into
// the solver or Scheduler it is observing (a Scheduler callback runs
// under the session lock).
func WithProgress(fn func(Progress)) Option { return func(c *config) { c.progress = fn } }

// SyncPolicy selects when a durable store's write-ahead log reaches
// stable storage; see WithSyncPolicy and the wal package for the
// exact guarantees of each policy.
type SyncPolicy = wal.SyncPolicy

// The sync policies, from safest to fastest.
const (
	// SyncAlways fsyncs every append before acknowledging.
	SyncAlways = wal.SyncAlways
	// SyncInterval flushes in the background every WithSyncInterval.
	SyncInterval = wal.SyncInterval
	// SyncNone leaves flushing to the OS (rotation/close still sync).
	SyncNone = wal.SyncNone
)

// ParseSyncPolicy resolves the flag spelling of a sync policy
// ("always", "interval", "none"; "" means always).
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// WithDurability roots a store's write-ahead log at dir — the option
// that turns OpenStore's result into a crash-recoverable store. The
// directory is created on first use and recovered from on open.
func WithDurability(dir string) Option { return func(c *config) { c.durableDir = dir } }

// WithSyncPolicy selects the WAL append durability policy (default
// SyncAlways). See SyncAlways, SyncInterval, SyncNone for the
// crash-loss tradeoffs each makes.
func WithSyncPolicy(p SyncPolicy) Option { return func(c *config) { c.syncPolicy = p } }

// WithSyncInterval sets the background flush period used under
// SyncInterval (0, the default, means 50ms).
func WithSyncInterval(d time.Duration) Option { return func(c *config) { c.syncInterval = d } }

// WithCheckpointEvery makes the durable store checkpoint a shard
// (and truncate its log) in the background after n records (0 = the
// default 1024; negative disables automatic checkpoints — Close and
// Checkpoint still write them).
func WithCheckpointEvery(n int) Option { return func(c *config) { c.checkpointEvery = n } }

// GroupCommit is the argument of WithGroupCommit.
//
// Deprecated: the WAL has one append path, so there is nothing to
// configure. The type remains because the end-to-end benchmark's
// in-process replay (e2ebench/replay.go) passes
// ses.WithGroupCommit(ses.GroupCommit{Enabled: true}).
type GroupCommit struct {
	Enabled bool
}

// WithGroupCommit has no effect. A durable store's shard lock spans
// its WAL fsync, so each shard's log has one writer at a time and
// there are never two appends for one fsync to cover.
//
// Deprecated: remove the option. It remains for e2ebench/replay.go,
// which passes it when it opens its durable stores.
func WithGroupCommit(GroupCommit) Option { return func(*config) {} }

// WithResolveWorkers bounds how many sessions a Pipeline resolves
// concurrently (0, the default, uses all cores); see NewPipeline.
func WithResolveWorkers(n int) Option { return func(c *config) { c.resolveWorkers = n } }

// WithResolveQueue bounds a Pipeline's total pending requests; past
// it submits fail fast with ErrPipelineSaturated (0 = 1024, negative
// = unbounded). See NewPipeline.
func WithResolveQueue(n int) Option { return func(c *config) { c.resolveQueue = n } }

// Progress is one streaming notification emitted through WithProgress.
type Progress = solver.Progress

// Objective defines what a schedule is worth: an interval-decomposable
// fold over per-user attendance terms. Select one with WithObjective;
// see Omega, AttendanceObjective and FairnessObjective.
type Objective = choice.Objective

// Omega is the default objective: the paper's expected total
// attendance Ω (Eq. 3).
var Omega = choice.Omega

// AttendanceObjective returns the thresholded success-probability
// objective (after the authors' SEP follow-up): a user's expected
// attendance counts only once their probability of going out to the
// interval's scheduled events reaches theta. theta must be in [0, 1].
func AttendanceObjective(theta float64) (Objective, error) { return choice.NewAttendance(theta) }

// FairnessObjective returns the egalitarian objective (after the
// authors' fair virtual-conference scheduling line): each interval's
// value blends total attendance with blend·n·min participant share.
// blend must be in [0, 1]; 0 degenerates to Omega.
func FairnessObjective(blend float64) (Objective, error) { return choice.NewFairness(blend) }

// ParseObjective resolves an objective spec ("omega", "attendance",
// "attendance:0.25", "fairness", "fairness:0.8"; "" means omega) —
// the form used by the sessolve/sesd surfaces and stored in
// snapshots.
func ParseObjective(spec string) (Objective, error) { return choice.ParseObjective(spec) }

// ObjectiveNames lists the registered objective families.
func ObjectiveNames() []string { return choice.ObjectiveNames() }
