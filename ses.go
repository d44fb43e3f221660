package ses

import (
	"ses/internal/activity"
	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/dataset"
	"ses/internal/ebsn"
	"ses/internal/interest"
	"ses/internal/sim"
	"ses/internal/solver"
)

// Problem model (see ses/internal/core).
type (
	// Instance is a complete SES problem instance.
	Instance = core.Instance
	// Event is a candidate event with a location and resource needs.
	Event = core.Event
	// CompetingEvent is a third-party event pinned to an interval.
	CompetingEvent = core.CompetingEvent
	// Schedule is a feasible set of event→interval assignments.
	Schedule = core.Schedule
	// Assignment is one event→interval pair.
	Assignment = core.Assignment
	// Activity models σ(user, interval).
	Activity = core.Activity
)

// Solving (see ses/internal/solver).
type (
	// Solver finds a feasible schedule of up to k events maximizing
	// expected attendance. Solve takes a context: cancellation is
	// observed promptly by every algorithm, and a deadline makes the
	// anytime algorithms (grd, grdlazy, localsearch) return their
	// feasible best-so-far with Result.Stopped set.
	Solver = solver.Solver
	// Result is a solver outcome: schedule, utility, work counters
	// and the early-stop reason (if any).
	Result = solver.Result
	// Counters records the work a solver or session performed.
	Counters = solver.Counters
	// SolverConfig carries the cross-cutting solver options: the
	// choice-engine factory, the number of goroutines used for
	// initial scoring (Workers; 0 = GOMAXPROCS, 1 = serial) and the
	// progress callback. Results are byte-identical regardless of
	// Workers. Most callers should use New with functional options
	// instead of building one directly.
	SolverConfig = solver.Config
)

// StoppedDeadline is the Result.Stopped (and Delta.Stopped) reason
// set when an anytime solve returned its best-so-far because the
// context deadline expired.
const StoppedDeadline = solver.StoppedDeadline

// New returns a solver by name — any name in SolverNames() —
// configured by functional options:
//
//	s, err := ses.New("grd", ses.WithWorkers(8), ses.WithProgress(logFn))
//	res, err := s.Solve(ctx, inst, k)
//
// The randomized algorithm (rand) takes its seed from WithSeed; the
// others ignore it.
func New(name string, opts ...Option) (Solver, error) {
	c := resolve(opts)
	return solver.NewWith(name, c.seed, c.solverConfig())
}

// Data generation (see ses/internal/ebsn and ses/internal/dataset).
type (
	// EBSNConfig parameterizes the synthetic Meetup-like network.
	EBSNConfig = ebsn.Config
	// Dataset is a generated EBSN snapshot.
	Dataset = ebsn.Dataset
	// PaperParams are the experiment parameters of the paper's
	// Section IV-A; zero values take the paper's defaults.
	PaperParams = dataset.PaperParams
	// TagSet is a sorted set of interest tags.
	TagSet = interest.TagSet
	// SocialConfig parameterizes friendship-graph generation.
	SocialConfig = ebsn.SocialConfig
	// SocialGraph is an undirected friendship graph over a dataset's
	// users; build one with Dataset.GenerateSocialGraph and blend it
	// into interest with Dataset.SocialInterestFor.
	SocialGraph = ebsn.SocialGraph
)

// Unassigned marks an event that is not part of a schedule.
const Unassigned = core.Unassigned

// NewSchedule returns an empty schedule for the instance.
func NewSchedule(inst *Instance) *Schedule { return core.NewSchedule(inst) }

// SolverNames lists the registered solver names.
func SolverNames() []string { return solver.Names() }

// Utility computes Ω(S) (Eq. 3): the total expected attendance of the
// schedule.
func Utility(inst *Instance, s *Schedule) float64 {
	return choice.ReferenceUtility(inst, s)
}

// EventAttendance computes ω (Eq. 2): the expected attendance of
// scheduled event e. Returns 0 for unscheduled events.
func EventAttendance(inst *Instance, s *Schedule, e int) float64 {
	return choice.ReferenceEventAttendance(inst, s, e)
}

// AttendanceProb computes ρ (Eq. 1): the probability that user u
// attends scheduled event e.
func AttendanceProb(inst *Instance, s *Schedule, u, e int) float64 {
	return choice.ReferenceAttendanceProb(inst, s, u, e)
}

// GenerateEBSN builds a synthetic Meetup-like dataset; zero config
// fields take Meetup-California-scale defaults (42,444 users, 16K
// events).
func GenerateEBSN(cfg EBSNConfig) (*Dataset, error) { return ebsn.Generate(cfg) }

// BuildInstance samples a problem instance from the dataset using the
// paper's experimental parameters.
func BuildInstance(ds *Dataset, p PaperParams) (*Instance, error) {
	return dataset.BuildInstance(ds, p)
}

// UniformActivity returns the σ ~ U(0,1) model used in the paper's
// experiments, keyed by seed.
func UniformActivity(seed uint64) Activity { return activity.UniformHash{Seed: seed} }

// ConstantActivity returns a σ model that is p everywhere.
func ConstantActivity(p float64) Activity { return activity.Constant(p) }

// TableActivity wraps an explicit σ matrix indexed [user][interval];
// every entry must lie in [0,1].
func TableActivity(p [][]float64) (Activity, error) { return activity.NewTable(p) }

// Simulation (see ses/internal/sim).
type (
	// SimConfig controls the Monte Carlo attendance simulator.
	SimConfig = sim.Config
	// SimOutcome aggregates realized attendances across simulation
	// runs: per-event and total summaries, defections to competing
	// events, and stay-at-home counts.
	SimOutcome = sim.Outcome
)

// Simulate realizes the schedule's attendance cfg.Runs times by
// drawing each user's activity (Bernoulli σ) and event choice (Luce
// over µ). The mean outcome converges to the analytical Ω/ω; the
// spread quantifies attendance risk that expectations alone hide.
func Simulate(inst *Instance, s *Schedule, cfg SimConfig) (*SimOutcome, error) {
	return sim.Simulate(inst, s, cfg)
}

// CheckIn is one observed outing: a user was out during a recurring
// time slot (e.g. an hour-of-week bucket) of some observation period.
type CheckIn = ebsn.CheckIn

// CheckInConfig parameterizes the synthetic check-in history
// generator.
type CheckInConfig = ebsn.CheckInConfig

// GenerateCheckIns simulates a check-in history for exercising the
// σ-estimation path the paper suggests ("estimated by examining the
// user's past behavior"). The second return value is the generating
// ground truth, for measuring estimator accuracy.
func GenerateCheckIns(cfg CheckInConfig) ([]CheckIn, [][]float64, error) {
	log, truth, err := ebsn.GenerateCheckIns(cfg)
	if err != nil {
		return nil, nil, err
	}
	return log, truth.Prob, nil
}

// EstimateActivity turns a check-in history into a σ model: the
// Laplace-smoothed per-slot outing frequency (pseudo-count alpha) over
// `periods` observation periods, mapped onto instance intervals via
// slotOfInterval (interval t happens during recurring slot
// slotOfInterval[t]).
func EstimateActivity(checkins []CheckIn, numUsers, numSlots, periods int, alpha float64, slotOfInterval []int) (Activity, error) {
	est, err := activity.NewEstimator(numUsers, numSlots, periods, alpha)
	if err != nil {
		return nil, err
	}
	for _, c := range checkins {
		if err := est.Observe(c.User, c.Slot); err != nil {
			return nil, err
		}
	}
	return est.Activity(slotOfInterval)
}

// Jaccard computes the Jaccard similarity of two tag sets, the paper's
// likeness function.
func Jaccard(a, b TagSet) float64 { return interest.Jaccard(a, b) }

// NewTagSet sorts and deduplicates tags into a TagSet.
func NewTagSet(tags []int32) TagSet { return interest.NewTagSet(tags) }
