package choice

import (
	"fmt"
	"strconv"
	"strings"
)

// Objective defines what a schedule is worth. Every objective in this
// package is interval-decomposable: the total value of a schedule is
// the sum over intervals of an interval value, and the interval value
// is a fold over the per-user attendance terms (sigma, c, p) — the
// user's activity probability, their aggregated interest in the
// interval's competing events, and their aggregated interest in the
// interval's scheduled events. That shape is exactly what the engines
// already maintain incrementally, so swapping the objective never
// changes the mass bookkeeping, only the fold.
//
// Three folds are supported:
//
//   - Share(sigma, c, p) is one user's contribution to the interval's
//     linear term. It must be 0 when p <= 0 (a user with no scheduled
//     interest contributes nothing — the sparsity the engines exploit)
//     and non-decreasing in p (scheduling more never repels a user).
//   - Gain(sigma, mu, c, p) is the exact change of Share when mass mu
//     joins p: Share(sigma, c, p+mu) - Share(sigma, c, p), computed
//     directly so linear objectives keep the engines' one-pass,
//     row-only Score. It must be 0 when mu == 0.
//   - Combine(sum, min, n) folds the interval's per-user shares into
//     the interval value, given their sum, their minimum over the n
//     users with p > 0 (min = 0 when n == 0). Linear objectives return
//     sum unchanged. Combine(0, 0, 0) must be 0: an empty interval is
//     worth nothing, and engines short-circuit it.
//
// Linear reports whether Combine is the identity on sum; engines use
// it to pick the row-only Score fast path. Submodular reports whether
// per-interval marginal gains are non-increasing as the schedule
// grows; the exact solver's admissible prune and GRDLazy's CELF
// equivalence to GRD are only valid when it holds.
//
// Objectives must be immutable and safe for concurrent use: engine
// forks share them across scoring workers.
type Objective interface {
	// Name returns the canonical, parseable spec of the objective
	// (e.g. "omega", "attendance:0.5"); ParseObjective(Name()) must
	// reconstruct an equivalent objective. It is the form stored in
	// session state and snapshots.
	Name() string
	// Share is one user's contribution to the interval's linear term
	// at (sigma, c, p); 0 when p <= 0.
	Share(sigma, c, p float64) float64
	// Gain is the change of Share when mass mu joins p; 0 when mu == 0.
	Gain(sigma, mu, c, p float64) float64
	// Combine folds (sum, min over the n users with p > 0) into the
	// interval value; linear objectives return sum.
	Combine(sum, min float64, n int) float64
	// Linear reports whether Combine(sum, min, n) == sum for all
	// inputs, enabling the row-only Score fast path.
	Linear() bool
	// Submodular reports whether per-interval marginal gains are
	// non-increasing in the schedule (diminishing returns).
	Submodular() bool
}

// Omega is the default objective: the SES paper's expected total
// attendance Ω (Eq. 3), whose per-user interval term is Luce's share
// σ·P/(C+P) and whose assignment score is Eq. 4. It is linear and
// per-interval submodular; with Omega selected the engines follow
// exactly the pre-objective-layer code paths, bit for bit.
var Omega Objective = omegaObjective{}

// omegaObjective implements Omega on the shared luceGain/luceShare
// kernels, so every engine agrees with the pre-objective-layer
// arithmetic bit for bit.
type omegaObjective struct{}

func (omegaObjective) Name() string                          { return "omega" }
func (omegaObjective) Share(sigma, c, p float64) float64     { return luceShare(sigma, c, p) }
func (omegaObjective) Gain(sigma, mu, c, p float64) float64  { return luceGain(sigma, mu, c, p) }
func (omegaObjective) Combine(sum, _ float64, _ int) float64 { return sum }
func (omegaObjective) Linear() bool                          { return true }
func (omegaObjective) Submodular() bool                      { return true }

// DefaultAttendanceTheta is the success threshold the "attendance"
// registry spec uses when none is given.
const DefaultAttendanceTheta = 0.5

// DefaultFairnessBlend is the blend weight the "fairness" registry
// spec uses when none is given.
const DefaultFairnessBlend = 0.5

// Attendance is the thresholded success-probability objective modeled
// on the authors' SEP follow-up ("Attendance Maximization for
// Successful Social Event Planning"): an interval only earns a user's
// expected attendance once the user's probability of going out to one
// of its scheduled events — the Luce ratio P/(C+P) — reaches the
// success threshold θ. Below the threshold the user is treated as a
// no-show risk and contributes nothing, so solvers are pushed to
// concentrate interest until events clear the bar instead of smearing
// attendance thinly.
//
// Attendance is linear (the interval value is the plain sum of
// thresholded shares) but not submodular: a user's term jumps from 0
// to σ·P/(C+P) when an added event lifts them over θ, so marginal
// gains can grow with the schedule.
type Attendance struct {
	// Theta is the success threshold in [0, 1]; 0 reduces to Omega's
	// behavior on users with any scheduled interest.
	Theta float64
}

// NewAttendance returns the thresholded attendance objective. Theta
// outside [0, 1] is an error.
func NewAttendance(theta float64) (Attendance, error) {
	if theta < 0 || theta > 1 || theta != theta {
		return Attendance{}, fmt.Errorf("choice: attendance threshold %v outside [0,1]", theta)
	}
	return Attendance{Theta: theta}, nil
}

// Name returns "attendance:<theta>".
func (a Attendance) Name() string { return "attendance:" + formatParam(a.Theta) }

// Share is σ·P/(C+P) once P/(C+P) ≥ θ, else 0.
func (a Attendance) Share(sigma, c, p float64) float64 {
	if p <= 0 || sigma == 0 {
		return 0
	}
	r := p / (c + p)
	if r < a.Theta {
		return 0
	}
	return sigma * r
}

// Gain is the exact Share delta when mass mu joins p.
func (a Attendance) Gain(sigma, mu, c, p float64) float64 {
	if mu == 0 || sigma == 0 {
		return 0
	}
	return a.Share(sigma, c, p+mu) - a.Share(sigma, c, p)
}

// Combine returns sum: the interval value is the plain thresholded sum.
func (a Attendance) Combine(sum, _ float64, _ int) float64 { return sum }

// Linear reports true.
func (a Attendance) Linear() bool { return true }

// Submodular reports false: clearing θ makes gains jump.
func (a Attendance) Submodular() bool { return false }

// Fairness is the egalitarian objective modeled on the authors'
// "Scheduling Virtual Conferences Fairly" line of work: the interval
// value blends total attendance with a leximin-flavored term that
// rewards lifting the worst-off participant,
//
//	(1-λ)·Σ share  +  λ·n·min share,
//
// where the min and the count n range over the interval's
// participants (users with scheduled interest p > 0) and share is
// Luce's σ·P/(C+P). λ = 0 degenerates to Ω; λ = 1 scores an interval
// purely by its worst participant (scaled by n so the two terms stay
// commensurate — sum ≈ n·mean). The blend is linear in λ, so the
// fairness term of a schedule can be read off as its value under
// Fairness{1}.
//
// Fairness is neither linear (the min is not a per-user sum) nor
// submodular, and it is not monotone: a newly attracted participant
// with a tiny share can drop n·min, so assignment scores may be
// negative and the value-optimal schedule may have fewer than k
// events. The exact solver returns that smaller optimum; the
// constructive heuristics (grd, top, ...) keep their fill-to-k
// contract and apply the least-bad assignment when every remaining
// score is negative.
type Fairness struct {
	// Blend is λ in [0, 1]: the weight of the min-participant term.
	Blend float64
}

// NewFairness returns the egalitarian blend objective. Blend outside
// [0, 1] is an error.
func NewFairness(blend float64) (Fairness, error) {
	if blend < 0 || blend > 1 || blend != blend {
		return Fairness{}, fmt.Errorf("choice: fairness blend %v outside [0,1]", blend)
	}
	return Fairness{Blend: blend}, nil
}

// Name returns "fairness:<blend>".
func (f Fairness) Name() string { return "fairness:" + formatParam(f.Blend) }

// Share is Luce's σ·P/(C+P), the same linear term as Omega.
func (f Fairness) Share(sigma, c, p float64) float64 { return luceShare(sigma, c, p) }

// Gain is the linear-term delta (engines do not use it for fairness —
// the objective is nonlinear — but the contract holds regardless).
func (f Fairness) Gain(sigma, mu, c, p float64) float64 { return luceGain(sigma, mu, c, p) }

// Combine blends the sum with the scaled minimum share.
func (f Fairness) Combine(sum, min float64, n int) float64 {
	return (1-f.Blend)*sum + f.Blend*float64(n)*min
}

// Linear reports false: the min term is not a per-user sum.
func (f Fairness) Linear() bool { return false }

// Submodular reports false.
func (f Fairness) Submodular() bool { return false }

// formatParam renders an objective parameter in the shortest exact
// form, so Name() round-trips through ParseObjective.
func formatParam(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// objFold accumulates one interval's per-user shares into the
// (sum, min, n) triple a nonlinear Combine consumes. All engines fold
// through it so the empty-interval rule and the min bookkeeping live
// in exactly one place; it is a value type and inlines to the same
// allocation-free code as the hand-written loops it replaced.
type objFold struct {
	sum, min float64
	n        int
}

// add folds one participant's share.
func (f *objFold) add(share float64) {
	f.sum += share
	if f.n == 0 || share < f.min {
		f.min = share
	}
	f.n++
}

// value combines the fold under obj (min is 0 when no participant was
// added, per the Combine contract).
func (f *objFold) value(obj Objective) float64 {
	return obj.Combine(f.sum, f.min, f.n)
}

// objectiveHolder carries an engine's objective and the cached
// linearity flag; Sparse and Ref embed it so Objective/SetObjective
// (and fork inheritance) behave identically in both.
type objectiveHolder struct {
	obj    Objective
	linear bool
}

// omegaHolder is the holder every engine constructor starts from.
func omegaHolder() objectiveHolder { return objectiveHolder{obj: Omega, linear: true} }

// Objective returns the engine's objective (Omega by default).
func (h *objectiveHolder) Objective() Objective {
	if h.obj == nil {
		return Omega
	}
	return h.obj
}

// SetObjective switches the engine to obj (nil restores Omega).
func (h *objectiveHolder) SetObjective(obj Objective) {
	if obj == nil {
		obj = Omega
	}
	h.obj = obj
	h.linear = obj.Linear()
}

// ObjectiveNames lists the registered objective families in a stable
// order; each is a valid ParseObjective spec selecting the family's
// default parameters.
func ObjectiveNames() []string { return []string{"omega", "attendance", "fairness"} }

// Objectives returns one canonical instance per registered family
// (default parameters), in ObjectiveNames order. The differential and
// metamorphic test suites iterate it so every registered objective is
// covered automatically.
func Objectives() []Objective {
	att, _ := NewAttendance(DefaultAttendanceTheta)
	fair, _ := NewFairness(DefaultFairnessBlend)
	return []Objective{Omega, att, fair}
}

// ParseObjective resolves an objective spec: a family name from
// ObjectiveNames, optionally followed by ":<param>" (the attendance
// threshold θ, the fairness blend λ). "" selects Omega, the default.
//
//	omega
//	attendance        attendance:0.25
//	fairness          fairness:0.8
func ParseObjective(spec string) (Objective, error) {
	name, param, hasParam := strings.Cut(spec, ":")
	var val float64
	if hasParam {
		v, err := strconv.ParseFloat(param, 64)
		if err != nil {
			return nil, fmt.Errorf("choice: bad objective parameter in %q: %v", spec, err)
		}
		val = v
	}
	switch name {
	case "", "omega":
		if hasParam {
			return nil, fmt.Errorf("choice: objective %q takes no parameter", "omega")
		}
		return Omega, nil
	case "attendance":
		if !hasParam {
			val = DefaultAttendanceTheta
		}
		return NewAttendance(val)
	case "fairness":
		if !hasParam {
			val = DefaultFairnessBlend
		}
		return NewFairness(val)
	default:
		return nil, fmt.Errorf("choice: unknown objective %q (known: %v)", spec, ObjectiveNames())
	}
}
