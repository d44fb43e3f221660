package choice

import (
	"math"
	"testing"

	"ses/internal/sestest"
)

// FuzzEngineOps is the generative differential test: a random
// Apply/Unapply/Score/ScoreBatch/IntervalUtility/Utility/Fork/Reset
// sequence decoded from the fuzz bytes drives Sparse, Dense and
// Pruned in lockstep with the Ref oracle, for every
// registered objective. Every observable quantity must stay within 1e-9 of the
// oracle and every mutation must succeed or fail identically — the
// generative extension of the fixed-case epsilon tests.
//
// Caveat on the attendance objective: its Share has a hard threshold
// at P/(C+P) = θ, so if a user's ratio ever landed within a few ulps
// of θ, the incremental engines (whose P carries accumulation-order
// rounding) and the from-definitions oracle could disagree by a full
// σ·θ. The fixed seed-42 instance draws continuous random masses, so
// no reachable subset sum sits on the boundary; if this fuzz ever
// reports an attendance-only mismatch of ≈ σ·θ, check for a ratio at
// the threshold before suspecting the engines.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 4, 0, 0, 3, 1, 0})
	f.Add([]byte{0, 3, 1, 0, 3, 2, 1, 3, 0, 5, 3, 0, 2, 4, 1, 6, 0, 1})
	f.Add([]byte{0, 1, 0, 7, 0, 0, 0, 1, 1, 0, 8, 0, 0, 0, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxOps = 60
		if len(ops) > 3*maxOps {
			ops = ops[:3*maxOps]
		}
		inst := sestest.Random(sestest.Config{
			Users: 15, Events: 8, Intervals: 3, Competing: 3, Seed: 42,
		})
		nE, nT := inst.NumEvents(), inst.NumIntervals
		for _, obj := range Objectives() {
			oracle := Engine(NewRef(inst))
			oracle.SetObjective(obj)
			engines := map[string]Engine{
				"sparse": NewSparse(inst),
				"dense":  NewDense(inst),
				// k = 4 forces real head/tail splits on the 15-user
				// instance, so the O(k) fast path and the frozen-tail
				// cache are both exercised differentially.
				"pruned": NewPruned(inst, 4),
			}
			for _, eng := range engines {
				eng.SetObjective(obj)
			}
			check := func(op string, got, want float64) {
				t.Helper()
				if math.Abs(got-want) > 1e-9 || math.IsNaN(got) != math.IsNaN(want) {
					t.Fatalf("%s under %s: got %v, oracle %v", op, obj.Name(), got, want)
				}
			}
			for i := 0; i+2 < len(ops); i += 3 {
				code, a, b := ops[i]%9, int(ops[i+1]), int(ops[i+2])
				e, ti := a%nE, b%nT
				switch code {
				case 0: // Apply
					wantErr := oracle.Apply(e, ti)
					for name, eng := range engines {
						if err := eng.Apply(e, ti); (err == nil) != (wantErr == nil) {
							t.Fatalf("%s: Apply(%d,%d) err %v, oracle err %v", name, e, ti, err, wantErr)
						}
					}
				case 1: // Unapply
					wantErr := oracle.Unapply(e)
					for name, eng := range engines {
						if err := eng.Unapply(e); (err == nil) != (wantErr == nil) {
							t.Fatalf("%s: Unapply(%d) err %v, oracle err %v", name, e, err, wantErr)
						}
					}
				case 2: // Score (meaningful only for unassigned events)
					if oracle.Schedule().Contains(e) {
						continue
					}
					want := oracle.Score(e, ti)
					for name, eng := range engines {
						check(name+".Score", eng.Score(e, ti), want)
					}
				case 3: // IntervalUtility
					want := oracle.IntervalUtility(ti)
					for name, eng := range engines {
						check(name+".IntervalUtility", eng.IntervalUtility(ti), want)
					}
				case 4: // Utility
					want := oracle.Utility()
					for name, eng := range engines {
						check(name+".Utility", eng.Utility(), want)
					}
				case 5: // EventAttendance
					want := oracle.EventAttendance(e)
					for name, eng := range engines {
						check(name+".EventAttendance", eng.EventAttendance(e), want)
					}
				case 6: // ScoreBatch over all unassigned events
					var events []int
					for ev := 0; ev < nE; ev++ {
						if !oracle.Schedule().Contains(ev) {
							events = append(events, ev)
						}
					}
					if len(events) == 0 {
						continue
					}
					want := make([]float64, len(events))
					oracle.ScoreBatch(events, ti, want)
					got := make([]float64, len(events))
					for name, eng := range engines {
						eng.ScoreBatch(events, ti, got)
						for j := range events {
							check(name+".ScoreBatch", got[j], want[j])
						}
					}
				case 7: // Fork: continue the run on independent copies
					oracle = oracle.Fork()
					for name, eng := range engines {
						engines[name] = eng.Fork()
					}
				case 8: // Reset (all engines implement Reuser)
					oracle.(Reuser).Reset()
					for _, eng := range engines {
						eng.(Reuser).Reset()
					}
				}
			}
			// Final cross-check: value of the whole schedule plus the
			// objective-independent Ω.
			for name, eng := range engines {
				check(name+".finalUtility", eng.Utility(), oracle.Utility())
				check(name+".finalOmega", eng.ValueOf(Omega), oracle.ValueOf(Omega))
			}
		}
	})
}
