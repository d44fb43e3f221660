package main

import (
	"context"
	"fmt"
	"io"
	"testing"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/dataset"
)

// This file implements `sesbench -fig engines` and `-fig objectives`:
// microbenchmarks of the operations the solvers actually pay for —
// Score (Eq. 4), Unapply+Apply (incremental schedule maintenance) and
// IntervalUtility (Eq. 3 per interval). The engines figure compares
// the sorted-accumulator Sparse engine against the paper-faithful
// Dense engine; the objectives figure runs the Sparse engine under
// each registered objective, pricing the objective indirection (the
// omega rows) and the thresholded and nonlinear folds.

// microBench is one row of BENCH_engine.json or BENCH_objective.json.
type microBench struct {
	Name        string  `json:"name"` // e.g. "Score/sparse", "Score/fairness:0.5"
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// microReport is the BENCH_engine.json and BENCH_objective.json
// document. Engine names the one engine every row ran on; the engines
// figure, whose rows differ by engine, leaves it out.
type microReport struct {
	Users      int          `json:"users"`
	Events     int          `json:"events"`
	Intervals  int          `json:"intervals"`
	Competing  int          `json:"competing"`
	Scheduled  int          `json:"scheduled"`
	Engine     string       `json:"engine,omitempty"`
	Benchmarks []microBench `json:"benchmarks"`
}

// microOps are the operations every row label is timed on.
var microOps = []string{"Score", "UnapplyApply", "IntervalUtility"}

// microVariant is one row label and how to build its engine.
type microVariant struct {
	label string
	build func(*core.Instance) choice.Engine
}

// engineVariants are the engines under comparison: the production
// sorted-accumulator engine and the dense paper-faithful baseline.
func engineVariants() []microVariant {
	return []microVariant{
		{"sparse", func(in *core.Instance) choice.Engine { return choice.NewSparse(in) }},
		{"dense", func(in *core.Instance) choice.Engine { return choice.NewDense(in) }},
	}
}

// objectiveVariants are the Sparse engine under each registered
// objective.
func objectiveVariants() []microVariant {
	var vs []microVariant
	for _, obj := range choice.Objectives() {
		vs = append(vs, microVariant{obj.Name(), func(in *core.Instance) choice.Engine {
			eng := choice.NewSparse(in)
			eng.SetObjective(obj)
			return eng
		}})
	}
	return vs
}

func benchEngines(_ context.Context, out io.Writer, e env) (*microReport, error) {
	return benchMicro(out, e, "engine microbenchmarks", "", engineVariants())
}

func benchObjectives(_ context.Context, out io.Writer, e env) (*microReport, error) {
	return benchMicro(out, e, "objective microbenchmarks (sparse engine)", "sparse", objectiveVariants())
}

func checkEngines(_ io.Writer, rep *microReport) error {
	return rep.checkRows(engineVariants())
}

func checkObjectives(_ io.Writer, rep *microReport) error {
	return rep.checkRows(objectiveVariants())
}

// benchMicro times every op on every variant's engine, each loaded
// with k assignments by the shared round-robin fill so that it holds
// the same non-trivial scheduled mass as the choice package
// benchmarks.
func benchMicro(out io.Writer, e env, title, engine string, variants []microVariant) (*microReport, error) {
	const k = 60
	inst, err := dataset.BuildInstance(e.ds, dataset.PaperParams{
		K: k, Intervals: 90, CandidateEvents: 120, Seed: e.seed,
	})
	if err != nil {
		return nil, err
	}
	nE, nT := inst.NumEvents(), inst.NumIntervals
	rep := &microReport{
		Users:     inst.NumUsers,
		Events:    nE,
		Intervals: nT,
		Competing: len(inst.Competing),
		Scheduled: k,
		Engine:    engine,
	}
	fmt.Fprintf(out, "%s: %d users, %d events, %d intervals, %d competing, %d scheduled\n\n",
		title, inst.NumUsers, nE, nT, len(inst.Competing), k)

	for _, v := range variants {
		// Unapply+Apply runs on its own engine so that the read-only
		// ops see an untouched schedule.
		eng, applyEng := v.build(inst), v.build(inst)
		for _, loaded := range []choice.Engine{eng, applyEng} {
			if err := choice.FillRoundRobin(loaded, k); err != nil {
				return nil, err
			}
		}
		victim := applyEng.Schedule().Assignments()[0]
		loops := map[string]func(b *testing.B){
			"Score": func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = eng.Score(i%nE, i%nT)
				}
			},
			"UnapplyApply": func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := applyEng.Unapply(victim.Event); err != nil {
						b.Fatal(err)
					}
					if err := applyEng.Apply(victim.Event, victim.Interval); err != nil {
						b.Fatal(err)
					}
				}
			},
			"IntervalUtility": func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = eng.IntervalUtility(i % nT)
				}
			},
		}
		for _, op := range microOps {
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				loops[op](b)
			})
			row := microBench{
				Name:        op + "/" + v.label,
				NsPerOp:     float64(res.NsPerOp()),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
			}
			rep.Benchmarks = append(rep.Benchmarks, row)
			fmt.Fprintf(out, "%-32s %12.0f ns/op %8d B/op %6d allocs/op\n",
				row.Name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp)
		}
	}
	return rep, nil
}

// checkRows requires a row with positive ns/op for every op on every
// variant.
func (r *microReport) checkRows(variants []microVariant) error {
	ns := make(map[string]float64, len(r.Benchmarks))
	for _, b := range r.Benchmarks {
		ns[b.Name] = b.NsPerOp
	}
	for _, v := range variants {
		for _, op := range microOps {
			if name := op + "/" + v.label; ns[name] <= 0 {
				return fmt.Errorf("microbenchmark artifact: no row %q with positive ns/op", name)
			}
		}
	}
	return nil
}
