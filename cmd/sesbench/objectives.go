package main

import (
	"context"
	"fmt"
	"io"
	"testing"

	"ses/internal/choice"
	"ses/internal/dataset"
)

// This file implements `sesbench -fig objectives`: microbenchmarks of
// the operations the solvers actually pay for — Score (Eq. 4),
// Unapply+Apply (incremental schedule maintenance) and IntervalUtility
// (Eq. 3 per interval) — on the Sparse engine under each registered
// objective, pricing the objective indirection (the omega rows) and
// the thresholded and nonlinear folds.

// microBench is one row of BENCH_objective.json.
type microBench struct {
	Name        string  `json:"name"` // e.g. "Score/omega", "Score/fairness:0.5"
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// microReport is the BENCH_objective.json document. Engine names the
// engine every row ran on.
type microReport struct {
	Users      int          `json:"users"`
	Events     int          `json:"events"`
	Intervals  int          `json:"intervals"`
	Competing  int          `json:"competing"`
	Scheduled  int          `json:"scheduled"`
	Engine     string       `json:"engine"`
	Benchmarks []microBench `json:"benchmarks"`
}

// microOps are the operations every objective is timed on.
var microOps = []string{"Score", "UnapplyApply", "IntervalUtility"}

// benchObjectives times every op on the Sparse engine under every
// registered objective, each engine loaded with k assignments by the
// shared round-robin fill so that it holds the same non-trivial
// scheduled mass as the choice package benchmarks.
func benchObjectives(_ context.Context, out io.Writer, e env) (*microReport, error) {
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
		Engine:    "sparse",
	}
	fmt.Fprintf(out, "objective microbenchmarks (sparse engine): %d users, %d events, %d intervals, %d competing, %d scheduled\n\n",
		inst.NumUsers, nE, nT, len(inst.Competing), k)

	for _, obj := range choice.Objectives() {
		// Unapply+Apply runs on its own engine so that the read-only
		// ops see an untouched schedule.
		eng, applyEng := choice.NewSparse(inst), choice.NewSparse(inst)
		for _, loaded := range []*choice.Sparse{eng, applyEng} {
			loaded.SetObjective(obj)
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
				Name:        op + "/" + obj.Name(),
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

// checkObjectives requires a row with positive ns/op for every op
// under every objective.
func checkObjectives(_ io.Writer, rep *microReport) error {
	ns := make(map[string]float64, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		ns[b.Name] = b.NsPerOp
	}
	for _, obj := range choice.Objectives() {
		for _, op := range microOps {
			if name := op + "/" + obj.Name(); ns[name] <= 0 {
				return fmt.Errorf("microbenchmark artifact: no row %q with positive ns/op", name)
			}
		}
	}
	return nil
}
