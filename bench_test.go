// Benchmarks mirroring the paper's evaluation (Fig. 1a–1d) plus the
// ablations called out in DESIGN.md.
//
// Every figure panel has a bench family whose sub-benchmarks are the
// series points. ns/op is the running-time series (Fig. 1b/1d); the
// custom "utility" metric is the utility series (Fig. 1a/1c); the
// "scheduled" metric shows how many events each solver actually
// placed. Benches run on a reduced-scale dataset (8K of the paper's
// 42,444 users) so `go test -bench=.` completes in minutes; the
// cmd/sesbench harness reproduces the figures at full Meetup scale.
package ses_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ses"
	"ses/internal/choice"
	"ses/internal/solver"
)

var (
	benchDSOnce sync.Once
	benchDS     *ses.Dataset
)

// benchDataset generates the shared bench-scale EBSN snapshot.
func benchDataset(b *testing.B) *ses.Dataset {
	b.Helper()
	benchDSOnce.Do(func() {
		ds, err := ses.GenerateEBSN(ses.EBSNConfig{
			Seed:      99,
			NumUsers:  8000,
			NumEvents: 4096,
			NumTags:   3000,
			NumGroups: 300,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchDS = ds
	})
	return benchDS
}

// benchInstance builds one paper-parameter instance.
func benchInstance(b *testing.B, k, intervals int) *ses.Instance {
	b.Helper()
	inst, err := ses.BuildInstance(benchDataset(b), ses.PaperParams{
		K:         k,
		Intervals: intervals,
		Seed:      uint64(k*1000 + intervals),
	})
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// benchSolvers are the paper's three methods.
func benchSolvers(b *testing.B, seed uint64) map[string]ses.Solver {
	return map[string]ses.Solver{
		"grd":  mustSolver(b, "grd"),
		"top":  mustSolver(b, "top"),
		"rand": mustSolver(b, "rand", ses.WithSeed(seed)),
	}
}

// runSolver is the common bench body: repeated solves with utility
// and schedule size reported as custom metrics.
func runSolver(b *testing.B, inst *ses.Instance, s ses.Solver, k int) {
	b.Helper()
	b.ResetTimer()
	var res *ses.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = s.Solve(context.Background(), inst, k)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.Utility, "utility")
	b.ReportMetric(float64(res.Schedule.Size()), "scheduled")
}

// BenchmarkFig1a_UtilityVsK is the Fig. 1a/1b sweep: vary the number
// of scheduled events k with |T| = 3k/2 and |E| = 2k. The "utility"
// metric reproduces Fig. 1a; ns/op reproduces Fig. 1b.
func BenchmarkFig1a_UtilityVsK(b *testing.B) {
	for _, k := range []int{50, 100, 200} {
		inst := benchInstance(b, k, 3*k/2)
		for name, s := range benchSolvers(b, uint64(k)) {
			b.Run(fmt.Sprintf("k=%d/%s", k, name), func(b *testing.B) {
				runSolver(b, inst, s, k)
			})
		}
	}
}

// BenchmarkFig1c_UtilityVsT is the Fig. 1c/1d sweep: k fixed at the
// paper default 100, |T| varied from k/5 to 3k. The "utility" metric
// reproduces Fig. 1c; ns/op reproduces Fig. 1d.
func BenchmarkFig1c_UtilityVsT(b *testing.B) {
	const k = 100
	for _, t := range []int{20, 50, 100, 150, 300} {
		inst := benchInstance(b, k, t)
		for name, s := range benchSolvers(b, uint64(t)) {
			b.Run(fmt.Sprintf("T=%d/%s", t, name), func(b *testing.B) {
				runSolver(b, inst, s, k)
			})
		}
	}
}

// BenchmarkAblationLazyGreedy compares the paper's eager list-scan GRD
// against the CELF-style lazy-heap variant (identical output).
func BenchmarkAblationLazyGreedy(b *testing.B) {
	const k = 100
	inst := benchInstance(b, k, 3*k/2)
	b.Run("grd-eager-list", func(b *testing.B) { runSolver(b, inst, mustSolver(b, "grd"), k) })
	b.Run("grd-lazy-heap", func(b *testing.B) { runSolver(b, inst, mustSolver(b, "grdlazy"), k) })
}

// BenchmarkAblationEngine compares the sparse production engine with
// the paper-faithful dense O(|U|)-per-score engine, via GRD on a small
// instance (the dense engine's cost is dominated by |U| = 8000).
func BenchmarkAblationEngine(b *testing.B) {
	const k = 20
	ds := benchDataset(b)
	inst, err := ses.BuildInstance(ds, ses.PaperParams{
		K: k, Intervals: 30, CandidateEvents: 40, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sparse", func(b *testing.B) {
		s := solver.NewGRD(solver.Config{})
		runSolverInternal(b, inst, s, k)
	})
	b.Run("dense", func(b *testing.B) {
		s := solver.NewGRD(solver.Config{Engine: solver.DenseEngine})
		runSolverInternal(b, inst, s, k)
	})
}

func runSolverInternal(b *testing.B, inst *ses.Instance, s solver.Solver, k int) {
	b.Helper()
	b.ResetTimer()
	var res *solver.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = s.Solve(context.Background(), inst, k)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.Utility, "utility")
}

// BenchmarkAblationTOPVariants quantifies how much of TOP's weakness
// comes from discarding invalid top-k picks (paper TOP) versus from
// stale scores alone (TOPFill walks the list until k valid picks).
func BenchmarkAblationTOPVariants(b *testing.B) {
	const k = 100
	inst := benchInstance(b, k, 3*k/2)
	b.Run("top-paper", func(b *testing.B) { runSolver(b, inst, mustSolver(b, "top"), k) })
	b.Run("top-fill", func(b *testing.B) { runSolver(b, inst, mustSolver(b, "topfill"), k) })
}

// BenchmarkAblationRefinement measures what hill climbing adds on top
// of the constructive greedy.
func BenchmarkAblationRefinement(b *testing.B) {
	const k = 40
	ds := benchDataset(b)
	inst, err := ses.BuildInstance(ds, ses.PaperParams{
		K: k, Intervals: 60, CandidateEvents: 80, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("grd", func(b *testing.B) { runSolver(b, inst, mustSolver(b, "grd"), k) })
	b.Run("grd+localsearch", func(b *testing.B) { runSolver(b, inst, mustSolver(b, "localsearch"), k) })
}

// BenchmarkScoreComputation isolates one Eq. 4 evaluation — the unit
// the paper's complexity analysis counts — on both engines.
func BenchmarkScoreComputation(b *testing.B) {
	inst := benchInstance(b, 100, 150)
	b.Run("sparse", func(b *testing.B) {
		eng := choice.NewSparse(inst)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = eng.Score(i%inst.NumEvents(), i%inst.NumIntervals)
		}
	})
	b.Run("dense", func(b *testing.B) {
		eng := choice.NewDense(inst)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = eng.Score(i%inst.NumEvents(), i%inst.NumIntervals)
		}
	})
}

// BenchmarkInstanceBuild measures dataset→instance assembly (inverted
// index probing + interest matrices), which the harness excludes from
// solver timings.
func BenchmarkInstanceBuild(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ses.BuildInstance(ds, ses.PaperParams{K: 50, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
