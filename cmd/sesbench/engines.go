package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/dataset"
	"ses/internal/ebsn"
)

// This file implements `sesbench -fig engines`: microbenchmarks of the
// choice engines on the operations the solvers actually pay for —
// Score (Eq. 4), Apply+Unapply (incremental schedule maintenance) and
// IntervalUtility (Eq. 3 per interval) — comparing the
// sorted-accumulator Sparse engine against the paper-faithful Dense
// engine. Results go to stdout and to a JSON file so regressions are
// diffable across commits.

// engineBench is one benchmark row of BENCH_engine.json.
type engineBench struct {
	Name        string  `json:"name"`      // e.g. "Score/sparse"
	NsPerOp     float64 `json:"ns_per_op"` //
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// engineReport is the BENCH_engine.json document.
type engineReport struct {
	Users      int           `json:"users"`
	Events     int           `json:"events"`
	Intervals  int           `json:"intervals"`
	Competing  int           `json:"competing"`
	Scheduled  int           `json:"scheduled"`
	Benchmarks []engineBench `json:"benchmarks"`
}

// engineFactories lists the engines under comparison: the production
// sorted-accumulator engine and the dense paper-faithful baseline.
func engineFactories() []struct {
	name  string
	build func(*core.Instance) choice.Engine
} {
	return []struct {
		name  string
		build func(*core.Instance) choice.Engine
	}{
		{"sparse", func(in *core.Instance) choice.Engine { return choice.NewSparse(in) }},
		{"dense", func(in *core.Instance) choice.Engine { return choice.NewDense(in) }},
	}
}

// loadEngine fills the engine with k assignments via the shared
// round-robin fill so the benchmarks see the same non-trivial
// scheduled mass as the choice package benchmarks.
func loadEngine(eng choice.Engine, k int) {
	if err := choice.FillRoundRobin(eng, k); err != nil {
		panic(err)
	}
}

// benchEngines runs the engine microbenchmarks and writes the JSON
// report to jsonPath.
func benchEngines(out io.Writer, ds *ebsn.Dataset, seed uint64, jsonPath string) error {
	// Fail fast on an unwritable output path rather than after a
	// minute of benchmarking — without truncating an existing report
	// that a mid-run failure would otherwise destroy.
	probe, err := os.OpenFile(jsonPath, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	probe.Close()

	const k = 60
	inst, err := dataset.BuildInstance(ds, dataset.PaperParams{
		K: k, Intervals: 90, CandidateEvents: 120, Seed: seed,
	})
	if err != nil {
		return err
	}
	report := engineReport{
		Users:     inst.NumUsers,
		Events:    inst.NumEvents(),
		Intervals: inst.NumIntervals,
		Competing: len(inst.Competing),
		Scheduled: k,
	}

	fmt.Fprintf(out, "engine microbenchmarks: %d users, %d events, %d intervals, %d competing, %d scheduled\n\n",
		inst.NumUsers, inst.NumEvents(), inst.NumIntervals, len(inst.Competing), k)

	for _, f := range engineFactories() {
		eng := f.build(inst)
		loadEngine(eng, k)

		score := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = eng.Score(i%inst.NumEvents(), i%inst.NumIntervals)
			}
		})
		applyEng := f.build(inst)
		loadEngine(applyEng, k)
		victim := applyEng.Schedule().Assignments()[0]
		applyBench := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := applyEng.Unapply(victim.Event); err != nil {
					b.Fatal(err)
				}
				if err := applyEng.Apply(victim.Event, victim.Interval); err != nil {
					b.Fatal(err)
				}
			}
		})
		iu := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = eng.IntervalUtility(i % inst.NumIntervals)
			}
		})

		for _, row := range []struct {
			op  string
			res testing.BenchmarkResult
		}{
			{"Score", score},
			{"UnapplyApply", applyBench},
			{"IntervalUtility", iu},
		} {
			bench := engineBench{
				Name:        row.op + "/" + f.name,
				NsPerOp:     float64(row.res.NsPerOp()),
				AllocsPerOp: row.res.AllocsPerOp(),
				BytesPerOp:  row.res.AllocedBytesPerOp(),
			}
			report.Benchmarks = append(report.Benchmarks, bench)
			fmt.Fprintf(out, "%-28s %12.0f ns/op %8d B/op %6d allocs/op\n",
				bench.Name, bench.NsPerOp, bench.BytesPerOp, bench.AllocsPerOp)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nwrote %s\n", jsonPath)
	return nil
}
