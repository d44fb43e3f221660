package choice

import (
	"testing"

	"ses/internal/core"
	"ses/internal/sestest"
)

// Benchmarks comparing the sorted-accumulator Sparse engine against
// the dense baseline on the three operations solvers pay for. Run with -benchmem: the headline
// of the accumulator rewrite is that Score and IntervalUtility are
// allocation-free and Apply/Unapply stop allocating once the scratch
// buffers have grown.

// benchEngineInstance is large enough that per-op costs dominate.
func benchEngineInstance() *core.Instance {
	return sestest.Random(sestest.Config{
		Seed: 7, Users: 2000, Events: 80, Intervals: 40, Competing: 120,
		Density: 0.25, Resources: 1e9, Locations: 80,
	})
}

// loadBench applies assignments round-robin so scheduled mass is
// non-trivial in every interval.
func loadBench(b *testing.B, eng Engine, k int) {
	b.Helper()
	if err := FillRoundRobin(eng, k); err != nil {
		b.Fatal(err)
	}
}

func benchEngines(inst *core.Instance) map[string]Engine {
	return map[string]Engine{
		"sparse": NewSparse(inst),
		"dense":  NewDense(inst),
	}
}

func BenchmarkEngineScore(b *testing.B) {
	inst := benchEngineInstance()
	for name, eng := range benchEngines(inst) {
		loadBench(b, eng, 40)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = eng.Score(i%inst.NumEvents(), i%inst.NumIntervals)
			}
		})
	}
}

func BenchmarkEngineApplyUnapply(b *testing.B) {
	inst := benchEngineInstance()
	for name, eng := range benchEngines(inst) {
		loadBench(b, eng, 40)
		victim := eng.Schedule().Assignments()[0]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := eng.Unapply(victim.Event); err != nil {
					b.Fatal(err)
				}
				if err := eng.Apply(victim.Event, victim.Interval); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineIntervalUtility(b *testing.B) {
	inst := benchEngineInstance()
	for name, eng := range benchEngines(inst) {
		loadBench(b, eng, 40)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = eng.IntervalUtility(i % inst.NumIntervals)
			}
		})
	}
}
