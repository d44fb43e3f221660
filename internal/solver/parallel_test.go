package solver

import (
	"context"
	"fmt"
	"testing"

	"ses/internal/sestest"
)

// TestSerialAndParallelAgreeForAllSolvers is the contract of the
// parallel scoring engine: for every registered solver, Workers: 1 and
// Workers: 8 must produce identical schedules, utilities and work
// counters. Parallelism only changes which goroutine evaluates a
// score, never the engine state it is evaluated against, so the
// outputs must match bit-for-bit — not merely within epsilon.
func TestSerialAndParallelAgreeForAllSolvers(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		inst := sestest.Random(sestest.Config{
			Seed: seed, Users: 40, Events: 14, Intervals: 5, Competing: 8,
		})
		const k = 6
		for _, name := range Names() {
			serial, err := NewWith(name, 17, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := NewWith(name, 17, Config{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			a, err := serial.Solve(context.Background(), inst, k)
			if err != nil {
				t.Fatalf("seed %d %s workers=1: %v", seed, name, err)
			}
			b, err := parallel.Solve(context.Background(), inst, k)
			if err != nil {
				t.Fatalf("seed %d %s workers=8: %v", seed, name, err)
			}
			as, bs := a.Schedule.Assignments(), b.Schedule.Assignments()
			if len(as) != len(bs) {
				t.Fatalf("seed %d %s: schedule sizes differ: %d vs %d", seed, name, len(as), len(bs))
			}
			for i := range as {
				if as[i] != bs[i] {
					t.Fatalf("seed %d %s: assignment %d differs: %+v vs %+v", seed, name, i, as[i], bs[i])
				}
			}
			if a.Utility != b.Utility {
				t.Errorf("seed %d %s: utility differs: %v vs %v", seed, name, a.Utility, b.Utility)
			}
			if a.Counters != b.Counters {
				t.Errorf("seed %d %s: counters differ: %+v vs %+v", seed, name, a.Counters, b.Counters)
			}
		}
	}
}

// TestWorkersDefaultAndNegative pins the Config.workers resolution:
// 0 is GOMAXPROCS (at least 1), negatives are serial.
func TestWorkersDefaultAndNegative(t *testing.T) {
	if got := (Config{}).workers(); got < 1 {
		t.Errorf("Config{}.workers() = %d, want >= 1", got)
	}
	if got := (Config{Workers: -3}).workers(); got != 1 {
		t.Errorf("Config{Workers: -3}.workers() = %d, want 1", got)
	}
	if got := (Config{Workers: 5}).workers(); got != 5 {
		t.Errorf("Config{Workers: 5}.workers() = %d, want 5", got)
	}
}

// BenchmarkGRDInitialScoring measures the parallel speedup of the
// worklist build (Algorithm 1 lines 2–4) that dominates GRD's runtime.
// On multi-core hardware the workers=4/8 variants should run ≥ 2×
// faster than workers=1 (the acceptance bar for this refactor); on a
// single-core machine they degrade gracefully to serial speed.
func BenchmarkGRDInitialScoring(b *testing.B) {
	inst := sestest.Random(sestest.Config{
		Seed: 1, Users: 3000, Events: 120, Intervals: 90, Competing: 200,
		Density: 0.2, Resources: 1e9, Locations: 120,
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := DefaultEngine(inst)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var c Counters
				if _, err := scoreMatrix(context.Background(), eng, workers, &c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGRDSolve measures the end-to-end greedy with and without
// parallel initial scoring.
func BenchmarkGRDSolve(b *testing.B) {
	inst := sestest.Random(sestest.Config{
		Seed: 2, Users: 2000, Events: 80, Intervals: 60, Competing: 150,
		Density: 0.2, Resources: 1e9, Locations: 80,
	})
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := NewGRD(Config{Workers: workers})
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(context.Background(), inst, 30); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
