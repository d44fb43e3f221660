package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"ses"
	"ses/internal/sestest"
	"ses/internal/tablefmt"
)

// scalingPoint is one GOMAXPROCS setting's measured throughput for
// the two layers the multi-core work targets: the parallel-scoring
// solve (engine) and the pipeline of independent session resolves
// (store).
type scalingPoint struct {
	GoMaxProcs          int     `json:"gomaxprocs"`
	EngineSolvesPerSec  float64 `json:"engine_solves_per_sec"`
	StoreResolvesPerSec float64 `json:"store_resolves_per_sec"`
}

// scalingReport is the BENCH_scaling.json document.
type scalingReport struct {
	host
	Points []scalingPoint `json:"points"`
}

// The CI-enforced curve contract: store resolve throughput at
// storeFloorCores GOMAXPROCS must reach storeFloorX times the 1-core
// figure (only enforced when the host really has that many cores).
const (
	storeFloorCores = 4
	storeFloorX     = 2.0
)

var scalingProcs = []int{1, 2, 4, 8}

// benchScaling measures the engine/store scaling curve over
// GOMAXPROCS 1/2/4/8. quick shrinks the workload for CI smokes.
func benchScaling(ctx context.Context, out io.Writer, e env) (*scalingReport, error) {
	rep := &scalingReport{host: e.host()}
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	for _, procs := range scalingProcs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runtime.GOMAXPROCS(procs)
		pt := scalingPoint{GoMaxProcs: procs}
		var err error
		if pt.EngineSolvesPerSec, err = scaleEngine(ctx, e.seed, e.quick); err != nil {
			return nil, err
		}
		if pt.StoreResolvesPerSec, err = scaleStore(ctx, e.seed, e.quick); err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, pt)
		fmt.Fprintf(out, "GOMAXPROCS=%d: engine %.1f solves/s, store %.0f resolves/s\n",
			procs, pt.EngineSolvesPerSec, pt.StoreResolvesPerSec)
	}
	return rep, nil
}

// checkScaling validates a curve artifact: the schema (one point per
// GOMAXPROCS in scalingProcs, positive figures) always, and the
// store-scaling floor when the artifact was measured on a host with
// enough cores for the floor to be physical.
func checkScaling(out io.Writer, rep *scalingReport) error {
	if err := rep.valid(); err != nil {
		return fmt.Errorf("scaling artifact: %w", err)
	}
	if len(rep.Points) != len(scalingProcs) {
		return fmt.Errorf("scaling artifact: %d points, want %d (GOMAXPROCS %v)", len(rep.Points), len(scalingProcs), scalingProcs)
	}
	byProcs := map[int]scalingPoint{}
	for i, pt := range rep.Points {
		if pt.GoMaxProcs != scalingProcs[i] {
			return fmt.Errorf("scaling artifact: point %d has gomaxprocs %d, want %d", i, pt.GoMaxProcs, scalingProcs[i])
		}
		if pt.EngineSolvesPerSec <= 0 || pt.StoreResolvesPerSec <= 0 {
			return fmt.Errorf("scaling artifact: point GOMAXPROCS=%d has a non-positive figure: %+v", pt.GoMaxProcs, pt)
		}
		byProcs[pt.GoMaxProcs] = pt
	}

	tab := &tablefmt.Table{
		Title:  "Scaling curve (throughput vs GOMAXPROCS)",
		Header: []string{"GOMAXPROCS", "engine solves/s", "store resolves/s", "store ×1-core"},
	}
	base := rep.Points[0]
	for _, pt := range rep.Points {
		tab.AddRow(fmt.Sprint(pt.GoMaxProcs),
			fmt.Sprintf("%.1f", pt.EngineSolvesPerSec),
			fmt.Sprintf("%.0f", pt.StoreResolvesPerSec),
			fmt.Sprintf("%.2f×", pt.StoreResolvesPerSec/base.StoreResolvesPerSec))
	}
	if err := tab.Render(out); err != nil {
		return err
	}

	fmt.Fprintln(out)
	if !rep.floorApplies(out, fmt.Sprintf("store floor (%d-core ≥ %.1f× 1-core)", storeFloorCores, storeFloorX), storeFloorCores, true) {
		return nil
	}
	speedup := byProcs[storeFloorCores].StoreResolvesPerSec / base.StoreResolvesPerSec
	if speedup < storeFloorX {
		return fmt.Errorf("store resolve throughput at GOMAXPROCS=%d is %.2f× the 1-core figure, below the %.1f× floor",
			storeFloorCores, speedup, storeFloorX)
	}
	fmt.Fprintf(out, "store floor ok: %d-core is %.2f× 1-core (floor %.1f×)\n", storeFloorCores, speedup, storeFloorX)
	return nil
}

// scaleEngine times from-scratch greedy solves whose initial scoring
// fans out over all GOMAXPROCS cores (ses.WithWorkers(0)).
func scaleEngine(ctx context.Context, seed uint64, quick bool) (float64, error) {
	users, reps := 4000, 6
	if quick {
		users, reps = 1000, 3
	}
	inst := sestest.Random(sestest.Config{Users: users, Events: 48, Intervals: 8, Competing: 4, Seed: seed})
	s, err := ses.New("grd", ses.WithWorkers(0))
	if err != nil {
		return 0, err
	}
	// One untimed run warms allocator and caches.
	if _, err := s.Solve(ctx, inst, 10); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := s.Solve(ctx, inst, 10); err != nil {
			return 0, err
		}
	}
	return float64(reps) / time.Since(t0).Seconds(), nil
}

// scaleStore times independent sessions resolving through a Pipeline
// whose worker pool spans all cores: one driver goroutine per session
// commits interest updates (mutation + incremental resolve) back to
// back.
func scaleStore(ctx context.Context, seed uint64, quick bool) (float64, error) {
	sessions, ops := 16, 60
	if quick {
		sessions, ops = 8, 25
	}
	st := ses.NewStore(ses.WithWorkers(1))
	pipe := ses.NewPipeline(st, ses.WithResolveWorkers(0))
	defer pipe.Close()
	shape := sestest.Config{Users: 200, Events: 16, Intervals: 5, Competing: 3}
	names, err := warmSessions(ctx, sessions, "scale", shape, 6, seed, func(int, string) *ses.Store { return st })
	if err != nil {
		return 0, err
	}
	return commitLoad(sessions, ops, shape.Users, shape.Events, func(i int, batch []ses.Mutation) error {
		_, err := pipe.ApplyBatch(ctx, names[i], batch)
		return err
	})
}
