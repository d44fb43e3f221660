package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ses/internal/colstore"
	"ses/internal/scalegen"
	"ses/internal/session"
	"ses/internal/solver"
)

// scalePoint is one user-count's measured resolve latencies, sparse
// production engine vs candidate-list pruned engine. Cold is a
// from-scratch GRD solve (initial scoring included); warm is the
// steady-state figure — a live session absorbing non-structural
// mutations (Pin/Unpin) and re-resolving on its warm engine, where the
// pruned engine's frozen-tail cache pays off. Utility is identical
// between the engines by construction; the measurement aborts if not.
type scalePoint struct {
	Users        int     `json:"users"`
	CandNNZ      int64   `json:"cand_nnz"`
	SparseColdMs float64 `json:"sparse_cold_ms"`
	PrunedColdMs float64 `json:"pruned_cold_ms"`
	SparseWarmMs float64 `json:"sparse_warm_ms"`
	PrunedWarmMs float64 `json:"pruned_warm_ms"`
	Utility      float64 `json:"utility"`
}

// scaleReport is the BENCH_scale.json document.
type scaleReport struct {
	host
	K      int          `json:"k"`
	Points []scalePoint `json:"points"`
}

// The CI-enforced contract on a full multicore artifact: across a
// scaleSpanFloor× growth in users, the pruned engine's warm resolve
// latency may grow at most scaleSpanFloor/scaleSublinearX — i.e. it
// must be at least scaleSublinearX× sublinear — and at the largest
// size it must beat the sparse engine by scaleSpeedupFloor.
const (
	scaleFloorCores   = 4
	scaleSpanFloor    = 100
	scaleSublinearX   = 4.0
	scaleSpeedupFloor = 1.5
)

// scaleSizes are the measured user counts (the paper's Meetup crawl
// has 42444 users; the point of the pruned engine is the two orders of
// magnitude above it).
var scaleSizes = []int{10_000, 100_000, 1_000_000}

// benchScale measures the resolve latency curve over the user counts.
// quick shrinks both the sizes and the schedule for CI smokes.
func benchScale(ctx context.Context, out io.Writer, e env) (*scaleReport, error) {
	sizes, k, pairs := scaleSizes, 100, 4
	if e.quick {
		sizes, k, pairs = []int{2_000, 20_000}, 10, 2
	}
	rep := &scaleReport{host: e.host(), K: k}
	dir, err := os.MkdirTemp("", "sesbench-scale-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, users := range sizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pt, err := measureScalePoint(ctx, dir, users, k, pairs, e.seed)
		if err != nil {
			return nil, fmt.Errorf("scale: %d users: %w", users, err)
		}
		rep.Points = append(rep.Points, pt)
		fmt.Fprintf(out, "users=%d (nnz %d): cold sparse %.1fms pruned %.1fms, warm sparse %.2fms pruned %.2fms\n",
			users, pt.CandNNZ, pt.SparseColdMs, pt.PrunedColdMs, pt.SparseWarmMs, pt.PrunedWarmMs)
	}
	return rep, nil
}

// measureScalePoint generates the columnar instance for one user
// count, memory-maps it, and measures both engines' cold solve and
// warm per-resolve latency.
func measureScalePoint(ctx context.Context, dir string, users, k, pairs int, seed uint64) (scalePoint, error) {
	path := filepath.Join(dir, fmt.Sprintf("scale-%d.sescol", users))
	st, err := scalegen.Generate(path, scalegen.Config{Users: users, K: k, Seed: seed})
	if err != nil {
		return scalePoint{}, err
	}
	store, err := colstore.Open(path)
	if err != nil {
		return scalePoint{}, err
	}
	defer store.Close()
	inst := store.Instance()
	pt := scalePoint{Users: users, CandNNZ: st.CandNNZ}

	type engine struct {
		factory solver.EngineFactory
		cold    *float64
		warm    *float64
	}
	engines := []engine{
		{nil, &pt.SparseColdMs, &pt.SparseWarmMs},
		{solver.PrunedEngine, &pt.PrunedColdMs, &pt.PrunedWarmMs},
	}
	for i, eng := range engines {
		t0 := time.Now()
		res, err := solver.NewGRD(solver.Config{Workers: 1, Engine: eng.factory}).Solve(ctx, inst, k)
		if err != nil {
			return scalePoint{}, err
		}
		*eng.cold = float64(time.Since(t0)) / float64(time.Millisecond)
		if i == 0 {
			pt.Utility = res.Utility
		} else if res.Utility != pt.Utility {
			// The pruned engine is exact; a mismatch is a bug, not noise.
			return scalePoint{}, fmt.Errorf("engine utilities diverge: %v vs %v", res.Utility, pt.Utility)
		}

		s, err := session.New(inst, k, session.Options{Workers: 1, Engine: eng.factory})
		if err != nil {
			return scalePoint{}, err
		}
		if _, err := s.Resolve(ctx); err != nil { // warm the engine
			return scalePoint{}, err
		}
		t0 = time.Now()
		for p := 0; p < pairs; p++ {
			if err := s.Pin(p, p%inst.NumIntervals); err != nil {
				return scalePoint{}, err
			}
			if _, err := s.Resolve(ctx); err != nil {
				return scalePoint{}, err
			}
			if err := s.Unpin(p); err != nil {
				return scalePoint{}, err
			}
			if _, err := s.Resolve(ctx); err != nil {
				return scalePoint{}, err
			}
		}
		*eng.warm = float64(time.Since(t0)) / float64(time.Millisecond) / float64(2*pairs)
	}
	return pt, nil
}

// checkScale validates a scale artifact: the schema always, the
// latency-ratio floors only for full (non-quick) artifacts measured on
// a multicore host.
func checkScale(out io.Writer, rep *scaleReport) error {
	if err := rep.valid(); err != nil {
		return fmt.Errorf("scale artifact: %w", err)
	}
	if len(rep.Points) < 2 {
		return fmt.Errorf("scale artifact: %d points, want at least 2", len(rep.Points))
	}
	for i, pt := range rep.Points {
		if i > 0 && pt.Users <= rep.Points[i-1].Users {
			return fmt.Errorf("scale artifact: user counts not increasing at point %d", i)
		}
		if pt.Users <= 0 || pt.CandNNZ <= 0 || pt.Utility <= 0 {
			return fmt.Errorf("scale artifact: degenerate point %+v", pt)
		}
		for _, ms := range []float64{pt.SparseColdMs, pt.PrunedColdMs, pt.SparseWarmMs, pt.PrunedWarmMs} {
			if ms <= 0 {
				return fmt.Errorf("scale artifact: non-positive latency in %+v", pt)
			}
		}
	}
	if !rep.Quick {
		for i, want := range scaleSizes {
			if i >= len(rep.Points) || rep.Points[i].Users != want {
				return fmt.Errorf("scale artifact: full run must cover users %v", scaleSizes)
			}
		}
	}

	fmt.Fprintf(out, "\nResolve latency vs users (k=%d, ms)\n", rep.K)
	fmt.Fprintf(out, "%10s %12s %12s %12s %12s %12s\n", "users", "sparse cold", "pruned cold", "sparse warm", "pruned warm", "warm speedup")
	for _, pt := range rep.Points {
		fmt.Fprintf(out, "%10d %12.1f %12.1f %12.2f %12.2f %11.2f×\n",
			pt.Users, pt.SparseColdMs, pt.PrunedColdMs, pt.SparseWarmMs, pt.PrunedWarmMs,
			pt.SparseWarmMs/pt.PrunedWarmMs)
	}

	first, last := rep.Points[0], rep.Points[len(rep.Points)-1]
	span := float64(last.Users) / float64(first.Users)
	growth := last.PrunedWarmMs / first.PrunedWarmMs
	fmt.Fprintf(out, "\npruned warm latency grew %.1f× across a %.0f× user span\n", growth, span)
	if !rep.floorApplies(out, "latency floors", scaleFloorCores, false) {
		return nil
	}
	if span < scaleSpanFloor {
		return fmt.Errorf("scale artifact: user span %.0f× below the %d× contract", span, scaleSpanFloor)
	}
	if maxGrowth := span / scaleSublinearX; growth > maxGrowth {
		return fmt.Errorf("pruned warm latency grew %.1f× over a %.0f× user span; the sublinearity floor allows %.1f×",
			growth, span, maxGrowth)
	}
	if speedup := last.SparseWarmMs / last.PrunedWarmMs; speedup < scaleSpeedupFloor {
		return fmt.Errorf("pruned warm resolve at %d users is only %.2f× the sparse engine, below the %.1f× floor",
			last.Users, speedup, scaleSpeedupFloor)
	}
	fmt.Fprintf(out, "floors ok: growth %.1f× ≤ %.1f×, speedup %.2f× ≥ %.1f×\n",
		growth, span/scaleSublinearX, last.SparseWarmMs/last.PrunedWarmMs, scaleSpeedupFloor)
	return nil
}
