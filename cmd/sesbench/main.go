// Command sesbench regenerates the paper's evaluation (Fig. 1a–1d) as
// terminal tables and ASCII charts.
//
// Usage:
//
//	sesbench [-fig all|1a|1b|1c|1d|sens|engines|objectives|resolve|wal|scaling|cluster]
//	         [-scale full|medium|small]
//	         [-reps N] [-seed S] [-algos paper|extended] [-csv dir] [-v]
//	         [-workers W] [-par P] [-json file] [-quick] [-verify]
//
// -fig sens runs the sensitivity sweeps over θ (resources), location
// count and competing intensity — the parameters Section IV-A fixes.
//
// -fig engines microbenchmarks the choice engines (Score, Apply,
// IntervalUtility on the sorted-accumulator Sparse engine and the
// paper-faithful Dense engine) and writes the results as JSON to the
// -json file.
//
// -fig objectives microbenchmarks the same hot paths on the Sparse
// engine under each registered objective (omega, attendance,
// fairness), pricing the objective layer's indirection and the
// nonlinear fairness fold; results go to the -json file (default
// BENCH_objective.json).
//
// -fig resolve measures the session layer: after single mutations
// (interest update, late event, new competitor, cancellation, pin),
// an incremental ses.Scheduler.Resolve is compared with a from-scratch
// re-solve — identical utility required, InitialScores contrasted —
// and the results are written as JSON to the -json file (default
// BENCH_resolve.json).
//
// -fig wal prices the durable store's write-ahead log fsync policies
// (always / interval / none): raw append latency percentiles, durable
// ApplyBatch round trips per policy, and the group-commit section
// (lone-appender latency, concurrent appenders with/without group
// commit, realized records per fsync), written to the -json file
// (default BENCH_wal.json). It needs no dataset and runs in seconds.
//
// -fig scaling measures engine solves, pipelined store resolves and
// group-commit WAL appends at GOMAXPROCS 1/2/4/8 and writes the
// curve with the host's CPU count to the -json file (default
// BENCH_scaling.json). The store curve carries a CI-enforced floor —
// 4-core throughput at least 2× 1-core — checked whenever the
// measuring host has ≥ 4 CPUs. -quick shrinks the workload for CI
// smokes; -verify skips measuring and re-validates an existing
// artifact's schema (and, if it was measured on a multi-core host,
// its floor).
//
// -fig scale measures resolve latency against user count (10k / 100k
// / 1M users, streamed into memory-mapped colstore instances by
// scalegen) for the sparse production engine and the candidate-list
// pruned engine, cold (from-scratch GRD) and warm (a live session
// re-resolving across Pin/Unpin mutations), and writes the curve to
// the -json file (default BENCH_scale.json). On full artifacts from
// hosts with ≥ 4 CPUs, verification enforces that the pruned engine's
// warm latency is sublinear in users and beats the sparse engine at
// 1M users; -quick shrinks the sizes for CI smokes, -verify
// re-validates the committed artifact.
//
// -fig cluster boots replicated durable clusters in-process (full-mesh
// WAL shipping over loopback HTTP, fsync-always group-commit logs) and
// writes BENCH_cluster.json: a throughput curve over 1/2/3 nodes and a
// kill -9 failover timeline (router detection, promotion, first
// post-failover write) with acknowledged counters verified preserved.
// The multi-node ≥ 1.5× single-node floor is enforced on hosts with
// ≥ 4 CPUs; -quick shrinks the workload, -verify re-validates the
// committed artifact.
//
// -fig obs prices the observability layer (ses/internal/obs) and
// writes BENCH_obs.json: pipelined batch-commit throughput with
// observability off versus on (every request traced end-to-end, hub
// sink installed), a trace-ring microbenchmark (spans/s into the
// bounded ring), and an SSE fan-out microbenchmark (events/s through
// the hub with live subscribers). The ≤ 5% tracing-overhead floor is
// enforced on hosts with ≥ 4 CPUs; -quick shrinks the workload,
// -verify re-validates the committed artifact.
//
// -scale full uses the Meetup-California dimensions of the paper
// (42,444 users); medium (default) and small reduce the user count so
// a sweep finishes in minutes/seconds while preserving the comparative
// shape. Utility figures and time figures come from the same runs, so
// -fig 1a also prints 1b's timing series (and 1c also prints 1d's).
//
// -workers sets the solver-internal scoring parallelism (0 = all
// cores); schedules and utilities are byte-identical for any value.
// -par runs that many independent (point, repetition) trials at once;
// aggregate statistics are unchanged, but per-run wall-clock timings
// get noisier when trials share cores, so keep -par 1 when the time
// series is the point of the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"

	"ses/internal/ebsn"
	"ses/internal/experiment"
	"ses/internal/solver"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sesbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sesbench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: all, 1a, 1b, 1c, 1d, sens, engines, objectives, resolve, wal, scaling, scale, cluster, obs")
	scale := fs.String("scale", "medium", "dataset scale: full (paper, 42444 users), medium (8000), small (2000)")
	reps := fs.Int("reps", 3, "repetitions (instances) per sweep point")
	seed := fs.Uint64("seed", 42, "master seed")
	algos := fs.String("algos", "paper", "algorithm set: paper (grd/top/rand) or extended")
	csvDir := fs.String("csv", "", "also write per-figure CSV files into this directory")
	verbose := fs.Bool("v", false, "stream per-run progress")
	workers := fs.Int("workers", 0, "solver scoring goroutines (0 = all cores, 1 = serial; identical output)")
	par := fs.Int("par", 1, "independent trials run concurrently (identical statistics, noisier timings)")
	jsonPath := fs.String("json", "", "output file for -fig engines/objectives/resolve/wal/scaling/cluster (defaults BENCH_<fig>.json)")
	quick := fs.Bool("quick", false, "with -fig scaling/cluster: shrink the workload for CI smokes")
	verify := fs.Bool("verify", false, "with -fig scaling/cluster: validate the existing -json artifact instead of measuring")
	if err := fs.Parse(args); err != nil {
		return err
	}

	wantK := *fig == "all" || *fig == "1a" || *fig == "1b"
	wantT := *fig == "all" || *fig == "1c" || *fig == "1d"
	wantSens := *fig == "sens"
	wantEngines := *fig == "engines"
	wantObjectives := *fig == "objectives"
	wantResolve := *fig == "resolve"
	wantWAL := *fig == "wal"
	wantScaling := *fig == "scaling"
	wantScale := *fig == "scale"
	wantCluster := *fig == "cluster"
	wantObs := *fig == "obs"
	if !wantK && !wantT && !wantSens && !wantEngines && !wantObjectives && !wantResolve && !wantWAL && !wantScaling && !wantScale && !wantCluster && !wantObs {
		return fmt.Errorf("unknown -fig %q", *fig)
	}
	// Catch a silently-ignored flag before a potentially hours-long
	// sweep rather than after it.
	if *jsonPath != "" && !wantEngines && !wantObjectives && !wantResolve && !wantWAL && !wantScaling && !wantScale && !wantCluster && !wantObs {
		return fmt.Errorf("-json only applies to -fig engines/objectives/resolve/wal/scaling/scale/cluster/obs")
	}
	if (*quick || *verify) && !wantScaling && !wantScale && !wantCluster && !wantObs {
		return fmt.Errorf("-quick/-verify only apply to -fig scaling/scale/cluster/obs")
	}
	if *jsonPath == "" {
		switch {
		case wantResolve:
			*jsonPath = "BENCH_resolve.json"
		case wantObjectives:
			*jsonPath = "BENCH_objective.json"
		case wantWAL:
			*jsonPath = "BENCH_wal.json"
		case wantScaling:
			*jsonPath = "BENCH_scaling.json"
		case wantScale:
			*jsonPath = "BENCH_scale.json"
		case wantCluster:
			*jsonPath = "BENCH_cluster.json"
		case wantObs:
			*jsonPath = "BENCH_obs.json"
		default:
			*jsonPath = "BENCH_engine.json"
		}
	}
	if wantWAL {
		// The WAL figure prices fsync, not solving: it needs no EBSN
		// dataset, so it dispatches before the generation step.
		return benchWAL(ctx, out, *seed, *jsonPath)
	}
	if wantScaling {
		// Likewise dataset-free: instances come from sestest.
		return benchScaling(ctx, out, *seed, *jsonPath, *quick, *verify)
	}
	if wantScale {
		// Dataset-free: instances are streamed by scalegen into
		// memory-mapped colstore files.
		return benchScale(ctx, out, *seed, *jsonPath, *quick, *verify)
	}
	if wantCluster {
		// Dataset-free too: replicated in-process nodes over loopback.
		return benchCluster(ctx, out, *seed, *jsonPath, *quick, *verify)
	}
	if wantObs {
		// Dataset-free: prices the observability layer against itself.
		return benchObs(ctx, out, *seed, *jsonPath, *quick, *verify)
	}

	var ecfg ebsn.Config
	switch *scale {
	case "full":
		ecfg = ebsn.DefaultConfig(*seed)
	case "medium":
		ecfg = ebsn.DefaultConfig(*seed)
		ecfg.NumUsers = 8000
		ecfg.NumEvents = 8192
		ecfg.NumTags = 3000
		ecfg.NumGroups = 400
	case "small":
		ecfg = ebsn.DefaultConfig(*seed)
		ecfg.NumUsers = 2000
		ecfg.NumEvents = 4096
		ecfg.NumTags = 2000
		ecfg.NumGroups = 150
	default:
		return fmt.Errorf("unknown -scale %q", *scale)
	}
	fmt.Fprintf(out, "generating EBSN dataset (%d users, %d events, seed %d)...\n",
		ecfg.NumUsers, ecfg.NumEvents, *seed)
	ds, err := ebsn.Generate(ecfg)
	if err != nil {
		return err
	}

	scfg := solver.Config{Workers: *workers}
	cfg := experiment.Config{Dataset: ds, Reps: *reps, Seed: *seed, Concurrency: *par, SolverWorkers: *workers}
	switch *algos {
	case "paper":
		cfg.Algorithms = experiment.PaperAlgorithms(scfg)
	case "extended":
		cfg.Algorithms = experiment.ExtendedAlgorithms(scfg)
	default:
		return fmt.Errorf("unknown -algos %q", *algos)
	}
	if *verbose {
		cfg.Progress = out
	}

	if wantEngines {
		return benchEngines(out, ds, *seed, *jsonPath)
	}
	if wantObjectives {
		return benchObjectives(out, ds, *seed, *jsonPath)
	}
	if wantResolve {
		return benchResolve(ctx, out, ds, *seed, *workers, *jsonPath)
	}

	if wantK {
		ks := experiment.DefaultKs()
		if *scale == "small" {
			ks = []int{25, 50, 100, 150, 200}
		}
		fmt.Fprintf(out, "\n== sweep over k (|T|=3k/2, |E|=2k), %d reps ==\n\n", cfg.Reps)
		sw, err := experiment.VaryK(ctx, cfg, ks)
		if err != nil {
			return err
		}
		if err := emit(out, sw, "Fig 1a: Utility vs k", "Fig 1b: Time vs k", *csvDir, "fig1a", "fig1b"); err != nil {
			return err
		}
	}
	if wantT {
		const k = 100
		fmt.Fprintf(out, "\n== sweep over |T| (k=%d, |E|=2k), %d reps ==\n\n", k, cfg.Reps)
		sw, err := experiment.VaryT(ctx, cfg, k, experiment.DefaultTFactors())
		if err != nil {
			return err
		}
		if err := emit(out, sw, "Fig 1c: Utility vs |T|", "Fig 1d: Time vs |T|", *csvDir, "fig1c", "fig1d"); err != nil {
			return err
		}
	}
	if wantSens {
		const k = 100
		fmt.Fprintf(out, "\n== sensitivity: resources θ (k=%d) ==\n\n", k)
		sw, err := experiment.VaryResources(ctx, cfg, k, experiment.DefaultThetas())
		if err != nil {
			return err
		}
		if err := emit(out, sw, "Utility vs θ", "Time vs θ", *csvDir, "sens_theta_u", "sens_theta_t"); err != nil {
			return err
		}
		fmt.Fprintf(out, "\n== sensitivity: locations (k=%d) ==\n\n", k)
		sw, err = experiment.VaryLocations(ctx, cfg, k, experiment.DefaultLocationCounts())
		if err != nil {
			return err
		}
		if err := emit(out, sw, "Utility vs locations", "Time vs locations", *csvDir, "sens_loc_u", "sens_loc_t"); err != nil {
			return err
		}
		fmt.Fprintf(out, "\n== sensitivity: competing events per interval (k=%d) ==\n\n", k)
		sw, err = experiment.VaryCompeting(ctx, cfg, k, experiment.DefaultCompetingMeans())
		if err != nil {
			return err
		}
		if err := emit(out, sw, "Utility vs competing intensity", "Time vs competing intensity", *csvDir, "sens_comp_u", "sens_comp_t"); err != nil {
			return err
		}
	}
	return nil
}

// emit prints the utility and time tables + charts for one sweep and
// optionally writes CSVs.
func emit(out io.Writer, sw *experiment.Sweep, utitle, ttitle, csvDir, uname, tname string) error {
	if err := sw.Table(experiment.Utility, utitle).Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, sw.Chart(experiment.Utility, utitle+" (shape)"))
	fmt.Fprintln(out)
	if err := sw.Table(experiment.Time, ttitle).Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, sw.Chart(experiment.Time, ttitle+" (shape, seconds)"))
	fmt.Fprintln(out)
	if err := sw.Table(experiment.Size, "Scheduled events (|S|) per method").Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		for _, f := range []struct {
			metric experiment.Metric
			name   string
		}{{experiment.Utility, uname}, {experiment.Time, tname}} {
			path := filepath.Join(csvDir, f.name+".csv")
			file, err := os.Create(path)
			if err != nil {
				return err
			}
			err = sw.Table(f.metric, "").CSV(file)
			if cerr := file.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", path)
		}
	}
	return nil
}
