// Command sesbench regenerates the paper's evaluation (Fig. 1a–1d) as
// terminal tables and ASCII charts, and measures the JSON figures
// committed as BENCH_*.json.
//
// Usage:
//
//	sesbench [-fig all|1a|1b|1c|1d|sens|engines|objectives|resolve|wal|scaling|scale|cluster|obs]
//	         [-scale full|medium|small]
//	         [-reps N] [-seed S] [-algos paper|extended] [-csv dir] [-v]
//	         [-workers W] [-par P] [-json file] [-quick] [-verify]
//
// -fig sens runs the sensitivity sweeps over θ (resources), location
// count and competing intensity — the parameters Section IV-A fixes.
//
// The JSON figures, each with its default -json artifact:
//
//   - engines (BENCH_engine.json): Score, Unapply+Apply and
//     IntervalUtility on the sorted-accumulator Sparse engine and the
//     paper-faithful Dense engine.
//   - objectives (BENCH_objective.json): the same hot paths on the
//     Sparse engine under each registered objective.
//   - resolve (BENCH_resolve.json): after single mutations, an
//     incremental ses.Scheduler.Resolve against a from-scratch
//     re-solve; utilities must match and the incremental run must
//     compute fewer initial scores.
//   - wal (BENCH_wal.json): WAL append and durable ApplyBatch latency
//     per sync policy.
//   - scaling (BENCH_scaling.json): engine solves and pipelined store
//     resolves at GOMAXPROCS 1/2/4/8. Floor:
//     store throughput at 4 cores ≥ 2× 1 core.
//   - scale (BENCH_scale.json): cold and warm resolve latency of the
//     sparse and pruned engines at 10k/100k/1M users (memory-mapped
//     colstore instances). Floors: pruned warm latency grows at most
//     span/4 over the user span and beats sparse by 1.5× at 1M users.
//   - cluster (BENCH_cluster.json): replicated in-process nodes —
//     throughput over 1/2/3 nodes, -replicate-ack 1 against async
//     replication, and a kill -9 failover timeline with acknowledged
//     counters verified preserved. Floor: 3 nodes ≥ 1.5× 1 node.
//   - obs (BENCH_obs.json): pipelined commit throughput with
//     observability off and on, span recording into the trace ring,
//     and SSE fan-out through the watch hub. Floor: ≤ 5% overhead.
//
// Every JSON figure runs through one harness: measure, write the
// artifact, then check it. -verify skips measuring and checks the
// existing artifact instead. A check validates the schema and the
// figure's invariants, and enforces its floor only where the
// artifact's header says it is physical: measured on ≥ 4 CPUs, and
// for scale and obs on a full-size run. -quick shrinks the workload
// of scaling, scale, cluster and obs for CI smokes.
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
	all := func(figure) bool { return true }
	quickOnes := func(f figure) bool { return f.quick }
	fs := flag.NewFlagSet("sesbench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: all, 1a, 1b, 1c, 1d, sens, "+figureNames(", ", all))
	scale := fs.String("scale", "medium", "dataset scale: full (paper, 42444 users), medium (8000), small (2000)")
	reps := fs.Int("reps", 3, "repetitions (instances) per sweep point")
	seed := fs.Uint64("seed", 42, "master seed")
	algos := fs.String("algos", "paper", "algorithm set: paper (grd/top/rand) or extended")
	csvDir := fs.String("csv", "", "also write per-figure CSV files into this directory")
	verbose := fs.Bool("v", false, "stream per-run progress")
	workers := fs.Int("workers", 0, "solver scoring goroutines (0 = all cores, 1 = serial; identical output)")
	par := fs.Int("par", 1, "independent trials run concurrently (identical statistics, noisier timings)")
	jsonPath := fs.String("json", "", "artifact for -fig "+figureNames("/", all)+" (default: the figure's BENCH_*.json)")
	quick := fs.Bool("quick", false, "with -fig "+figureNames("/", quickOnes)+": shrink the workload for CI smokes")
	verify := fs.Bool("verify", false, "with -fig "+figureNames("/", all)+": check the existing -json artifact instead of measuring")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if f, ok := lookupFigure(*fig); ok {
		if *quick && !f.quick {
			return fmt.Errorf("-quick only applies to -fig %s", figureNames("/", quickOnes))
		}
		path := *jsonPath
		if path == "" {
			path = f.artifact
		}
		e := env{seed: *seed, workers: *workers, quick: *quick}
		if !*verify {
			if err := probeArtifact(path); err != nil {
				return err
			}
			if f.dataset {
				ds, err := generateDataset(out, *scale, *seed)
				if err != nil {
					return err
				}
				e.ds = ds
			}
		}
		return f.run(ctx, out, e, path, *verify)
	}
	switch *fig {
	case "all", "1a", "1b", "1c", "1d", "sens":
	default:
		return fmt.Errorf("unknown -fig %q", *fig)
	}
	// Catch a silently-ignored flag before a potentially hours-long
	// sweep rather than after it.
	if *jsonPath != "" || *quick || *verify {
		return fmt.Errorf("-json, -quick and -verify only apply to -fig %s", figureNames("/", all))
	}
	ds, err := generateDataset(out, *scale, *seed)
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

	if *fig == "all" || *fig == "1a" || *fig == "1b" {
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
	if *fig == "all" || *fig == "1c" || *fig == "1d" {
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
	if *fig == "sens" {
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

// generateDataset builds the synthetic EBSN dataset at the -scale
// dimensions.
func generateDataset(out io.Writer, scale string, seed uint64) (*ebsn.Dataset, error) {
	cfg := ebsn.DefaultConfig(seed)
	switch scale {
	case "full":
	case "medium":
		cfg.NumUsers = 8000
		cfg.NumEvents = 8192
		cfg.NumTags = 3000
		cfg.NumGroups = 400
	case "small":
		cfg.NumUsers = 2000
		cfg.NumEvents = 4096
		cfg.NumTags = 2000
		cfg.NumGroups = 150
	default:
		return nil, fmt.Errorf("unknown -scale %q", scale)
	}
	fmt.Fprintf(out, "generating EBSN dataset (%d users, %d events, seed %d)...\n",
		cfg.NumUsers, cfg.NumEvents, seed)
	return ebsn.Generate(cfg)
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
