package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	cfg, err := parseArgs(os.Args[1:])
	if err == nil {
		err = run(ctx, cfg, os.Stdout)
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string
	work     string
	commit   string
	// steps, when positive, replaces the step count derived from
	// seconds (the self-test runs a few steps).
	steps int
	// rounds is how many fresh deployments an untraced run measures
	// on; setup_s is the median of their set-ups.
	rounds int
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: edit-warm, replicated-commit or cold-create")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the workload's documents and step streams")
	fs.IntVar(&cfg.seconds, "seconds", 20, "nominal measured seconds; the run measures a fixed step count derived from it")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&cfg.bin, "bin", "", "directory holding the sesd and sesrouter binaries")
	fs.StringVar(&cfg.work, "work", "", "scratch directory for data directories, logs and span dumps")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit of the code under test, for the run metadata")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.bin == "" || cfg.work == "" {
		return cfg, fmt.Errorf("-bin and -work are required (run through e2ebench/run.sh)")
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1")
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds must be at least 1")
	}
	cfg.trace = *trace == 1
	cfg.rounds = 5
	return cfg, nil
}

// endToEnd and perLayer name the metrics the result line carries, in
// BENCHMARK.json order.
var (
	endToEnd = []string{"throughput_ops_s", "write_p50_ms", "write_p90_ms", "rss_mb", "ok_share", "setup_s"}
	perLayer = []string{"sesd.floor_ms", "sesd.read_ms", "sesrouter.self_ms", "sesrouter.replica_read_share",
		"dataset.decode_ms", "dataset.body_kb", "store.create_ms", "store.self_ms", "store.pipeline_self_ms",
		"store.pipeline_rejected_share", "wal.self_ms", "wal.fsyncs_per_op", "wal.records_per_fsync",
		"wal.bytes_per_op", "session.resolve_ms", "session.initial_scores_per_op", "session.score_updates_per_op",
		"session.bound_updates_per_op", "session.pops_per_op", "session.list_scans_per_op", "solver.scratch_ms",
		"choice.score_ns", "choice.apply_ns", "cluster.ack_wait_ms", "cluster.ack_wait_p99_ms",
		"cluster.shipped_bytes_per_op", "cluster.follower_lag_records_max", "unattributed_ms", "trace_overhead_pct"}
)

// meta describes the run.
type meta struct {
	NProc         int                 `json:"nproc"`
	Kernel        string              `json:"kernel"`
	GoVersion     string              `json:"go_version"`
	Commit        string              `json:"commit"`
	Seed          uint64              `json:"seed"`
	Seconds       int                 `json:"seconds"`
	Steps         int                 `json:"steps"`
	Clients       int                 `json:"clients"`
	Rounds        int                 `json:"rounds"`
	StepsPerRound int                 `json:"steps_per_round"`
	Warmup        int                 `json:"warmup_steps_per_client"`
	Daemons       map[string][]string `json:"daemon_flags"`
	Instance      instParams          `json:"instance"`
	Sessions      int                 `json:"sessions,omitempty"`
	PoolSize      int                 `json:"pool_size,omitempty"`
}

// report is everything a run prints before its result line.
type report struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Trace     bool              `json:"trace"`
	Meta      meta              `json:"meta"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Rounds shows each round of an untraced run on its own, so the
	// spread between daemon processes of one run is visible.
	Rounds []roundSummary `json:"rounds,omitempty"`
}

// roundSummary is one round of an untraced run. A latency with no
// successful sample is null.
type roundSummary struct {
	SetupS     float64  `json:"setup_s"`
	Throughput float64  `json:"throughput_ops_s"`
	OKShare    float64  `json:"ok_share"`
	WriteP50   *float64 `json:"write_p50_ms"`
	ReadP50    *float64 `json:"read_p50_ms"`
	CPUPerOp   float64  `json:"cpu_ms_per_op"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

func run(ctx context.Context, cfg config, out io.Writer) error {
	sp, err := specByName(cfg.workload)
	if err != nil {
		return err
	}
	e := &env{sesd: filepath.Join(cfg.bin, "sesd"), sesrouter: filepath.Join(cfg.bin, "sesrouter"), work: cfg.work}
	for _, b := range []string{e.sesd, e.sesrouter} {
		if _, err := os.Stat(b); err != nil {
			return fmt.Errorf("daemon binary: %w", err)
		}
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	// Each round measures the same share of the run's steps; a traced
	// run replays one round.
	perRound := cfg.steps
	if perRound <= 0 {
		perRound = int(math.Ceil(float64(cfg.seconds) * sp.rate / float64(cfg.rounds)))
	}
	steps := perRound * cfg.rounds
	clients := min(2, runtime.NumCPU())
	in, err := makeInputs(ctx, sp, cfg.seed, clients)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	rep := report{Workload: sp.name, Why: sp.why, Trace: cfg.trace, Meta: runMeta(cfg, sp, steps, perRound, clients)}
	var ph *phase
	if cfg.trace {
		rep.Meta.Rounds, rep.Meta.Steps = 1, perRound
		rep.Metrics, ph, err = tracedRun(ctx, e, in, perRound)
	} else {
		rep.Metrics, ph, rep.Rounds, err = untracedRun(ctx, e, in, perRound, cfg.rounds)
	}
	if err != nil {
		return err
	}
	rep.Attempted, rep.Failed = ph.attempted, ph.failed
	return emit(out, e, cfg, rep)
}

func runMeta(cfg config, sp spec, steps, perRound, clients int) meta {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	const peers = "n1=URL,n2=URL,n3=URL"
	m := meta{
		NProc: runtime.NumCPU(), Kernel: strings.TrimSpace(string(kernel)), GoVersion: runtime.Version(),
		Commit: cfg.commit, Seed: cfg.seed, Seconds: cfg.seconds, Steps: steps, Clients: clients,
		Rounds: cfg.rounds, StepsPerRound: perRound, Warmup: sp.warmup, Instance: sp.inst,
		Daemons: map[string][]string{"sesd": sesdArgs(sp, "127.0.0.1:PORT", "DIR", "nI", peers)},
	}
	if sp.cluster {
		m.Daemons["sesrouter"] = routerArgs("127.0.0.1:PORT", peers)
	}
	if sp.create {
		m.PoolSize = sp.docs
	} else {
		m.Sessions = sp.docs
	}
	return m
}

// untracedRun measures in rounds: each round sets up fresh daemons
// (one setup_s sample), runs the same steps on them and checks their
// outputs. Spreading a run over several daemon processes averages out
// how fast the host happens to run any one of them.
func untracedRun(ctx context.Context, e *env, in *inputs, steps, rounds int) (map[string]metric, *phase, []roundSummary, error) {
	var times []float64
	var sums []roundSummary
	all := &phase{}
	var rss []float64
	for r := 0; r < rounds; r++ {
		dir := roundDir(e, in, "round", r)
		rd, err := setupRound(ctx, e, in, dir)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, rd.setup.Seconds())
		ph, err := rd.measure(ctx, steps)
		if err == nil {
			err = rd.finalChecks(ctx)
		}
		rd.close()
		if err != nil {
			return nil, nil, nil, err
		}
		one := e2eMetrics(in.spec, ph, times[r:])
		sums = append(sums, roundSummary{
			SetupS: times[r], Throughput: *one["throughput_ops_s"].Value, OKShare: *one["ok_share"].Value,
			WriteP50: one["write_p50_ms"].Value, ReadP50: one["read_p50_ms"].Value,
			CPUPerOp: *one["cpu_ms_per_op"].Value,
		})
		os.RemoveAll(dir)
		all.steps += ph.steps
		all.wall += ph.wall
		all.cpu += ph.cpu
		all.attempted += ph.attempted
		all.failed += ph.failed
		all.measured = append(all.measured, ph.measured...)
		rss = append(rss, float64(ph.rss))
	}
	all.rss = int64(median(rss))
	return e2eMetrics(in.spec, all, times), all, sums, nil
}

// e2eMetrics computes the end-to-end metrics of a measured phase.
func e2eMetrics(sp spec, ph *phase, setups []float64) map[string]metric {
	var writes, reads []float64
	for _, steps := range ph.measured {
		for _, r := range steps {
			if r.writeOK {
				writes = append(writes, ms(r.write))
			}
			if r.readOK {
				reads = append(reads, ms(r.read))
			}
		}
	}
	errShare := float64(ph.failed) / float64(max(ph.attempted, 1))
	m := map[string]metric{
		"throughput_ops_s": val(float64(ph.steps)/ph.wall.Seconds(), "1/s", ph.steps),
		"write_p50_ms":     pctMetric(writes, 50),
		"write_p90_ms":     pctMetric(writes, 90),
		"write_p99_ms":     pctMetric(writes, 99),
		"read_p50_ms":      pctMetric(reads, 50),
		"read_p90_ms":      pctMetric(reads, 90),
		"read_p99_ms":      pctMetric(reads, 99),
		"cpu_ms_per_op":    val(ms(ph.cpu)/float64(ph.steps), "ms", ph.steps),
		"rss_mb":           val(float64(ph.rss)/(1<<20), "MB", ph.steps),
		"error_share":      val(errShare, "share", ph.attempted),
		"ok_share":         val(1-errShare, "share", ph.attempted),
		"setup_s":          val(median(setups), "s", len(setups)),
	}
	if !sp.cluster {
		for _, k := range []string{"read_p50_ms", "read_p90_ms", "read_p99_ms"} {
			r := m[k]
			r.Note = "direct sesd read beside the other client's CPU-bound write"
			m[k] = r
		}
	}
	return m
}

// emit prints the report, saves it next to the run's other files, and
// prints the result line last. The result line carries the metrics
// BENCHMARK.json gates; the report carries every metric.
func emit(out io.Writer, e *env, cfg config, rep report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("report-%s-seed%d-trace%d.json", rep.Workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	if err := os.WriteFile(filepath.Join(e.work, name), append(b, '\n'), 0o644); err != nil {
		return err
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	res := result{Correct: true, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]json.RawMessage{}}
	for _, n := range names {
		m, ok := rep.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		raw, err := json.Marshal(struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}{m.Value, m.Unit})
		if err != nil {
			return err
		}
		res.Metrics[n] = raw
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	// The table lists the result line's metrics first, then the rest of
	// the report.
	rest := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		if !slices.Contains(names, n) {
			rest = append(rest, n)
		}
	}
	slices.Sort(rest)
	for i, n := range append(slices.Clone(names), rest...) {
		m := rep.Metrics[n]
		v := "missing"
		if m.Value != nil {
			v = fmt.Sprintf("%.6g", *m.Value)
		}
		kind := "result"
		if i >= len(names) {
			kind = "report"
		}
		fmt.Fprintf(out, "%-34s %14s %-13s n=%-6d %s\n", n, v, m.Unit, m.Samples, kind)
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
