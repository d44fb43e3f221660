// Command sesload load-tests the concurrent serving layer: it creates
// N sessions in one ses.Store and drives every session from its own
// goroutine with a mixed workload — direct mutations, incremental
// resolves, batched commits and snapshot exports — then reports
// throughput and per-operation latency percentiles.
//
// Usage:
//
//	sesload [-sessions 128] [-duration 3s] [-users 60] [-events 16]
//	        [-intervals 5] [-competing 3] [-k 6] [-seed 1]
//	        [-workers 1] [-resolve-workers 0] [-json FILE]
//	        [-durable DIR] [-sync always|interval|none]
//	        [-cluster URL [-ack-file FILE]] | [-check-acks FILE -cluster URL]
//
// The run has two phases. Warm-up: every session performs its first
// full resolve (the expensive from-scratch solve that builds the
// initial schedule) and all drivers rendezvous at a barrier; these
// resolves are reported separately under "warmup" and never pollute
// the steady-state latency classes. Measurement: the clock starts
// after the barrier and each driver runs the mixed workload until the
// deadline — ~55% single mutations, ~20% resolves, ~15% batches (two
// mutations + the batch's one resolve), ~10% snapshot exports. Pins
// are drawn from the session's committed schedule so the pin set
// always stays feasible. All instance generation is
// seed-deterministic; timings obviously are not.
//
// Latencies are response times as a driver sees them: when sessions
// far outnumber cores (the default: 128 drivers, often 1 CI core),
// the tail of every class includes scheduler run-queue wait — a
// driver can sit preempted for (drivers × timeslice) while the other
// drivers take their turns, so max_us grows linearly with the
// oversubscription factor. The report records drivers_per_core so the
// tail can be read accordingly; p50/p90/p99 are unaffected at the
// default mix because an op rarely spans a preemption.
//
// With -durable the store is opened with a write-ahead log under DIR
// (-sync picks the fsync policy) and every mutation is routed through
// ApplyBatch so it is logged — single mutations then carry a resolve,
// which is the price of the durability contract and shows up in the
// "mutate" latency class. Kill the process mid-run (the CI smoke does
// kill -9) and a sesd -data-dir DIR boot recovers every acknowledged
// session.
//
// With -resolve-workers N > 0, resolves and batches are routed
// through a ses.Pipeline over the store instead of calling it
// directly, exercising the coalescing worker pool under load.
//
// With -cluster URL the drivers speak HTTP to a sesd daemon or a
// sesrouter front instead of an in-process store, retrying transient
// failures (a node being kill -9'd, the router converging on a
// failover) and counting an op only when its 2xx acknowledgement
// arrives. -ack-file records the per-session acknowledged counters;
// a later `sesload -check-acks FILE -cluster URL` asserts the cluster
// still holds at least every acknowledged op — the
// zero-acknowledged-loss check the CI cluster smoke runs after
// killing a node mid-drive.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ses"
	"ses/internal/core"
	"ses/internal/randx"
	"ses/internal/sestest"
	"ses/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sesload:", err)
		os.Exit(1)
	}
}

// opClass indexes the latency classes.
const (
	opMutate = iota
	opResolve
	opBatch
	opSnapshot
	numOps
)

var opNames = [numOps]string{"mutate", "resolve", "batch", "snapshot"}

// latencySummary is the reported shape of one op class.
type latencySummary struct {
	Count int     `json:"count"`
	P50us float64 `json:"p50_us"`
	P90us float64 `json:"p90_us"`
	P99us float64 `json:"p99_us"`
	MaxUs float64 `json:"max_us"`
}

// resolver is the mutate/resolve surface a driver commits through —
// the store itself, or a ses.Pipeline over it with -resolve-workers.
type resolver interface {
	Resolve(ctx context.Context, name string) (*ses.Delta, error)
	ApplyBatch(ctx context.Context, name string, muts []ses.Mutation) (*ses.BatchResult, error)
}

// report is the JSON document -json writes.
type report struct {
	Sessions       int                       `json:"sessions"`
	Durable        bool                      `json:"durable,omitempty"`
	Sync           string                    `json:"sync,omitempty"`
	ResolveWorkers int                       `json:"resolve_workers,omitempty"`
	WarmupSec      float64                   `json:"warmup_sec"`
	Warmup         latencySummary            `json:"warmup"`
	DriversPerCore float64                   `json:"drivers_per_core"`
	DurationSec    float64                   `json:"duration_sec"`
	TotalOps       int                       `json:"total_ops"`
	OpsPerSec      float64                   `json:"throughput_ops_per_sec"`
	ResolvedUtil   float64                   `json:"mean_final_utility"`
	Ops            map[string]latencySummary `json:"ops"`
	GoMaxProcs     int                       `json:"gomaxprocs"`
	Users          int                       `json:"users"`
	Events         int                       `json:"events"`
	Intervals      int                       `json:"intervals"`
	K              int                       `json:"k"`
}

// summarize folds a sorted latency sample (seconds) into the reported
// percentile shape.
func summarize(sorted []float64) latencySummary {
	if len(sorted) == 0 {
		return latencySummary{}
	}
	return latencySummary{
		Count: len(sorted),
		P50us: stats.PercentileSorted(sorted, 50) * 1e6,
		P90us: stats.PercentileSorted(sorted, 90) * 1e6,
		P99us: stats.PercentileSorted(sorted, 99) * 1e6,
		MaxUs: sorted[len(sorted)-1] * 1e6,
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sesload", flag.ContinueOnError)
	sessions := fs.Int("sessions", 128, "concurrent sessions (one driver goroutine each)")
	duration := fs.Duration("duration", 3*time.Second, "how long to drive the workload")
	users := fs.Int("users", 60, "users per instance")
	events := fs.Int("events", 16, "candidate events per instance")
	intervals := fs.Int("intervals", 5, "intervals per instance")
	competing := fs.Int("competing", 3, "competing events per instance")
	k := fs.Int("k", 6, "schedule-size target")
	seed := fs.Uint64("seed", 1, "instance-generation seed")
	workers := fs.Int("workers", 1, "scoring goroutines per resolve (keep 1 when sessions >> cores)")
	resolveWorkers := fs.Int("resolve-workers", 0, "route resolves/batches through a pipeline with this many workers (0 = direct store calls)")
	jsonPath := fs.String("json", "", "write the report as JSON to this file")
	durableDir := fs.String("durable", "", "open a durable store with its write-ahead log under this directory")
	syncSpec := fs.String("sync", "always", "WAL sync policy with -durable: always, interval or none")
	clusterURL := fs.String("cluster", "", "drive a sesd/sesrouter base URL over HTTP instead of an in-process store")
	ackFile := fs.String("ack-file", "", "with -cluster: write per-session acknowledged counters to this file")
	checkAcks := fs.String("check-acks", "", "verify a previous run's ack file against -cluster and exit")
	namePrefix := fs.String("name-prefix", "load", "with -cluster: session name prefix (lets two drive phases coexist)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *checkAcks != "" {
		return runCheckAcks(*checkAcks, strings.TrimSuffix(*clusterURL, "/"), out)
	}
	if *sessions <= 0 {
		return fmt.Errorf("-sessions must be positive")
	}
	if *clusterURL != "" {
		if *durableDir != "" || *resolveWorkers > 0 {
			return fmt.Errorf("-cluster drives a remote daemon; -durable/-resolve-workers don't apply")
		}
		return runCluster(strings.TrimSuffix(*clusterURL, "/"), *ackFile, *jsonPath, *namePrefix,
			*sessions, *duration, *users, *events, *intervals, *competing, *k, *seed, out)
	}
	if *ackFile != "" {
		return fmt.Errorf("-ack-file only applies with -cluster")
	}

	var st *ses.Store
	durable := *durableDir != ""
	if !durable {
		// Same foot-gun guard as sesd: a tuned -sync without -durable
		// would silently benchmark the memory-only store.
		strayErr := error(nil)
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "sync" {
				strayErr = fmt.Errorf("-sync only applies with -durable")
			}
		})
		if strayErr != nil {
			return strayErr
		}
	}
	if durable {
		pol, err := ses.ParseSyncPolicy(*syncSpec)
		if err != nil {
			return err
		}
		d, err := ses.OpenStore(ses.WithDurability(*durableDir), ses.WithSyncPolicy(pol), ses.WithWorkers(*workers))
		if err != nil {
			return err
		}
		// A clean run closes with a final checkpoint; a kill -9 leaves
		// the log for the next boot to recover, which is the point.
		defer d.Close()
		st = d.Store
	} else {
		st = ses.NewStore(ses.WithWorkers(*workers))
	}
	var rs resolver = st
	if *resolveWorkers > 0 {
		pipe := ses.NewPipeline(st, ses.WithResolveWorkers(*resolveWorkers))
		defer pipe.Close()
		rs = pipe
	}
	for i := 0; i < *sessions; i++ {
		inst := sestest.Random(sestest.Config{
			Users: *users, Events: *events, Intervals: *intervals,
			Competing: *competing, Seed: *seed + uint64(i),
		})
		if err := st.Create(fmt.Sprintf("load-%d", i), inst, *k); err != nil {
			return err
		}
	}

	results := make([]driveResult, *sessions)
	// Warm-up barrier: every driver finishes its first full resolve
	// (and checks in on warmed) before the measurement clock starts,
	// so the from-scratch solve cost never lands in a steady-state
	// latency class.
	var warmed, wg sync.WaitGroup
	start := make(chan struct{})
	warmStart := time.Now()
	for i := 0; i < *sessions; i++ {
		warmed.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = driveSession(st, rs, fmt.Sprintf("load-%d", i), i, *seed, *users, *intervals, &warmed, start, *duration, durable)
		}(i)
	}
	warmed.Wait()
	warmupElapsed := time.Since(warmStart)
	close(start) // release all drivers into the timed loop
	measureStart := time.Now()
	wg.Wait()
	elapsed := time.Since(measureStart)

	rep := report{
		Sessions:       *sessions,
		Durable:        durable,
		ResolveWorkers: *resolveWorkers,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		Users:          *users,
		Events:         *events,
		Intervals:      *intervals,
		K:              *k,
		Ops:            map[string]latencySummary{},
	}
	if durable {
		rep.Sync = *syncSpec
	}
	var merged [numOps][]float64
	var warm []float64
	for i := range results {
		if results[i].err != nil {
			return fmt.Errorf("session load-%d: %w", i, results[i].err)
		}
		for c := 0; c < numOps; c++ {
			merged[c] = append(merged[c], results[i].lat[c]...)
		}
		warm = append(warm, results[i].warm)
		rep.ResolvedUtil += results[i].util
	}
	rep.ResolvedUtil /= float64(*sessions)
	rep.DurationSec = elapsed.Seconds()
	rep.WarmupSec = warmupElapsed.Seconds()
	rep.DriversPerCore = float64(*sessions) / float64(runtime.GOMAXPROCS(0))
	sort.Float64s(warm)
	rep.Warmup = summarize(warm)
	for c := 0; c < numOps; c++ {
		lat := merged[c]
		sort.Float64s(lat)
		rep.TotalOps += len(lat)
		if len(lat) == 0 {
			continue
		}
		rep.Ops[opNames[c]] = summarize(lat)
	}
	rep.OpsPerSec = float64(rep.TotalOps) / elapsed.Seconds()

	fmt.Fprintf(out, "sesload: %d sessions, %.2fs, %d ops (%.0f ops/sec), mean final Ω = %.2f\n",
		rep.Sessions, rep.DurationSec, rep.TotalOps, rep.OpsPerSec, rep.ResolvedUtil)
	fmt.Fprintf(out, "  warm-up  %7d ops  %.2fs wall  p50 %8.1fµs  max %8.1fµs (excluded from classes below)\n",
		rep.Warmup.Count, rep.WarmupSec, rep.Warmup.P50us, rep.Warmup.MaxUs)
	for c := 0; c < numOps; c++ {
		if s, ok := rep.Ops[opNames[c]]; ok {
			fmt.Fprintf(out, "  %-8s %7d ops  p50 %8.1fµs  p90 %8.1fµs  p99 %8.1fµs  max %8.1fµs\n",
				opNames[c], s.Count, s.P50us, s.P90us, s.P99us, s.MaxUs)
		}
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "report written to %s\n", *jsonPath)
	}
	return nil
}

// driveResult is one driver's contribution to the report: per-class
// steady-state latencies, the warm-up resolve's latency (reported
// separately), and the session's final utility.
type driveResult struct {
	lat  [numOps][]float64 // seconds
	warm float64           // warm-up resolve, seconds
	util float64
	err  error
}

// driveSession warms one session up (first full resolve, timed into
// warm), checks in on warmed, waits for the start barrier, then runs
// the mixed workload for dur. It is the session's only driver, so
// pins drawn from the committed schedule stay feasible and
// cancellations can avoid pinned events without races. With durable
// set, every mutation goes through ApplyBatch so the write-ahead log
// sees it; otherwise mutations are applied directly to the scheduler.
func driveSession(st *ses.Store, rs resolver, name string, idx int, seed uint64, users, intervals int,
	warmed *sync.WaitGroup, start <-chan struct{}, dur time.Duration, durable bool) (res driveResult) {
	ctx := context.Background()
	src := randx.Derive(seed+uint64(idx), "sesload")
	sched, err := st.Get(name)
	if err != nil {
		res.err = err
		warmed.Done()
		return
	}
	_, _, events := sched.Dims()
	pinned := map[int]int{}        // event -> interval+1
	cancelled := map[int]bool{}    // events withdrawn by this driver
	forbidden := map[[2]int]bool{} // pairs excluded by this driver
	var added []int                // loadgen-added events, safe to cancel

	observe := func(c int, f func() error) bool {
		t0 := time.Now()
		err := f()
		res.lat[c] = append(res.lat[c], time.Since(t0).Seconds())
		if err != nil {
			res.err = err
			return false
		}
		return true
	}

	// apply routes one mutation through the durable ApplyBatch (so it
	// reaches the log) or directly onto the scheduler, returning the
	// assigned id for add mutations (-1 otherwise).
	apply := func(m ses.Mutation) (int, error) {
		if !durable {
			return m.ApplyTo(sched)
		}
		r, err := rs.ApplyBatch(ctx, name, []ses.Mutation{m})
		if err != nil {
			return -1, err
		}
		if len(r.EventIDs) > 0 {
			return r.EventIDs[0], nil
		}
		if len(r.CompetingIDs) > 0 {
			return r.CompetingIDs[0], nil
		}
		return -1, nil
	}

	// Warm-up: one full resolve so schedules exist for pin sampling.
	// This is the expensive from-scratch solve — timed into the warm
	// slot, never into the steady-state resolve class.
	t0 := time.Now()
	_, err = rs.Resolve(ctx, name)
	res.warm = time.Since(t0).Seconds()
	warmed.Done()
	if err != nil {
		res.err = err
		return
	}
	<-start
	deadline := time.Now().Add(dur)

	for time.Now().Before(deadline) {
		switch r := src.IntN(20); {
		case r < 11: // single mutation
			ok := observe(opMutate, func() error {
				switch src.IntN(6) {
				case 0:
					_, err := apply(ses.UpdateInterestOp(src.IntN(users), src.IntN(events), src.Range(0, 1)))
					return err
				case 1:
					_, err := apply(ses.AddCompetingOp(core.CompetingEvent{Interval: src.IntN(intervals)},
						map[int]float64{src.IntN(users): src.Range(0.1, 1)}))
					return err
				case 2:
					id, err := apply(ses.AddEventOp(core.Event{
						Location: src.IntN(4), Required: src.Range(0.5, 2),
						Name: fmt.Sprintf("%s-extra-%d", name, events),
					}, map[int]float64{src.IntN(users): src.Range(0.1, 1)}))
					if err == nil {
						added = append(added, id)
						events++
					}
					return err
				case 3:
					if len(added) > 0 && src.Bool(0.5) {
						e := added[src.IntN(len(added))]
						if cancelled[e] {
							return nil // already withdrawn; cheap no-op
						}
						if _, err := apply(ses.CancelEventOp(e)); err != nil {
							return err
						}
						cancelled[e] = true
						delete(pinned, e) // CancelEvent drops the pin
						return nil
					}
					e, tt := src.IntN(events), src.IntN(intervals)
					if pinned[e] == tt+1 {
						return nil // forbidding a pinned pair is rejected by design
					}
					if _, err := apply(ses.ForbidOp(e, tt)); err != nil {
						return err
					}
					forbidden[[2]int{e, tt}] = true
					return nil
				case 4:
					// Pin a committed assignment: feasible by
					// construction (it was part of one feasible
					// schedule) — unless this driver has since
					// cancelled the event or forbidden the pair.
					cur := sched.Schedule()
					if len(cur) == 0 {
						return nil
					}
					a := cur[src.IntN(len(cur))]
					if cancelled[a.Event] || forbidden[[2]int{a.Event, a.Interval}] {
						return nil
					}
					if _, err := apply(ses.PinOp(a.Event, a.Interval)); err != nil {
						return err
					}
					pinned[a.Event] = a.Interval + 1
					return nil
				default:
					e := src.IntN(events)
					if _, err := apply(ses.UnpinOp(e)); err != nil {
						return err
					}
					delete(pinned, e)
					return nil
				}
			})
			if !ok {
				return
			}
		case r < 15: // incremental resolve
			if !observe(opResolve, func() error {
				_, err := rs.Resolve(ctx, name)
				return err
			}) {
				return
			}
		case r < 18: // batch: two mutations + one resolve
			if !observe(opBatch, func() error {
				_, err := rs.ApplyBatch(ctx, name, []ses.Mutation{
					ses.UpdateInterestOp(src.IntN(users), src.IntN(events), src.Range(0, 1)),
					ses.AddCompetingOp(core.CompetingEvent{Interval: src.IntN(intervals)},
						map[int]float64{src.IntN(users): src.Range(0.1, 1)}),
				})
				return err
			}) {
				return
			}
		default: // snapshot export
			if !observe(opSnapshot, func() error {
				_, err := st.Snapshot(name)
				return err
			}) {
				return
			}
		}
	}

	// Final commit so the reported utility reflects all mutations.
	if !observe(opResolve, func() error {
		d, err := rs.Resolve(ctx, name)
		if err == nil {
			res.util = d.Utility
		}
		return err
	}) {
		return
	}
	return
}
