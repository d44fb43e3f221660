package main

// -fig obs prices the observability layer against itself: the same
// pipelined batch-commit workload runs once with observability off
// and once with it fully on (root span per request, child spans
// through pipeline/resolve/scoring, hub sink installed), plus two
// microbenchmarks of the obs primitives — span recording into the
// bounded trace ring, and event fan-out through the watch hub with
// live subscribers. The contract the CI re-checks: full tracing costs
// at most obsOverheadPct percent of throughput (enforced only on
// hosts with at least obsFloorCores cores, where the measurement is
// not dominated by scheduler noise).

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"ses"
	"ses/internal/obs"
	"ses/internal/sestest"
)

// obsThroughput compares the serving throughput with observability
// off and on.
type obsThroughput struct {
	Sessions int `json:"sessions"`
	Ops      int `json:"ops"`
	// OffOpsPerSec/OnOpsPerSec are pipelined batch commits per second
	// without/with tracing + hub sink.
	OffOpsPerSec float64 `json:"off_ops_per_sec"`
	OnOpsPerSec  float64 `json:"on_ops_per_sec"`
	// OverheadPct is (off-on)/off*100 — the tracing tax (negative
	// values mean noise, not a speedup).
	OverheadPct float64 `json:"overhead_pct"`
}

// obsTraceRing is the span-recording microbenchmark.
type obsTraceRing struct {
	Spans       int     `json:"spans"`
	NsPerSpan   float64 `json:"ns_per_span"`
	SpansPerSec float64 `json:"spans_per_sec"`
	// RingLen is the traces retained afterwards — must equal the ring
	// bound, proving eviction kept memory bounded.
	RingLen int `json:"ring_len"`
}

// obsFanout is the hub fan-out microbenchmark.
type obsFanout struct {
	Subscribers  int     `json:"subscribers"`
	Events       int     `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Delivered counts subscriber-deliveries: events × subscribers,
	// since every subscriber stays live through the measured phase.
	Delivered uint64 `json:"delivered"`
	// Evicted counts subscribers the hub dropped: exactly the one
	// deliberately stuck subscriber of the eviction phase.
	Evicted uint64 `json:"evicted"`
}

// obsReport is the BENCH_obs.json document.
type obsReport struct {
	host
	Throughput obsThroughput `json:"throughput"`
	TraceRing  obsTraceRing  `json:"trace_ring"`
	Fanout     obsFanout     `json:"fanout"`
}

// The CI-enforced observability contract: tracing everything costs at
// most obsOverheadPct of throughput, enforced when the host has at
// least obsFloorCores cores (below that the two phases time-share
// cores with the pipeline workers and the comparison drowns in
// scheduler noise).
const (
	obsFloorCores  = 4
	obsOverheadPct = 5.0
)

// benchObs measures the observability figure.
func benchObs(ctx context.Context, out io.Writer, e env) (*obsReport, error) {
	rep := &obsReport{host: e.host()}
	tp, err := obsThroughputBench(ctx, e.seed, e.quick, rep.HostCPUs)
	if err != nil {
		return nil, err
	}
	rep.Throughput = *tp
	fmt.Fprintf(out, "throughput: off %.0f ops/s, on %.0f ops/s (%.2f%% overhead)\n",
		tp.OffOpsPerSec, tp.OnOpsPerSec, tp.OverheadPct)

	rep.TraceRing = obsTraceRingBench(e.quick)
	fmt.Fprintf(out, "trace ring: %d spans, %.0f ns/span (%.0f spans/s)\n",
		rep.TraceRing.Spans, rep.TraceRing.NsPerSpan, rep.TraceRing.SpansPerSec)

	rep.Fanout = obsFanoutBench(e.quick)
	fmt.Fprintf(out, "fan-out: %d subscribers × %d events, %.0f events/s, %d delivered, %d evicted\n",
		rep.Fanout.Subscribers, rep.Fanout.Events, rep.Fanout.EventsPerSec, rep.Fanout.Delivered, rep.Fanout.Evicted)
	return rep, nil
}

// checkObs validates an obs artifact: schema always, the overhead
// floor when measured on a big-enough host.
func checkObs(out io.Writer, rep *obsReport) error {
	if err := rep.valid(); err != nil {
		return fmt.Errorf("obs artifact: %w", err)
	}
	tp := rep.Throughput
	if tp.OffOpsPerSec <= 0 || tp.OnOpsPerSec <= 0 {
		return fmt.Errorf("obs artifact: non-positive throughput (%+v)", tp)
	}
	if rep.TraceRing.SpansPerSec <= 0 || rep.TraceRing.RingLen <= 0 {
		return fmt.Errorf("obs artifact: trace-ring section never measured (%+v)", rep.TraceRing)
	}
	fo := rep.Fanout
	if fo.EventsPerSec <= 0 || fo.Delivered == 0 {
		return fmt.Errorf("obs artifact: fan-out section never measured (%+v)", fo)
	}
	if want := uint64(fo.Subscribers) * uint64(fo.Events); fo.Delivered != want {
		return fmt.Errorf("obs artifact: fan-out delivered %d, want subscribers × events = %d: subscribers were evicted mid-measure", fo.Delivered, want)
	}
	if fo.Evicted != 1 {
		return fmt.Errorf("obs artifact: %d subscribers evicted, want exactly the one stuck subscriber", fo.Evicted)
	}
	fmt.Fprintf(out, "obs: off %.0f ops/s, on %.0f ops/s (%.2f%% overhead); ring %.0f spans/s; hub %.0f events/s\n",
		tp.OffOpsPerSec, tp.OnOpsPerSec, tp.OverheadPct,
		rep.TraceRing.SpansPerSec, rep.Fanout.EventsPerSec)
	if !rep.floorApplies(out, fmt.Sprintf("obs floor (<= %.1f%% overhead)", obsOverheadPct), obsFloorCores, false) {
		return nil
	}
	if tp.OverheadPct > obsOverheadPct {
		return fmt.Errorf("observability overhead %.2f%% exceeds the %.1f%% floor", tp.OverheadPct, obsOverheadPct)
	}
	fmt.Fprintf(out, "obs floor ok: %.2f%% overhead (floor %.1f%%)\n", tp.OverheadPct, obsOverheadPct)
	return nil
}

// obsThroughputBench drives the same pipelined batch workload twice —
// once on a bare store, once with full observability (root span per
// request, sink installed) — and prices the difference. Phases
// alternate off/on over several rounds and the best round of each
// wins, so one scheduling hiccup cannot charge either side.
func obsThroughputBench(ctx context.Context, seed uint64, quick bool, cpus int) (*obsThroughput, error) {
	sessions, ops, rounds := 8, 120, 3
	if quick {
		sessions, ops, rounds = 4, 30, 2
	}

	run := func(o *ses.Observability) (float64, error) {
		st := ses.NewStore(ses.WithWorkers(1), ses.WithObservability(o))
		pipe := ses.NewPipeline(st, ses.WithResolveWorkers(cpus))
		defer pipe.Close()
		var tracer *obs.Tracer
		if o != nil {
			tracer = o.Tracer
		}
		shape := sestest.Config{Users: 120, Events: 12, Intervals: 4, Competing: 2}
		names, err := warmSessions(ctx, sessions, "obs", shape, 4, seed, func(int, string) *ses.Store { return st })
		if err != nil {
			return 0, err
		}
		return commitLoad(sessions, ops, shape.Users, shape.Events, func(i int, batch []ses.Mutation) error {
			// With observability on, every op runs exactly like a
			// traced sesd request: root span, child spans through the
			// pipeline and the resolve stages, ring commit at End.
			opCtx, sp := tracer.StartRoot(ctx, obs.SpanHandler, "")
			_, err := pipe.ApplyBatch(opCtx, names[i], batch)
			sp.End()
			return err
		})
	}

	tp := &obsThroughput{Sessions: sessions, Ops: ops}
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		off, err := run(nil)
		if err != nil {
			return nil, fmt.Errorf("obs-off phase: %w", err)
		}
		on, err := run(ses.NewObservability(ses.ObservabilityOptions{}))
		if err != nil {
			return nil, fmt.Errorf("obs-on phase: %w", err)
		}
		tp.OffOpsPerSec = max(tp.OffOpsPerSec, off)
		tp.OnOpsPerSec = max(tp.OnOpsPerSec, on)
	}
	tp.OverheadPct = (tp.OffOpsPerSec - tp.OnOpsPerSec) / tp.OffOpsPerSec * 100
	return tp, nil
}

// obsTraceRingBench prices raw span recording: root + three children
// per trace, committed into a 512-trace ring under sustained
// eviction.
func obsTraceRingBench(quick bool) obsTraceRing {
	traces := 50_000
	if quick {
		traces = 5_000
	}
	tracer := obs.NewTracer(obs.TracerOptions{})
	t0 := time.Now()
	for i := 0; i < traces; i++ {
		ctx, root := tracer.StartRoot(context.Background(), obs.SpanHandler, "")
		for _, name := range [...]string{obs.SpanPipeline, obs.SpanResolve, obs.SpanScoring} {
			_, sp := obs.StartSpan(ctx, name)
			sp.SetAttr("i", i)
			sp.End()
		}
		root.End()
	}
	wall := time.Since(t0)
	spans := traces * 4
	return obsTraceRing{
		Spans:       spans,
		NsPerSpan:   float64(wall.Nanoseconds()) / float64(spans),
		SpansPerSec: float64(spans) / wall.Seconds(),
		RingLen:     tracer.Len(),
	}
}

// obsFanoutBench prices hub publishing under live, draining
// subscribers, then checks the eviction path with one deliberately
// stuck subscriber.
func obsFanoutBench(quick bool) obsFanout {
	subs, events := 16, 20_000
	if quick {
		subs, events = 8, 2_000
	}
	hub := obs.NewHub()
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		// Publishing outruns the draining goroutines, so a subscriber
		// buffering fewer than every event would fill up and be
		// evicted mid-measure, leaving the hub publishing to nobody.
		sub := hub.Subscribe("bench", events)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.Events() {
			}
		}()
	}
	type payload struct {
		Seq       int     `json:"seq"`
		Utility   float64 `json:"utility"`
		Scheduled int     `json:"scheduled"`
	}
	var delivered uint64
	t0 := time.Now()
	for i := 0; i < events; i++ {
		delivered += uint64(hub.Publish("bench", "progress", payload{Seq: i, Utility: float64(i), Scheduled: i % 7}))
	}
	wall := time.Since(t0)
	hub.CloseSession("bench")
	wg.Wait()

	// Eviction phase: a 1-slot subscriber that never reads must be
	// dropped by the second publish without blocking the publisher.
	hub.Subscribe("stuck", 1)
	hub.Publish("stuck", "progress", payload{})
	hub.Publish("stuck", "progress", payload{})
	return obsFanout{
		Subscribers:  subs,
		Events:       events,
		EventsPerSec: float64(events) / wall.Seconds(),
		Delivered:    delivered,
		Evicted:      hub.Stats().Evicted,
	}
}
