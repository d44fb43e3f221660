package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ses/internal/store"
)

// tracedRun is the traced run: the same seed and steps as one round of
// an untraced run, driven with benchmark-side spans on every other
// step, then replayed in-process layer by layer. It never feeds the
// end-to-end metrics.
func tracedRun(ctx context.Context, e *env, in *inputs, steps int) (map[string]metric, *phase, error) {
	sp := in.spec
	// The traced pass: a span around every HTTP call of alternate
	// steps, the daemons' counters read from outside.
	dir := roundDir(e, in, "traced", 0)
	rd, err := setupRound(ctx, e, in, dir)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	defer rd.close()
	rd.alternate = true
	before, err := rd.dep.nodeMetrics(ctx)
	if err != nil {
		return nil, nil, err
	}
	bytes0 := rd.dep.dataBytes()
	lagMax, stopLag := rd.dep.sampleLag(ctx)
	ph, err := rd.measure(ctx, steps)
	stopLag()
	if err != nil {
		return nil, nil, err
	}
	after, err := rd.dep.nodeMetrics(ctx)
	if err != nil {
		return nil, nil, err
	}
	bytes1 := rd.dep.dataBytes()
	if err := rd.finalChecks(ctx); err != nil {
		return nil, nil, err
	}
	floor, err := rd.floorProbe(ctx)
	if err != nil {
		return nil, nil, err
	}
	var direct [][]stepRec
	if sp.cluster {
		if direct, err = rd.directPass(ctx); err != nil {
			return nil, nil, err
		}
	}
	var spans []span
	for _, c := range rd.clients {
		spans = append(spans, c.spans...)
	}
	// Stop the daemons so they do not compete with the replay for CPU;
	// the deferred close then finds them gone.
	rd.close()

	// In-process replay, bottom-up. An edit whose write failed may or
	// may not have committed, so the replay could not follow the
	// session from there.
	if !sp.create {
		for c, rs := range rd.recs {
			for k, r := range rs {
				if !r.writeOK {
					return nil, nil, fmt.Errorf("traced pass: write %d of client %d failed; the replay needs every edit acknowledged", k, c)
				}
			}
		}
	}
	rp := &replayer{in: in, recs: rd.recs, epoch: time.Now()}
	var sampled []float64
	if sp.create {
		err = rp.replayCold(ctx, e.work)
		for _, d := range in.docs {
			sampled = append(sampled, ms(d.grdTime))
		}
	} else {
		insts, rerr := rp.replayBatch(ctx, e.work)
		if err = rerr; err == nil {
			sampled, err = scratchTimes(ctx, insts, sp.inst.K)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	for _, r := range rp.rs {
		spans = append(spans, r.spans...)
	}
	if err := writeSpans(e, in, spans); err != nil {
		return nil, nil, err
	}

	m, err := layerMetrics(in, ph, direct, rp, floor, sampled)
	if err != nil {
		return nil, nil, err
	}
	// Counters the daemons report, read from outside.
	var d counterDelta
	for i := range after {
		d.add(before[i], after[i])
	}
	n := float64(ph.steps)
	m["store.pipeline_rejected_share"] = val(ratio(d.rejected, d.submitted), "share", int(d.submitted))
	m["wal.fsyncs_per_op"] = val(float64(d.fsyncs)/n, "fsyncs/op", ph.steps)
	m["wal.records_per_fsync"] = val(ratio(d.appends, d.fsyncs), "records/fsync", int(d.fsyncs))
	m["wal.bytes_per_op"] = val(float64(bytes1-bytes0)/n, "B/op", ph.steps)
	m["cluster.shipped_bytes_per_op"] = val(float64(d.shipped)/n, "B/op", ph.steps)
	m["cluster.follower_lag_records_max"] = val(float64(*lagMax), "records", ph.steps)
	return m, ph, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// counterDelta sums the growth of the daemons' own counters.
type counterDelta struct {
	submitted, rejected, appends, fsyncs, shipped uint64
}

func (d *counterDelta) add(a, b metricsDoc) {
	if a.Pipeline != nil && b.Pipeline != nil {
		d.submitted += b.Pipeline.Submitted - a.Pipeline.Submitted
		d.rejected += b.Pipeline.Rejected - a.Pipeline.Rejected
	}
	if a.WAL != nil && b.WAL != nil {
		d.appends += b.WAL.Appends - a.WAL.Appends
		d.fsyncs += b.WAL.Fsyncs - a.WAL.Fsyncs
	}
	if a.Replication != nil && b.Replication != nil {
		d.shipped += b.Replication.BytesShipped - a.Replication.BytesShipped
	}
}

// sampleLag polls every node's follower lag every 250ms until stop is
// called and keeps the maximum.
func (dep *deployment) sampleLag(ctx context.Context) (*uint64, func()) {
	lagMax := new(uint64)
	if len(dep.nodes) < 2 {
		return lagMax, func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			docs, err := dep.nodeMetrics(ctx)
			if err != nil {
				continue
			}
			for _, d := range docs {
				if d.Replication != nil && d.Replication.FollowerLagRecords > *lagMax {
					*lagMax = d.Replication.FollowerLagRecords
				}
			}
		}
	}()
	return lagMax, func() {
		close(done)
		wg.Wait()
	}
}

// floorProbe times the lock-free GET /v1/sessions/{name} against the
// session's own node: 200 probes per client, after the traced pass.
func (rd *round) floorProbe(ctx context.Context) ([]float64, error) {
	sp := rd.in.spec
	names := make([]string, len(rd.in.docs))
	for i := range names {
		names[i] = sessionName(sp, i)
	}
	if sp.create {
		// cold-create deletes what it creates; probe one session made
		// for the purpose.
		c := rd.clients[0]
		r := c.call(ctx, http.MethodPost, rd.dep.front+"/v1/sessions", createBody("floor", sp.inst.K, rd.in.docs[0]), "http.create")
		if !r.ok() {
			return nil, fmt.Errorf("creating the floor session: %v", r)
		}
		for i := range names {
			names[i] = "floor"
		}
	}
	out := make([][]float64, len(rd.clients))
	err := rd.eachClient(func(c *client) error {
		own := rd.in.owned(c.id)
		for j := 0; j < 200; j++ {
			name := names[own[j%len(own)]]
			r := c.call(ctx, http.MethodGet, rd.dep.primary(name)+"/v1/sessions/"+name, nil, "http.floor")
			if !r.ok() {
				return fmt.Errorf("floor probe of %s: %v", name, r)
			}
			out[c.id] = append(out[c.id], ms(r.dur))
		}
		return nil
	})
	var all []float64
	for _, o := range out {
		all = append(all, o...)
	}
	return all, err
}

// directPass replays the traced pass's step streams on a twin set of
// sessions, sent straight to each twin's primary (placed by
// ses.NewClusterRing, as the nodes place it) instead of through the
// router. It returns each client's steps, warm-up first.
func (rd *round) directPass(ctx context.Context) ([][]stepRec, error) {
	in := rd.in
	twins := make([]*model, len(in.docs))
	bases := make([]string, len(in.docs))
	for i, d := range in.docs {
		twins[i] = newModel(sessionName(in.spec, i)+"-direct", modelSeed(in.seed, i), d)
		bases[i] = rd.dep.primary(twins[i].name)
	}
	out := make([][]stepRec, len(rd.clients))
	err := rd.eachClient(func(c *client) error {
		for _, i := range in.owned(c.id) {
			if err := rd.createSession(ctx, c, bases[i], twins[i], in.docs[i]); err != nil {
				return err
			}
		}
		for k, rec := range rd.recs[c.id] {
			c.trace = uint64(c.id+1)<<40 | 1<<39 | uint64(k+1)
			t0 := time.Now()
			got, err := rd.batchStep(ctx, c, bases[rec.sess], twins[rec.sess], rec.mut)
			c.endStep("step.direct", t0)
			if err != nil {
				return err
			}
			if !got.writeOK || !got.readOK {
				return fmt.Errorf("direct step %d of client %d failed", k, c.id)
			}
			got.sess, got.measured = rec.sess, rec.measured
			out[c.id] = append(out[c.id], got)
		}
		return nil
	})
	return out, err
}

// writeSpans dumps every span of the traced run to the work directory.
func writeSpans(e *env, in *inputs, spans []span) error {
	path := filepath.Join(e.work, fmt.Sprintf("spans-%s-seed%d.json", in.spec.name, in.seed))
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// measuredOf flattens each client's measured steps in client order.
func measuredOf(recs [][]stepRec) [][]stepRec {
	out := make([][]stepRec, len(recs))
	for c, rs := range recs {
		for _, r := range rs {
			if r.measured >= 0 {
				out[c] = append(out[c], r)
			}
		}
	}
	return out
}

// layerMetrics computes the per-layer metrics from the traced pass, the
// direct pass and the in-process replay. Layers a workload's requests
// never reach report 0 (no router, WAL or replication on edit-warm).
func layerMetrics(in *inputs, ph *phase, direct [][]stepRec, rp *replayer, floor, scratch []float64) (map[string]metric, error) {
	sp := in.spec
	m := map[string]metric{}
	dir := measuredOf(direct)
	floorMs := median(floor)
	var (
		resolve, storeSelf, pipeSelf, walSelf, ack, routerSelf, unattr []float64
		decode, create, reads                                          []float64
		replicaReads, allReads                                         int
	)
	var cnt struct{ initial, updates, bounds, pops, scans, n float64 }
	// byOp holds each mutation kind's untraced [0] and traced [1] writes.
	byOp := map[store.Op][2][]float64{}
	for c, steps := range ph.measured {
		for j, rec := range steps {
			if !rec.writeOK {
				continue
			}
			if j >= len(rp.rs[c].steps) {
				return nil, fmt.Errorf("replay of client %d has %d measured steps, traced pass %d", c, len(rp.rs[c].steps), len(steps))
			}
			t := rp.rs[c].steps[j]
			get := func(name string) float64 { return ms(t[name]) }
			w := ms(rec.write)
			ws, i := byOp[rec.mut.Op], 0
			if rec.traced {
				i = 1
			}
			ws[i] = append(ws[i], w)
			byOp[rec.mut.Op] = ws
			if rec.readOK {
				allReads++
				if rec.replica {
					replicaReads++
				}
				if !sp.cluster {
					reads = append(reads, ms(rec.read))
				}
			}
			cnt.initial += float64(rec.counters.InitialScores)
			cnt.updates += float64(rec.counters.ScoreUpdates)
			cnt.bounds += float64(rec.counters.BoundUpdates)
			cnt.pops += float64(rec.counters.Pops)
			cnt.scans += float64(rec.counters.ListScans)
			cnt.n++
			if sp.create {
				st := get("store.create") + get("store.resolve")
				ss := st - get("session.new") - get("session.resolve")
				ps := get("store.pipeline_resolve") - get("store.resolve")
				ws := get("wal.durable_create") + get("wal.durable_resolve") - st
				resolve = append(resolve, get("session.resolve"))
				decode = append(decode, get("dataset.decode"))
				create = append(create, get("store.create"))
				storeSelf, pipeSelf, walSelf = append(storeSelf, ss), append(pipeSelf, ps), append(walSelf, ws)
				unattr = append(unattr, w-get("dataset.decode")-st-ps-ws-2*floorMs)
				continue
			}
			sess := get("session.apply") + get("session.resolve")
			resolve = append(resolve, get("session.resolve"))
			storeSelf = append(storeSelf, get("store.apply_batch")-sess)
			pipeSelf = append(pipeSelf, get("store.pipeline_apply_batch")-get("store.apply_batch"))
			attributed := get("store.pipeline_apply_batch") + floorMs
			if sp.cluster {
				ws := get("wal.durable_apply_batch") - get("store.apply_batch")
				rs := w - ms(dir[c][j].write)
				walSelf, ack, routerSelf = append(walSelf, ws), append(ack, get("cluster.await_ack")), append(routerSelf, rs)
				attributed += ws + get("cluster.await_ack") + rs
			}
			unattr = append(unattr, w-attributed)
		}
	}
	if sp.cluster {
		for _, steps := range dir {
			for _, rec := range steps {
				reads = append(reads, ms(rec.read))
			}
		}
	}
	if !sp.create {
		// Edit workloads decode and create only at set-up.
		var err error
		if decode, create, err = decodeAndCreateTimes(in); err != nil {
			return nil, err
		}
	}
	m["dataset.decode_ms"] = val(median(decode), "ms", len(decode))
	m["store.create_ms"] = val(median(create), "ms", len(create))
	var kb []float64
	for i, d := range in.docs {
		kb = append(kb, float64(len(createBody(sessionName(sp, i), sp.inst.K, d)))/1024)
	}
	m["dataset.body_kb"] = val(median(kb), "KB", len(kb))
	m["sesd.floor_ms"] = val(floorMs, "ms", len(floor))
	m["sesd.read_ms"] = val(median(reads), "ms", len(reads))
	m["sesrouter.self_ms"] = medianOr0(routerSelf, "ms")
	m["sesrouter.replica_read_share"] = val(ratio(uint64(replicaReads), uint64(allReads)), "share", allReads)
	m["store.self_ms"] = val(median(storeSelf), "ms", len(storeSelf))
	m["store.pipeline_self_ms"] = val(median(pipeSelf), "ms", len(pipeSelf))
	m["wal.self_ms"] = medianOr0(walSelf, "ms")
	m["session.resolve_ms"] = val(median(resolve), "ms", len(resolve))
	perOp := func(x float64) metric { return val(x/max(cnt.n, 1), "count/op", int(cnt.n)) }
	m["session.initial_scores_per_op"] = perOp(cnt.initial)
	m["session.score_updates_per_op"] = perOp(cnt.updates)
	m["session.bound_updates_per_op"] = perOp(cnt.bounds)
	m["session.pops_per_op"] = perOp(cnt.pops)
	m["session.list_scans_per_op"] = perOp(cnt.scans)
	m["solver.scratch_ms"] = val(median(scratch), "ms", len(scratch))
	scoreNs, applyNs, err := engineTimes(in.docs[0].inst)
	if err != nil {
		return nil, err
	}
	pairs := in.docs[0].inst.NumEvents() * in.docs[0].inst.NumIntervals
	m["choice.score_ns"] = val(scoreNs, "ns", pairs)
	m["choice.apply_ns"] = val(applyNs, "ns", pairs)
	m["cluster.ack_wait_ms"] = medianOr0(ack, "ms")
	if len(ack) > 0 {
		m["cluster.ack_wait_p99_ms"] = pctMetric(ack, 99)
	} else {
		m["cluster.ack_wait_p99_ms"] = val(0, "ms", 0)
	}
	m["unattributed_ms"] = val(median(unattr), "ms", len(unattr))
	m["trace_overhead_pct"] = traceOverhead(byOp)
	return m, nil
}

// traceOverhead compares traced and untraced writes of the same
// traced pass, which alternate on the same daemons, so the host's drift
// between processes does not enter. It takes the difference of the two
// medians per mutation kind and weights it by the kind's share of the
// writes, so a different mix of kinds in the two halves does not enter
// either; the result is a share of the untraced writes' median.
func traceOverhead(byOp map[store.Op][2][]float64) metric {
	var diff, base, n float64
	for _, w := range byOp {
		if len(w[0]) == 0 || len(w[1]) == 0 {
			continue
		}
		k := float64(len(w[0]) + len(w[1]))
		diff += k * (median(w[1]) - median(w[0]))
		base += k * median(w[0])
		n += k
	}
	if n == 0 {
		return metric{Unit: "%", Note: "missing: needs traced and untraced writes of one kind"}
	}
	return val(100*diff/base, "%", int(n))
}

// medianOr0 reports a layer the workload's requests never reach as 0.
func medianOr0(xs []float64, unit string) metric {
	if len(xs) == 0 {
		m := val(0, unit, 0)
		m.Note = "layer not on this workload's request path"
		return m
	}
	return val(median(xs), unit, len(xs))
}
