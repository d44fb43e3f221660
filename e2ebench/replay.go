package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ses"
	"ses/internal/choice"
	"ses/internal/cluster"
	"ses/internal/core"
	"ses/internal/dataset"
	"ses/internal/session"
	"ses/internal/solver"
	"ses/internal/store"
)

// The in-process half of the traced run: the step streams the traced
// HTTP pass recorded are replayed through each layer's public Go entry
// points, bottom-up, with the same client concurrency. Every call gets
// a span; a layer's self time on a step is its span minus the span of
// the layer below it on the same step.

// recorder collects one replaying client's spans and, for each
// measured step, the total time under each span name.
type recorder struct {
	client int
	epoch  time.Time
	trace  uint64
	nextID uint64
	spans  []span
	// steps[j] maps span name to time for measured step j; cur is the
	// current step's map (nil during warm-up steps).
	steps []map[string]time.Duration
	cur   map[string]time.Duration
}

func newRecorders(n int, epoch time.Time) []*recorder {
	rs := make([]*recorder, n)
	for i := range rs {
		rs[i] = &recorder{client: i, epoch: epoch}
	}
	return rs
}

// begin starts step k of the client's stream.
func (r *recorder) begin(k, measured int) {
	r.trace = uint64(r.client+1)<<40 | uint64(k+1)
	r.cur = nil
	if measured >= 0 {
		for len(r.steps) <= measured {
			r.steps = append(r.steps, map[string]time.Duration{})
		}
		r.cur = r.steps[measured]
	}
}

// record adds one finished call.
func (r *recorder) record(name string, t0, t1 time.Time) {
	r.nextID++
	r.spans = append(r.spans, span{Trace: r.trace, ID: uint64(r.client+1)<<56 | 1<<55 | r.nextID, Parent: r.trace, Name: name,
		Start: t0.Sub(r.epoch).Nanoseconds(), End: t1.Sub(r.epoch).Nanoseconds()})
	if r.cur != nil {
		r.cur[name] += t1.Sub(t0)
	}
}

// time runs fn under a span.
func (r *recorder) time(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	r.record(name, t0, time.Now())
	return err
}

// timedBackend times the backend calls a Pipeline makes, so the
// pipeline's own share of a call can be split off. Each client has at
// most one request in flight per session, so the last call per session
// is the one its caller just waited for.
type timedBackend struct {
	store.Backend
	mu   sync.Mutex
	last map[string][2]time.Time
}

func (b *timedBackend) note(name string, t0 time.Time) {
	b.mu.Lock()
	b.last[name] = [2]time.Time{t0, time.Now()}
	b.mu.Unlock()
}

func (b *timedBackend) ApplyBatch(ctx context.Context, name string, muts []store.Mutation) (*store.BatchResult, error) {
	t0 := time.Now()
	defer b.note(name, t0)
	return b.Backend.ApplyBatch(ctx, name, muts)
}

func (b *timedBackend) Resolve(ctx context.Context, name string) (*session.Delta, error) {
	t0 := time.Now()
	defer b.note(name, t0)
	return b.Backend.Resolve(ctx, name)
}

func (b *timedBackend) take(name string) (time.Time, time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.last[name]
	return t[0], t[1]
}

// replayer replays every client's recorded stream through the layer
// stack one step at a time: each step runs on every layer's twin of
// its session, bottom-up, before the next step starts, so the two
// spans a self time subtracts are taken moments apart under the same
// load.
type replayer struct {
	in    *inputs
	recs  [][]stepRec
	epoch time.Time
	rs    []*recorder
}

// run calls step for each recorded step, in order, on one goroutine
// per client.
func (rp *replayer) run(step func(r *recorder, c int, rec stepRec) error) error {
	rp.rs = newRecorders(len(rp.recs), rp.epoch)
	errs := make([]error, len(rp.recs))
	var wg sync.WaitGroup
	for c := range rp.recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, rec := range rp.recs[c] {
				rp.rs[c].begin(k, rec.measured)
				if err := step(rp.rs[c], c, rec); err != nil {
					errs[c] = fmt.Errorf("replay, client %d step %d: %w", c, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// diverged reports an in-process result that differs from what the
// daemons committed on the same step.
func diverged(rec stepRec, got float64) error {
	if rec.writeOK && got != rec.utility {
		return fmt.Errorf("utility %v, the daemons committed %v", got, rec.utility)
	}
	return nil
}

// pipelinedStore is a memory Store under the resolve pipeline, as sesd
// runs it, with the pipeline's backend calls timed.
func pipelinedStore() (*store.Store, *timedBackend, *store.Pipeline) {
	st := store.New(session.Options{})
	tb := &timedBackend{Backend: st, last: map[string][2]time.Time{}}
	return st, tb, store.NewPipeline(tb, store.PipelineOptions{})
}

// replayBatch replays an edit workload. Each session has a twin per
// layer: a bare scheduler (Mutation.ApplyTo, Scheduler.Resolve), a
// memory store under the resolve pipeline, and on replicated-commit
// its primary in an in-process three-node cluster (DurableStore.ApplyBatch,
// then Node.AwaitAck). It returns the instances sampled for
// from-scratch solves.
func (rp *replayer) replayBatch(ctx context.Context, work string) ([]*core.Instance, error) {
	in, k := rp.in, rp.in.spec.inst.K
	names := make([]string, len(in.docs))
	scheds := make([]*session.Scheduler, len(in.docs))
	st, tb, pipe := pipelinedStore()
	defer pipe.Close()
	for i, d := range in.docs {
		names[i] = sessionName(in.spec, i)
		s, err := session.New(d.inst, k, session.Options{})
		if err != nil {
			return nil, err
		}
		if _, err := s.Resolve(ctx); err != nil {
			return nil, err
		}
		scheds[i] = s
		if err := st.CreateWithObjective(names[i], d.inst, k, nil); err != nil {
			return nil, err
		}
		if _, err := st.Resolve(ctx, names[i]); err != nil {
			return nil, err
		}
	}
	var primary []*inprocNode
	if in.spec.cluster {
		nodes, closeAll, err := bootCluster(filepath.Join(work, "inproc-cluster"))
		if err != nil {
			return nil, err
		}
		defer closeAll()
		byID := map[string]*inprocNode{}
		for _, n := range nodes {
			byID[n.id] = n
		}
		ring := nodes[0].node.Ring()
		obj, _ := choice.ParseObjective("")
		for i, d := range in.docs {
			p := byID[ring.Primary(names[i])]
			if err := p.store.CreateWithObjective(names[i], d.inst, k, obj); err != nil {
				return nil, err
			}
			if _, err := p.store.Resolve(ctx, names[i]); err != nil {
				return nil, err
			}
			if err := p.node.AwaitAck(ctx, names[i]); err != nil {
				return nil, err
			}
			primary = append(primary, p)
		}
	}

	const samples = 8
	stride := max(1, len(rp.recs[0])/samples)
	var sampled []*core.Instance
	err := rp.run(func(r *recorder, c int, rec stepRec) error {
		name, s := names[rec.sess], scheds[rec.sess]
		if err := r.time("session.apply", func() error { _, err := rec.mut.ApplyTo(s); return err }); err != nil {
			return err
		}
		var d *session.Delta
		if err := r.time("session.resolve", func() (err error) { d, err = s.Resolve(ctx); return err }); err != nil {
			return err
		}
		if err := diverged(rec, d.Utility); err != nil {
			return err
		}
		if c == 0 && rec.measured >= 0 && rec.measured%stride == 0 && len(sampled) < samples {
			sampled = append(sampled, s.Instance())
		}

		var res *store.BatchResult
		err := r.time("store.pipeline_apply_batch", func() (err error) {
			res, err = pipe.ApplyBatch(ctx, name, []store.Mutation{rec.mut})
			return err
		})
		if err != nil {
			return err
		}
		t0, t1 := tb.take(name)
		r.record("store.apply_batch", t0, t1)
		if err := diverged(rec, res.Delta.Utility); err != nil || primary == nil {
			return err
		}

		p := primary[rec.sess]
		err = r.time("wal.durable_apply_batch", func() (err error) {
			res, err = p.store.ApplyBatch(ctx, name, []store.Mutation{rec.mut})
			return err
		})
		if err != nil {
			return err
		}
		if err := r.time("cluster.await_ack", func() error { return p.node.AwaitAck(ctx, name) }); err != nil {
			return err
		}
		return diverged(rec, res.Delta.Utility)
	})
	return sampled, err
}

// createReq mirrors the body of sesd's POST /v1/sessions.
type createReq struct {
	Name      string               `json:"name"`
	K         int                  `json:"k"`
	Objective string               `json:"objective,omitempty"`
	Instance  *dataset.InstanceDoc `json:"instance"`
}

// decodeCreate decodes a create body the way sesd does.
func decodeCreate(body []byte) (*createReq, *core.Instance, choice.Objective, error) {
	var req createReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, nil, err
	}
	obj, err := choice.ParseObjective(req.Objective)
	if err != nil {
		return nil, nil, nil, err
	}
	inst, err := req.Instance.Instance()
	return &req, inst, obj, err
}

// replayCold replays cold-create. Each step decodes its create body,
// then creates and first-resolves the instance on a bare scheduler,
// on a memory store (the resolve through the pipeline) and on a
// durable store with sesd's WAL settings, deleting it from both
// stores again.
func (rp *replayer) replayCold(ctx context.Context, work string) error {
	in := rp.in
	bodies := make([][][]byte, len(rp.recs))
	for c := range rp.recs {
		for d, doc := range in.docs {
			bodies[c] = append(bodies[c], createBody(coldName(c, d), in.spec.inst.K, doc))
		}
	}
	st, tb, pipe := pipelinedStore()
	defer pipe.Close()
	dir := filepath.Join(work, "inproc-durable")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	dur, err := ses.OpenStore(ses.WithDurability(dir), ses.WithSyncPolicy(ses.SyncAlways),
		ses.WithGroupCommit(ses.GroupCommit{Enabled: true}))
	if err != nil {
		return err
	}
	defer dur.Close()
	return rp.run(func(r *recorder, c int, rec stepRec) error {
		var req *createReq
		var inst *core.Instance
		var obj choice.Objective
		err := r.time("dataset.decode", func() (err error) {
			req, inst, obj, err = decodeCreate(bodies[c][rec.sess])
			return err
		})
		if err != nil {
			return err
		}
		var s *session.Scheduler
		if err := r.time("session.new", func() (err error) { s, err = session.New(inst, req.K, session.Options{}); return err }); err != nil {
			return err
		}
		var d *session.Delta
		if err := r.time("session.resolve", func() (err error) { d, err = s.Resolve(ctx); return err }); err != nil {
			return err
		}
		if err := diverged(rec, d.Utility); err != nil {
			return err
		}

		if err := r.time("store.create", func() error { return st.CreateWithObjective(req.Name, inst, req.K, obj) }); err != nil {
			return err
		}
		if err := r.time("store.pipeline_resolve", func() (err error) { d, err = pipe.Resolve(ctx, req.Name); return err }); err != nil {
			return err
		}
		t0, t1 := tb.take(req.Name)
		r.record("store.resolve", t0, t1)
		if err := st.Delete(req.Name); err != nil {
			return err
		}
		if err := diverged(rec, d.Utility); err != nil {
			return err
		}

		if err := r.time("wal.durable_create", func() error { return dur.CreateWithObjective(req.Name, inst, req.K, obj) }); err != nil {
			return err
		}
		if err := r.time("wal.durable_resolve", func() (err error) { d, err = dur.Resolve(ctx, req.Name); return err }); err != nil {
			return err
		}
		if err := dur.Delete(req.Name); err != nil {
			return err
		}
		return diverged(rec, d.Utility)
	})
}

// inprocNode is one member of the in-process cluster: a durable store
// with sesd's WAL settings and the replication layer with
// -replicate-ack 1, served over loopback.
type inprocNode struct {
	id     string
	store  *ses.DurableStore
	node   *cluster.Node
	server *httptest.Server
}

// swapHandler answers 503 until its handler is set, so every node's
// URL exists before any node starts.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "booting", http.StatusServiceUnavailable)
}

// bootCluster brings up three replicated durable nodes full-mesh on
// loopback, the way sesbench -fig cluster does, with sesd's default
// shipping settings. closeAll stops nodes, then servers, then stores.
func bootCluster(dir string) ([]*inprocNode, func(), error) {
	os.RemoveAll(dir)
	nodes := make([]*inprocNode, 3)
	urls := map[string]string{}
	swaps := make([]*swapHandler, len(nodes))
	for i := range nodes {
		swaps[i] = &swapHandler{}
		nodes[i] = &inprocNode{id: fmt.Sprintf("n%d", i+1), server: httptest.NewServer(swaps[i])}
		urls[nodes[i].id] = nodes[i].server.URL
	}
	closeAll := func() {
		for _, n := range nodes {
			if n.node != nil {
				n.node.Close()
			}
		}
		for _, n := range nodes {
			n.server.CloseClientConnections()
			n.server.Close()
		}
		for _, n := range nodes {
			if n.store != nil {
				n.store.Close()
			}
		}
		os.RemoveAll(dir)
	}
	for i, n := range nodes {
		d, err := ses.OpenStore(ses.WithDurability(filepath.Join(dir, n.id)), ses.WithSyncPolicy(ses.SyncAlways),
			ses.WithGroupCommit(ses.GroupCommit{Enabled: true}))
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		n.store = d
		node, err := cluster.NewNode(d, cluster.NodeOptions{ID: n.id, Peers: urls, ReplicateAck: 1})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		n.node = node
		swaps[i].h.Store(node.Handler())
		node.Start()
	}
	return nodes, closeAll, nil
}

// scratchTimes solves each sampled instance from scratch with GRD.
func scratchTimes(ctx context.Context, insts []*core.Instance, k int) ([]float64, error) {
	var out []float64
	for _, inst := range insts {
		t0 := time.Now()
		if _, err := solver.NewGRD(solver.Config{}).Solve(ctx, inst, k); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}

// engineTimes prices the default engine on an instance: nanoseconds
// per Score over every (e,t) pair, and per Apply plus Unapply over
// every pair valid on the empty schedule. Each figure is the median
// of passes over all pairs.
func engineTimes(inst *core.Instance) (scoreNs, applyNs float64, err error) {
	eng := solver.DefaultEngine(inst)
	nE, nT := inst.NumEvents(), inst.NumIntervals
	var scores, applies []float64
	var sink float64
	for pass := 0; pass < 7; pass++ {
		t0 := time.Now()
		for e := 0; e < nE; e++ {
			for t := 0; t < nT; t++ {
				sink += eng.Score(e, t)
			}
		}
		scores = append(scores, float64(time.Since(t0).Nanoseconds())/float64(nE*nT))
		n := 0
		t0 = time.Now()
		for e := 0; e < nE; e++ {
			for t := 0; t < nT; t++ {
				if eng.Apply(e, t) != nil {
					continue
				}
				if err := eng.Unapply(e); err != nil {
					return 0, 0, err
				}
				n++
			}
		}
		if n == 0 {
			return 0, 0, fmt.Errorf("no valid assignment to apply")
		}
		applies = append(applies, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	if sink < 0 {
		return 0, 0, fmt.Errorf("negative score sum %v", sink)
	}
	return median(scores), median(applies), nil
}

// decodeAndCreateTimes prices instance decode and Store.CreateWithObjective
// on the workload's create bodies (edit workloads create only at
// set-up, so these are timed apart from the step stream).
func decodeAndCreateTimes(in *inputs) (decode, create []float64, err error) {
	st := store.New(session.Options{})
	for rep := 0; rep < 5; rep++ {
		for i, d := range in.docs {
			body := createBody(fmt.Sprintf("price-%d", i), in.spec.inst.K, d)
			t0 := time.Now()
			req, inst, obj, err := decodeCreate(body)
			if err != nil {
				return nil, nil, err
			}
			decode = append(decode, ms(time.Since(t0)))
			t0 = time.Now()
			if err := st.CreateWithObjective(req.Name, inst, req.K, obj); err != nil {
				return nil, nil, err
			}
			create = append(create, ms(time.Since(t0)))
			if err := st.Delete(req.Name); err != nil {
				return nil, nil, err
			}
		}
	}
	return decode, create, nil
}
