package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"ses/internal/core"
	"ses/internal/session"
	"ses/internal/solver"
	"ses/internal/store"
)

// env locates the daemon binaries and the run's scratch directory.
type env struct {
	sesd, sesrouter string
	work            string
}

// reply is one finished HTTP exchange.
type reply struct {
	status int
	header http.Header
	body   []byte
	start  time.Time
	dur    time.Duration
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status/100 == 2 }

func (r reply) String() string {
	if r.err != nil {
		return r.err.Error()
	}
	return fmt.Sprintf("HTTP %d: %s", r.status, bytes.TrimSpace(r.body))
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// span is one benchmark-side timing record. Spans of one step share
// Trace; Parent 0 marks a step's root.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// client is one closed-loop load generator with one keep-alive
// connection per daemon it talks to.
type client struct {
	id int
	hc *http.Client
	// counting is on during the measured phase: every request then
	// counts toward attempted, and every transport error or non-2xx
	// answer toward failed. There are no retries.
	counting          bool
	attempted, failed int
	// tracing records a span around every request into spans, under
	// the current step's trace ID.
	tracing bool
	epoch   time.Time
	trace   uint64
	nextID  uint64
	spans   []span
	// bodies are cold-create's pre-encoded create bodies, one per pool
	// document, named for this client.
	bodies [][]byte
}

func newClient(id int, epoch time.Time) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{id: id, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, epoch: epoch}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) call(ctx context.Context, method, url string, body []byte, name string) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r := reply{start: time.Now()}
	resp, err := c.hc.Do(req)
	if err == nil {
		r.status, r.header = resp.StatusCode, resp.Header
		r.body, err = readAll(resp)
	}
	r.dur, r.err = time.Since(r.start), err
	if c.counting {
		c.attempted++
		if !r.ok() {
			c.failed++
		}
	}
	if c.tracing {
		c.nextID++
		c.spans = append(c.spans, span{Trace: c.trace, ID: uint64(c.id+1)<<56 | c.nextID, Parent: c.trace, Name: name,
			Start: r.start.Sub(c.epoch).Nanoseconds(), End: r.start.Add(r.dur).Sub(c.epoch).Nanoseconds()})
	}
	return r
}

// endStep records the root span of the current step (its ID is the
// step's trace ID) when tracing.
func (c *client) endStep(name string, t0 time.Time) {
	if c.tracing {
		c.spans = append(c.spans, span{Trace: c.trace, ID: c.trace, Name: name,
			Start: t0.Sub(c.epoch).Nanoseconds(), End: time.Since(c.epoch).Nanoseconds()})
	}
}

// stepRec is what one step did and how long it took.
type stepRec struct {
	sess int
	mut  store.Mutation
	// measured is the step's index in its client's measured phase, -1
	// for a warm-up step.
	measured        int
	write, read     time.Duration
	writeOK, readOK bool
	replica         bool
	// traced is set when the step ran with benchmark-side spans.
	traced   bool
	counters solver.Counters
	utility  float64
}

type batchReq struct {
	Mutations []store.Mutation `json:"mutations"`
}

type scheduleResp struct {
	Assignments []core.Assignment `json:"assignments"`
	Utility     float64           `json:"utility"`
}

// round is one set-up deployment with its sessions, warm and ready
// for the measured phase.
type round struct {
	in      *inputs
	dep     *deployment
	clients []*client
	models  []*model
	// recs holds each client's steps in order, warm-up first.
	recs  [][]stepRec
	setup time.Duration
	// alternate turns benchmark-side tracing on for every other
	// measured step of a client, shifted by one on each cycle over its
	// sessions, so each session alternates traced and untraced writes
	// on the same daemons.
	alternate bool
}

func (rd *round) close() {
	for _, c := range rd.clients {
		c.close()
	}
	rd.dep.stop()
}

// modelSeed gives session i its own step-stream seed.
func modelSeed(seed uint64, i int) uint64 { return seed*7919 + uint64(i)*104729 + 17 }

// setupRound deploys the daemons, creates every session with its
// first resolve, and runs the warm-up steps. Its duration, from the
// first spawn to the end of warm-up, is one setup_s sample.
func setupRound(ctx context.Context, e *env, in *inputs, dir string) (*round, error) {
	sp := in.spec
	t0 := time.Now()
	dep, err := deploy(ctx, e, sp, dir)
	if err != nil {
		return nil, err
	}
	rd := &round{in: in, dep: dep, recs: make([][]stepRec, in.clients)}
	for c := 0; c < in.clients; c++ {
		cl := newClient(c, t0)
		if sp.create {
			for d, doc := range in.docs {
				cl.bodies = append(cl.bodies, createBody(coldName(c, d), sp.inst.K, doc))
			}
		}
		rd.clients = append(rd.clients, cl)
	}
	if !sp.create {
		for i, d := range in.docs {
			rd.models = append(rd.models, newModel(sessionName(sp, i), modelSeed(in.seed, i), d))
		}
	}
	err = rd.eachClient(func(c *client) error {
		if !sp.create {
			for _, i := range in.owned(c.id) {
				if err := rd.createSession(ctx, c, dep.front, rd.models[i], in.docs[i]); err != nil {
					return err
				}
			}
		}
		for j := 0; j < sp.warmup; j++ {
			rec, err := rd.step(ctx, c, j, -1)
			if err != nil {
				return err
			}
			if !rec.writeOK || !rec.readOK {
				return fmt.Errorf("warm-up step %d of client %d failed", j, c.id)
			}
		}
		return nil
	})
	if err != nil {
		rd.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	rd.setup = time.Since(t0)
	return rd, nil
}

// eachClient runs fn once per client concurrently and returns the
// first error.
func (rd *round) eachClient(fn func(c *client) error) error {
	errs := make([]error, len(rd.clients))
	var wg sync.WaitGroup
	for i, c := range rd.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c)
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

// createSession uploads a session's base document and runs its first
// resolve.
func (rd *round) createSession(ctx context.Context, c *client, base string, m *model, d *doc) error {
	r := c.call(ctx, http.MethodPost, base+"/v1/sessions", createBody(m.name, rd.in.spec.inst.K, d), "create")
	if !r.ok() {
		return fmt.Errorf("creating %s: %v", m.name, r)
	}
	r = c.call(ctx, http.MethodPost, base+"/v1/sessions/"+m.name+"/resolve", nil, "resolve")
	if !r.ok() {
		return fmt.Errorf("first resolve of %s: %v", m.name, r)
	}
	var delta session.Delta
	if err := json.Unmarshal(r.body, &delta); err != nil {
		return fmt.Errorf("first resolve of %s: %w", m.name, err)
	}
	m.commitDelta(&delta)
	return nil
}

// step runs client c's j-th step (j counts warm-up and measured steps
// together) and records it. The error is an output-check failure;
// request failures are recorded, not returned.
func (rd *round) step(ctx context.Context, c *client, j, measured int) (stepRec, error) {
	own := rd.in.owned(c.id)
	idx := own[j%len(own)]
	c.trace = uint64(c.id+1)<<40 | uint64(j+1)
	t0 := time.Now()
	var rec stepRec
	var err error
	if rd.in.spec.create {
		rec, err = rd.coldStep(ctx, c, idx)
		c.endStep("step.cold", t0)
	} else {
		m := rd.models[idx]
		if m.stale {
			// The last resync read failed too; try again before
			// drawing from the model.
			_, err = rd.resync(ctx, c, m)
		}
		if err == nil {
			rec, err = rd.batchStep(ctx, c, rd.dep.front, m, m.next())
		}
		c.endStep("step.edit", t0)
	}
	rec.sess, rec.measured, rec.traced = idx, measured, c.tracing
	rd.recs[c.id] = append(rd.recs[c.id], rec)
	return rec, err
}

// batchStep sends one single-mutation batch to base and reads the
// session's schedule back from it.
func (rd *round) batchStep(ctx context.Context, c *client, base string, m *model, mut store.Mutation) (stepRec, error) {
	rec := stepRec{mut: mut}
	body, err := json.Marshal(batchReq{Mutations: []store.Mutation{mut}})
	if err != nil {
		return rec, err
	}
	w := c.call(ctx, http.MethodPost, base+"/v1/sessions/"+m.name+"/batch", body, "http.batch")
	rec.write, rec.writeOK = w.dur, w.ok()
	if !w.ok() {
		// The write may or may not have committed. The step's read goes
		// to the primary instead, and its answer becomes the committed
		// state the next steps are checked against.
		m.unsure(mut)
		r, err := rd.resync(ctx, c, m)
		rec.read, rec.readOK = r.dur, r.ok()
		return rec, err
	}
	var res store.BatchResult
	if err := json.Unmarshal(w.body, &res); err != nil || res.Delta == nil {
		return rec, fmt.Errorf("batch on %s: undecodable answer %q", m.name, w.body)
	}
	m.commit(mut, &res)
	rec.counters, rec.utility = res.Delta.Counters, res.Delta.Utility
	r := c.call(ctx, http.MethodGet, base+"/v1/sessions/"+m.name+"/schedule", nil, "http.schedule")
	rec.read, rec.readOK = r.dur, r.ok()
	if !r.ok() {
		return rec, nil
	}
	var sr scheduleResp
	if err := json.Unmarshal(r.body, &sr); err != nil {
		return rec, fmt.Errorf("schedule of %s: %w", m.name, err)
	}
	if r.header.Get("X-Ses-Replica-Of") != "" {
		rec.replica = true
		return rec, checkReplicaRead(m.name, m.committed, sr.Utility)
	}
	return rec, checkRead(m.name, m.utility, m.sched, sr)
}

// resync reads a stale session's schedule from its primary and makes
// it the model's committed state. A failed read leaves the model stale.
func (rd *round) resync(ctx context.Context, c *client, m *model) (reply, error) {
	r := c.call(ctx, http.MethodGet, rd.dep.primary(m.name)+"/v1/sessions/"+m.name+"/schedule", nil, "http.resync")
	if !r.ok() {
		return r, nil
	}
	var sr scheduleResp
	if err := json.Unmarshal(r.body, &sr); err != nil {
		return r, fmt.Errorf("schedule of %s: %w", m.name, err)
	}
	m.resync(sr)
	return r, nil
}

// coldStep uploads pool document d under the client's name for it,
// runs the first resolve, reads the schedule and deletes the session.
// The write is create plus first resolve.
func (rd *round) coldStep(ctx context.Context, c *client, d int) (stepRec, error) {
	rec := stepRec{}
	name := coldName(c.id, d)
	t0 := time.Now()
	w := c.call(ctx, http.MethodPost, rd.dep.front+"/v1/sessions", c.bodies[d], "http.create")
	if !w.ok() {
		rec.write = time.Since(t0)
		return rec, nil
	}
	w = c.call(ctx, http.MethodPost, rd.dep.front+"/v1/sessions/"+name+"/resolve", nil, "http.resolve")
	rec.write, rec.writeOK = time.Since(t0), w.ok()
	var delta session.Delta
	if w.ok() {
		if err := json.Unmarshal(w.body, &delta); err != nil {
			return rec, fmt.Errorf("first resolve of %s: %w", name, err)
		}
		rec.counters, rec.utility = delta.Counters, delta.Utility
		if err := checkFirstResolve(name, rd.in.docs[d].grdUtility, delta.Utility); err != nil {
			return rec, err
		}
	}
	r := c.call(ctx, http.MethodGet, rd.dep.front+"/v1/sessions/"+name+"/schedule", nil, "http.schedule")
	rec.read, rec.readOK = r.dur, r.ok()
	if r.ok() && w.ok() {
		var sr scheduleResp
		if err := json.Unmarshal(r.body, &sr); err != nil {
			return rec, fmt.Errorf("schedule of %s: %w", name, err)
		}
		sched := map[int]int{}
		for _, a := range delta.Added {
			sched[a.Event] = a.Interval
		}
		if err := checkRead(name, delta.Utility, sched, sr); err != nil {
			return rec, err
		}
	}
	c.call(ctx, http.MethodDelete, rd.dep.front+"/v1/sessions/"+name, nil, "http.delete")
	return rec, nil
}

// phase is the outcome of one measured phase.
type phase struct {
	steps             int
	wall              time.Duration
	cpu               time.Duration
	rss               int64
	attempted, failed int
	// measured holds every client's measured steps, client by client.
	measured [][]stepRec
}

// measure runs the measured phase: n steps split across the clients,
// each client closed-loop over its own sessions.
func (rd *round) measure(ctx context.Context, n int) (*phase, error) {
	cpu0, err := rd.dep.cpu()
	if err != nil {
		return nil, err
	}
	ph := &phase{steps: n, measured: make([][]stepRec, len(rd.clients))}
	t0 := time.Now()
	err = rd.eachClient(func(c *client) error {
		c.counting = true
		defer func() { c.counting = false }()
		share := n / len(rd.clients)
		if c.id < n%len(rd.clients) {
			share++
		}
		base := len(rd.recs[c.id])
		cycle := len(rd.in.owned(c.id))
		for j := 0; j < share; j++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if rd.alternate {
				c.tracing = (j/cycle+j%cycle)%2 == 0
			}
			if _, err := rd.step(ctx, c, base+j, j); err != nil {
				return err
			}
		}
		ph.measured[c.id] = rd.recs[c.id][base:]
		return nil
	})
	ph.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	cpu1, err := rd.dep.cpu()
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	if ph.rss, err = rd.dep.peakRSS(); err != nil {
		return nil, err
	}
	for _, c := range rd.clients {
		ph.attempted += c.attempted
		ph.failed += c.failed
		c.attempted, c.failed = 0, 0
	}
	return ph, nil
}

// finalChecks runs the end-of-run output checks.
func (rd *round) finalChecks(ctx context.Context) error {
	c := newClient(-1, time.Now())
	defer c.close()
	sp := rd.in.spec
	switch {
	case sp.create:
		return nil
	case sp.cluster:
		r := c.call(ctx, http.MethodGet, rd.dep.front+"/v1/sessions", nil, "")
		if !r.ok() {
			return fmt.Errorf("router session list: %v", r)
		}
		var metas []store.Meta
		if err := json.Unmarshal(r.body, &metas); err != nil {
			return fmt.Errorf("router session list: %w", err)
		}
		return checkAcked(metas, rd.models)
	default:
		for _, m := range rd.models {
			if m.stale {
				if _, err := rd.resync(ctx, c, m); err != nil {
					return err
				}
				if m.stale {
					return fmt.Errorf("resync of %s failed", m.name)
				}
			}
			r := c.call(ctx, http.MethodGet, rd.dep.front+"/v1/sessions/"+m.name+"/snapshot", nil, "")
			if !r.ok() {
				return fmt.Errorf("snapshot of %s: %v", m.name, r)
			}
			if err := checkScratch(ctx, m.name, r.body, m.utility); err != nil {
				return err
			}
		}
		return nil
	}
}

// metricsDoc is the part of sesd's /v1/metrics the traced run reads.
type metricsDoc struct {
	Pipeline *store.PipelineMetrics `json:"pipeline"`
	WAL      *struct {
		Appends uint64 `json:"appends"`
		Fsyncs  uint64 `json:"fsyncs"`
	} `json:"wal"`
	Replication *struct {
		BytesShipped       uint64 `json:"bytes_shipped"`
		FollowerLagRecords uint64 `json:"follower_lag_records"`
	} `json:"replication"`
}

// nodeMetrics fetches every node's /v1/metrics.
func (dep *deployment) nodeMetrics(ctx context.Context) ([]metricsDoc, error) {
	c := newClient(-1, time.Now())
	defer c.close()
	out := make([]metricsDoc, len(dep.nodes))
	for i, n := range dep.nodes {
		r := c.call(ctx, http.MethodGet, n.url+"/v1/metrics", nil, "")
		if !r.ok() {
			return nil, fmt.Errorf("%s /v1/metrics: %v", n.name, r)
		}
		if err := json.Unmarshal(r.body, &out[i]); err != nil {
			return nil, fmt.Errorf("%s /v1/metrics: %w", n.name, err)
		}
	}
	return out, nil
}

// roundDir is where round r of a run keeps its daemons' files.
func roundDir(e *env, in *inputs, tag string, r int) string {
	return filepath.Join(e.work, fmt.Sprintf("%s-seed%d-%s%d", in.spec.name, in.seed, tag, r))
}
