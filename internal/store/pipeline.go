package store

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"ses/internal/obs"
	"ses/internal/session"
)

// Pipeline errors.
var (
	// ErrPipelineSaturated reports an admission-control rejection: the
	// pipeline's pending-request queue is full. The request was not
	// executed; callers should shed load or retry later.
	ErrPipelineSaturated = errors.New("store: resolve pipeline saturated")
	// ErrPipelineClosed reports a submit to a closed pipeline.
	ErrPipelineClosed = errors.New("store: resolve pipeline is closed")
)

// Backend is the store surface the pipeline drives: *Store satisfies
// it, and so does *Durable through its embedded Store.
type Backend interface {
	ApplyBatch(ctx context.Context, name string, muts []Mutation) (*BatchResult, error)
	Resolve(ctx context.Context, name string) (*session.Delta, error)
}

// PipelineOptions configures NewPipeline; the zero value is usable
// (GOMAXPROCS workers, 1024-request queue).
type PipelineOptions struct {
	// Workers bounds the number of sessions resolving concurrently
	// (0 = GOMAXPROCS).
	Workers int
	// MaxQueue bounds the total pending requests across all sessions;
	// beyond it submits fail fast with ErrPipelineSaturated (0 = 1024,
	// negative = unbounded).
	MaxQueue int

	// journal, when set, observes every backend call the pipeline
	// makes, in execution order (per-session order is the commit
	// order; muts == nil means a pure Resolve). Test hook for the
	// serial-equivalence property.
	journal func(name string, muts []Mutation)
}

func (o PipelineOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o PipelineOptions) maxQueue() int {
	if o.MaxQueue == 0 {
		return 1024
	}
	return o.MaxQueue
}

// PipelineMetrics is a point-in-time view of pipeline load; see
// Pipeline.Metrics.
type PipelineMetrics struct {
	// Workers is the configured worker-pool size.
	Workers int `json:"workers"`
	// QueueDepth is the number of requests currently pending (queued,
	// not yet taken by a worker).
	QueueDepth int `json:"queue_depth"`
	// Submitted counts accepted requests; Executed counts backend
	// calls. Executed < Submitted is coalescing at work.
	Submitted uint64 `json:"submitted"`
	Executed  uint64 `json:"executed"`
	// Coalesced counts requests that shared another request's backend
	// call (a merged batch of n adds n-1).
	Coalesced uint64 `json:"coalesced"`
	// Rejected counts admission-control rejections
	// (ErrPipelineSaturated); Withdrawn counts requests whose context
	// was cancelled while still queued.
	Rejected  uint64 `json:"rejected"`
	Withdrawn uint64 `json:"withdrawn"`
}

// pipeDone is the outcome a worker delivers to one waiting request.
type pipeDone struct {
	res *BatchResult
	err error
}

// pipeReq is one queued request. muts == nil marks a pure resolve.
type pipeReq struct {
	muts []Mutation
	done chan pipeDone // buffered(1); delivered exactly once
	// ctx is a detached context carrying only the request's trace span
	// (never its cancellation): the merged backend call runs under the
	// first rider's ctx so the commit's spans nest under its trace.
	ctx context.Context
	// sp is the request's "pipeline" span: queue wait plus the merged
	// backend call it rode on. The executing worker stamps merge attrs
	// before delivering done; submit ends it after the outcome.
	sp *obs.Span
}

// Pipeline runs mutations and resolves for many sessions on a bounded
// worker pool, coalescing back-to-back work on the same session into
// one incremental resolve.
//
// Scheduling: each session has a pending-request queue and appears at
// most once on a dirty FIFO. A worker pops a session, takes its whole
// queue as one merged batch (mutations concatenated in arrival
// order), makes ONE backend call — ApplyBatch when any mutations are
// pending, Resolve otherwise — and delivers the shared outcome to
// every waiter, splitting assigned event ids back to the requests
// that added them. Requests arriving while a session is in flight
// queue up for the next round, so per-session execution is serial and
// in arrival order; independent sessions run on distinct workers
// concurrently.
//
// Semantics versus direct calls: results are byte-identical to
// executing the same merged sequence serially (test-enforced), and a
// merged batch commits with one resolve — that is the point. The
// visible differences are shared fate and detachment: every request
// of a merged batch observes the same error if any mutation of the
// merge fails (a direct ApplyBatch would only fail for its own
// mutations), and the backend call runs under a background context,
// so one waiter's cancellation never aborts a commit other waiters
// are riding on. A request's own context still governs its wait: if
// it fires while the request is queued, the request is withdrawn and
// never executes; once a worker has taken it, the outcome stands.
type Pipeline struct {
	backend Backend
	opts    PipelineOptions

	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string][]*pipeReq
	dirty   []string        // sessions with pending work, FIFO
	inDirty map[string]bool // membership of dirty
	// inflight marks sessions a worker is currently executing; their
	// new arrivals stay queued until the worker finishes and re-lists
	// the session, which is what serializes per-session execution.
	inflight map[string]bool
	queued   int // total pending requests (admission control)
	closed   bool
	wg       sync.WaitGroup

	submitted atomic.Uint64
	executed  atomic.Uint64
	coalesced atomic.Uint64
	rejected  atomic.Uint64
	withdrawn atomic.Uint64
}

// NewPipeline starts a pipeline over backend with opts.Workers
// workers. Close it to release them; the backend is not closed.
func NewPipeline(backend Backend, opts PipelineOptions) *Pipeline {
	p := &Pipeline{
		backend:  backend,
		opts:     opts,
		queues:   make(map[string][]*pipeReq),
		inDirty:  make(map[string]bool),
		inflight: make(map[string]bool),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < opts.workers(); i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// ApplyBatch submits a mutation group for name and waits for the
// commit that covers it; see Store.ApplyBatch for the group's
// semantics and the Pipeline doc for how groups merge. An empty muts
// behaves like Resolve.
func (p *Pipeline) ApplyBatch(ctx context.Context, name string, muts []Mutation) (*BatchResult, error) {
	return p.submit(ctx, name, muts)
}

// Resolve submits a re-solve for name and waits for the commit that
// covers it; pending mutations of the same session ride along.
func (p *Pipeline) Resolve(ctx context.Context, name string) (*session.Delta, error) {
	res, err := p.submit(ctx, name, nil)
	if err != nil {
		return nil, err
	}
	return res.Delta, nil
}

// Metrics returns a point-in-time load snapshot.
func (p *Pipeline) Metrics() PipelineMetrics {
	p.mu.Lock()
	depth := p.queued
	p.mu.Unlock()
	return PipelineMetrics{
		Workers:    p.opts.workers(),
		QueueDepth: depth,
		Submitted:  p.submitted.Load(),
		Executed:   p.executed.Load(),
		Coalesced:  p.coalesced.Load(),
		Rejected:   p.rejected.Load(),
		Withdrawn:  p.withdrawn.Load(),
	}
}

// Close drains every pending request and stops the workers. Submits
// after Close fail with ErrPipelineClosed.
func (p *Pipeline) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// submit enqueues one request and waits for its outcome (or withdraws
// it on ctx cancellation while still queued).
func (p *Pipeline) submit(ctx context.Context, name string, muts []Mutation) (*BatchResult, error) {
	spCtx, sp := obs.StartSpan(ctx, obs.SpanPipeline, obs.A("session", name))
	req := &pipeReq{muts: muts, done: make(chan pipeDone, 1), ctx: obs.Detach(spCtx), sp: sp}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		sp.SetAttr("outcome", "closed")
		sp.End()
		return nil, ErrPipelineClosed
	}
	if max := p.opts.maxQueue(); max > 0 && p.queued >= max {
		p.mu.Unlock()
		p.rejected.Add(1)
		sp.SetAttr("outcome", "saturated")
		sp.End()
		return nil, ErrPipelineSaturated
	}
	p.queues[name] = append(p.queues[name], req)
	p.queued++
	p.listLocked(name)
	p.mu.Unlock()
	p.submitted.Add(1)

	select {
	case d := <-req.done:
		sp.End()
		return d.res, d.err
	case <-ctx.Done():
		// Withdraw if still queued; if a worker already took the
		// request its merged commit is running and the outcome stands.
		p.mu.Lock()
		q := p.queues[name]
		for i, r := range q {
			if r == req {
				if len(q) == 1 {
					delete(p.queues, name)
				} else {
					p.queues[name] = append(q[:i], q[i+1:]...)
				}
				p.queued--
				p.mu.Unlock()
				p.withdrawn.Add(1)
				sp.SetAttr("withdrawn", true)
				sp.End()
				return nil, ctx.Err()
			}
		}
		p.mu.Unlock()
		d := <-req.done
		sp.End()
		return d.res, d.err
	}
}

// listLocked puts name on the dirty FIFO unless it is already listed
// or in flight (the finishing worker re-lists it). Caller holds mu.
func (p *Pipeline) listLocked(name string) {
	if p.inDirty[name] || p.inflight[name] || len(p.queues[name]) == 0 {
		return
	}
	p.dirty = append(p.dirty, name)
	p.inDirty[name] = true
	p.cond.Signal()
}

// worker executes merged batches until the pipeline closes and drains.
func (p *Pipeline) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.dirty) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.dirty) == 0 {
			// Closed and nothing listed. Sessions still in flight on
			// other workers re-list themselves when they finish, and
			// those workers loop around to drain them.
			p.mu.Unlock()
			return
		}
		name := p.dirty[0]
		p.dirty = p.dirty[1:]
		delete(p.inDirty, name)
		batch := p.queues[name]
		delete(p.queues, name)
		p.queued -= len(batch)
		p.inflight[name] = true
		p.mu.Unlock()

		// batch can be empty when every request was withdrawn after
		// the session was listed; nothing to execute then.
		if len(batch) > 0 {
			p.run(name, batch)
		}

		p.mu.Lock()
		delete(p.inflight, name)
		p.listLocked(name)
		p.mu.Unlock()
	}
}

// run executes one merged batch: one backend call, shared outcome.
func (p *Pipeline) run(name string, batch []*pipeReq) {
	var merged []Mutation
	for _, r := range batch {
		merged = append(merged, r.muts...)
	}
	p.executed.Add(1)
	p.coalesced.Add(uint64(len(batch) - 1))
	if p.opts.journal != nil {
		p.opts.journal(name, merged)
	}
	// Background context: the merge commits for every waiter or none;
	// an individual request's cancellation only matters while queued.
	// The first rider's detached trace context carries the merge's
	// spans; later riders just record that they coalesced. Attrs land
	// before done is delivered, so they happen-before each span's End.
	ctx := batch[0].ctx
	batch[0].sp.SetAttr("merged", len(batch))
	for _, r := range batch[1:] {
		r.sp.SetAttr("coalesced", true)
	}
	var (
		res *BatchResult
		err error
	)
	if len(merged) == 0 {
		var delta *session.Delta
		delta, err = p.backend.Resolve(ctx, name)
		if err == nil {
			res = &BatchResult{Delta: delta}
		}
	} else {
		res, err = p.backend.ApplyBatch(ctx, name, merged)
	}
	if err != nil {
		for _, r := range batch {
			r.done <- pipeDone{err: err}
		}
		return
	}
	// Split the assigned ids back to the requests that added them, in
	// merge order; the Delta of the single committing resolve is
	// shared.
	events, competing := res.EventIDs, res.CompetingIDs
	for _, r := range batch {
		out := &BatchResult{Delta: res.Delta}
		for _, m := range r.muts {
			switch m.Op {
			case OpAddEvent:
				out.EventIDs = append(out.EventIDs, events[0])
				events = events[1:]
			case OpAddCompeting:
				out.CompetingIDs = append(out.CompetingIDs, competing[0])
				competing = competing[1:]
			}
		}
		r.done <- pipeDone{res: out}
	}
}
