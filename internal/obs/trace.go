// Package obs is the zero-dependency observability layer of the ses
// serving stack: context-carried request tracing with a bounded
// in-memory trace ring, a metrics registry of atomic instruments with
// Prometheus text exposition (vector lookups take a family mutex), and
// a per-session fan-out hub that bridges solver progress and committed
// deltas to live subscribers (SSE in sesd).
//
// The package sits below every serving layer and above none: store,
// session, wal, cluster and the daemons all call into obs, obs calls
// into nothing of theirs. Instrumentation is nil-safe throughout — a
// layer compiled against obs costs one context value lookup per
// instrumented call when tracing is off.
package obs

import (
	"context"
	"encoding/hex"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names shared by every instrumented layer. Keeping them here
// makes the span tree vocabulary (and the per-stage latency histogram
// labels derived from it) one flat, greppable set.
const (
	// SpanHandler is the root span the daemon opens per HTTP request.
	SpanHandler = "handler"
	// SpanDecode covers reading a create or restore body, decoding it
	// and building the instance it carries.
	SpanDecode = "request.decode"
	// SpanPipeline covers a request's pipeline ride: queue wait plus
	// the merged backend call it coalesced into.
	SpanPipeline = "pipeline"
	// SpanResolve covers one session resolve (lock wait included).
	SpanResolve = "session.resolve"
	// SpanScoring covers the incremental initial-score patch (Eq. 4
	// evaluations over the invalidated matrix slice).
	SpanScoring = "engine.scoring"
	// SpanSelect covers the greedy selection loop.
	SpanSelect = "greedy.select"
	// SpanWALFsync covers a durable commit's WAL append, including its
	// fsync under SyncAlways.
	SpanWALFsync = "wal.fsync"
	// SpanReplAck covers a synchronous-replication ack wait.
	SpanReplAck = "replication.ack"
	// SpanReplApply is the remote span a follower records when it
	// applies a shipped WAL record that carries a trace ID.
	SpanReplApply = "replication.apply"
)

// Attr is one span attribute.
type Attr struct {
	Key string
	Val any
}

// A builds an Attr; it keeps call sites short.
func A(key string, val any) Attr { return Attr{Key: key, Val: val} }

// SpanData is one finished span as stored in the trace ring and
// served by GET /v1/traces/{id}.
type SpanData struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Remote marks spans recorded from a shipped WAL record on a
	// follower rather than measured in-process under the root.
	Remote     bool           `json:"remote,omitempty"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// trace collects the spans of one trace ID.
type trace struct {
	id       string
	mu       sync.Mutex
	spans    []SpanData
	nextSpan atomic.Uint64
}

func (tr *trace) add(d SpanData) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, d)
	tr.mu.Unlock()
}

// Span is one live measurement. The zero of *Span (nil) is a valid
// no-op span, so uninstrumented contexts cost nothing but the nil
// checks.
type Span struct {
	tracer *Tracer
	tr     *trace
	id     uint64
	parent uint64
	name   string
	start  time.Time
	root   bool
	attrs  []Attr
	ended  atomic.Bool
}

// TraceID returns the span's trace ID ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// SetAttr attaches an attribute; safe on nil and after End (late
// attrs are dropped).
func (s *Span) SetAttr(key string, val any) {
	if s == nil || s.ended.Load() {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
}

// End finishes the span: the duration is taken, the span enters its
// trace, the span-end hook fires, and — for a root span — the trace
// commits to the ring (and to the slow log past the threshold).
// Nil-safe and idempotent.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	dur := time.Since(s.start)
	d := SpanData{
		ID:         s.id,
		Parent:     s.parent,
		Name:       s.name,
		Start:      s.start,
		DurationMS: float64(dur) / float64(time.Millisecond),
		Attrs:      attrMap(s.attrs),
	}
	s.tr.add(d)
	if s.tracer.opts.OnSpanEnd != nil {
		s.tracer.opts.OnSpanEnd(s.name, dur.Seconds())
	}
	if s.root {
		s.tracer.commit(s.tr)
		s.tracer.maybeLogSlow(s.tr, s.name, dur)
	}
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val
	}
	return m
}

// TracerOptions configures NewTracer; the zero value is usable (ring
// of 512 traces, no slow log, no span hook).
type TracerOptions struct {
	// Ring bounds how many finished traces the tracer retains (0 =
	// 512; the oldest trace is evicted first).
	Ring int
	// SlowTrace, when positive, logs the full span tree of any trace
	// whose root span ran at least this long.
	SlowTrace time.Duration
	// Logger receives the slow-trace trees (nil = slog.Default when a
	// threshold is set).
	Logger *slog.Logger
	// OnSpanEnd observes every finished span (local and remote); the
	// daemon bridges it into the per-stage latency histograms. It must
	// be fast and must not call back into the tracer.
	OnSpanEnd func(name string, seconds float64)
}

func (o TracerOptions) ring() int {
	if o.Ring <= 0 {
		return 512
	}
	return o.Ring
}

// Tracer owns the trace ring. A nil *Tracer is valid and turns every
// StartRoot into a no-op.
type Tracer struct {
	opts TracerOptions

	mu     sync.Mutex
	ring   []*trace // oldest first, len <= opts.ring()
	byID   map[string]*trace
	starts atomic.Uint64
}

// NewTracer builds a tracer with a bounded trace ring.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.SlowTrace > 0 && opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	return &Tracer{opts: opts, byID: make(map[string]*trace)}
}

// NewTraceID returns a fresh 16-hex-digit trace ID, the form carried
// by the X-Ses-Trace header.
func NewTraceID() string {
	var b [8]byte
	v := rand.Uint64()
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return hex.EncodeToString(b[:])
}

// validTraceID accepts client-supplied IDs: short, printable, no
// whitespace — enough to keep headers and log lines clean without
// rejecting foreign ID schemes.
func validTraceID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' {
			return false
		}
	}
	return true
}

// StartRoot opens a trace's root span and binds it into the context.
// traceID adopts a propagated X-Ses-Trace value when valid; ""
// generates a fresh ID. On a nil tracer it returns ctx and a nil
// (no-op) span.
func (t *Tracer) StartRoot(ctx context.Context, name, traceID string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if !validTraceID(traceID) {
		traceID = NewTraceID()
	}
	t.starts.Add(1)
	tr := &trace{id: traceID}
	sp := &Span{tracer: t, tr: tr, id: tr.nextSpan.Add(1), name: name, start: time.Now(), root: true}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// Starts counts root spans opened since construction.
func (t *Tracer) Starts() uint64 {
	if t == nil {
		return 0
	}
	return t.starts.Load()
}

// RecordRemote stores a span measured outside any local root — a
// follower applying a shipped record under the primary's trace ID.
// The trace joins the ring immediately if it is not already there, so
// GET /v1/traces/{id} on the follower finds it.
func (t *Tracer) RecordRemote(traceID, name string, start time.Time, dur time.Duration, attrs ...Attr) {
	if t == nil || !validTraceID(traceID) {
		return
	}
	tr := t.traceFor(traceID)
	tr.add(SpanData{
		ID:         tr.nextSpan.Add(1),
		Name:       name,
		Remote:     true,
		Start:      start,
		DurationMS: float64(dur) / float64(time.Millisecond),
		Attrs:      attrMap(attrs),
	})
	if t.opts.OnSpanEnd != nil {
		t.opts.OnSpanEnd(name, dur.Seconds())
	}
}

// traceFor returns the ring's trace for id, installing a fresh one if
// needed.
func (t *Tracer) traceFor(id string) *trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tr, ok := t.byID[id]; ok {
		return tr
	}
	tr := &trace{id: id}
	t.insertLocked(tr)
	return tr
}

// commit moves a finished trace into the ring. Spans of the same
// trace ID recorded on this node earlier (remote applies, a previous
// request reusing the ID) merge into one entry.
func (t *Tracer) commit(tr *trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.byID[tr.id]; ok {
		if prev == tr {
			return
		}
		// Merge: fold the earlier spans in under fresh IDs' order; the
		// span IDs of independent traces may collide, so renumber ours
		// on top. Reserve the whole block via Add so tr's allocator is
		// advanced past every renumbered ID — a later RecordRemote (or
		// any concurrent allocation) on the merged trace cannot collide.
		tr.mu.Lock()
		prev.mu.Lock()
		n := prev.nextSpan.Load()
		base := tr.nextSpan.Add(n) - n
		for _, d := range prev.spans {
			if d.ID != 0 {
				d.ID += base
			}
			if d.Parent != 0 {
				d.Parent += base
			}
			tr.spans = append(tr.spans, d)
		}
		prev.mu.Unlock()
		tr.mu.Unlock()
		t.removeLocked(prev)
	}
	t.insertLocked(tr)
}

func (t *Tracer) insertLocked(tr *trace) {
	if len(t.ring) >= t.opts.ring() {
		evict := t.ring[0]
		t.ring = t.ring[1:]
		if t.byID[evict.id] == evict {
			delete(t.byID, evict.id)
		}
	}
	t.ring = append(t.ring, tr)
	t.byID[tr.id] = tr
}

func (t *Tracer) removeLocked(tr *trace) {
	for i, r := range t.ring {
		if r == tr {
			t.ring = append(t.ring[:i], t.ring[i+1:]...)
			break
		}
	}
	if t.byID[tr.id] == tr {
		delete(t.byID, tr.id)
	}
}

// Len reports how many traces the ring holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// TraceSummary is one GET /v1/traces list entry.
type TraceSummary struct {
	ID string `json:"id"`
	// Root is the root span's name ("" for a remote-only trace).
	Root       string    `json:"root,omitempty"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
}

// Traces lists the ring newest-first, keeping traces whose total
// duration is at least minDur, up to limit entries (limit <= 0 means
// all).
func (t *Tracer) Traces(minDur time.Duration, limit int) []TraceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ring := append([]*trace(nil), t.ring...)
	t.mu.Unlock()
	out := make([]TraceSummary, 0, len(ring))
	for i := len(ring) - 1; i >= 0; i-- {
		s := summarize(ring[i])
		if s.Spans == 0 || time.Duration(s.DurationMS*float64(time.Millisecond)) < minDur {
			continue
		}
		out = append(out, s)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

func summarize(tr *trace) TraceSummary {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := TraceSummary{ID: tr.id, Spans: len(tr.spans)}
	for _, d := range tr.spans {
		if s.Start.IsZero() || d.Start.Before(s.Start) {
			s.Start = d.Start
		}
		if d.ID == 1 && d.Parent == 0 && !d.Remote {
			s.Root = d.Name
			s.DurationMS = d.DurationMS
		}
	}
	if s.Root == "" {
		// Remote-only trace: span the envelope of what we saw.
		var first, last time.Time
		for _, d := range tr.spans {
			end := d.Start.Add(time.Duration(d.DurationMS * float64(time.Millisecond)))
			if first.IsZero() || d.Start.Before(first) {
				first = d.Start
			}
			if end.After(last) {
				last = end
			}
		}
		s.DurationMS = float64(last.Sub(first)) / float64(time.Millisecond)
	}
	return s
}

// SpanNode is one node of the rendered span tree.
type SpanNode struct {
	SpanData
	Children []*SpanNode `json:"children,omitempty"`
}

// TraceTree is the GET /v1/traces/{id} document.
type TraceTree struct {
	ID string `json:"id"`
	// Spans is the root forest: the request root span plus any spans
	// whose parent is unknown locally (remote applies on a follower).
	Spans []*SpanNode `json:"spans"`
}

// Trace renders one trace's span tree; ok is false for an unknown ID.
func (t *Tracer) Trace(id string) (*TraceTree, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	tr, ok := t.byID[id]
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	tr.mu.Lock()
	spans := append([]SpanData(nil), tr.spans...)
	tr.mu.Unlock()
	return &TraceTree{ID: id, Spans: buildForest(spans)}, true
}

// buildForest nests spans under their parents; orphans (parent not in
// the set) surface as roots. Siblings sort by start time.
func buildForest(spans []SpanData) []*SpanNode {
	nodes := make(map[uint64]*SpanNode, len(spans))
	order := make([]*SpanNode, 0, len(spans))
	for _, d := range spans {
		n := &SpanNode{SpanData: d}
		nodes[d.ID] = n
		order = append(order, n)
	}
	var roots []*SpanNode
	for _, n := range order {
		if p, ok := nodes[n.Parent]; ok && n.Parent != n.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortKids func(ns []*SpanNode)
	sortKids = func(ns []*SpanNode) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].Start.Before(ns[j].Start) })
		for _, n := range ns {
			sortKids(n.Children)
		}
	}
	sortKids(roots)
	return roots
}

// maybeLogSlow renders the span tree to the slow log when the root
// duration crosses the threshold.
func (t *Tracer) maybeLogSlow(tr *trace, root string, dur time.Duration) {
	if t.opts.SlowTrace <= 0 || dur < t.opts.SlowTrace || t.opts.Logger == nil {
		return
	}
	tree, ok := t.Trace(tr.id)
	if !ok {
		return
	}
	var b strings.Builder
	for _, n := range tree.Spans {
		renderNode(&b, n, 0)
	}
	t.opts.Logger.Warn("slow trace",
		"trace", tr.id,
		"root", root,
		"duration_ms", float64(dur)/float64(time.Millisecond),
		"tree", b.String())
}

func renderNode(b *strings.Builder, n *SpanNode, depth int) {
	b.WriteString("\n")
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s %.3fms", n.Name, n.DurationMS)
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%v", k, n.Attrs[k])
		}
	}
	for _, c := range n.Children {
		renderNode(b, c, depth+1)
	}
}

// spanKey carries the active span in a context.
type spanKey struct{}

// SpanFromContext returns the active span (nil when untraced).
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// TraceID returns the active trace ID ("" when untraced) — the value
// the daemons echo and propagate as X-Ses-Trace, and the one
// ses.TraceFromContext re-exports.
func TraceID(ctx context.Context) string {
	return SpanFromContext(ctx).TraceID()
}

// StartSpan opens a child of the context's active span. When the
// context is untraced it returns ctx and a nil span, so instrumented
// layers pay one context lookup and nothing else.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	cur := SpanFromContext(ctx)
	if cur == nil {
		return ctx, nil
	}
	sp := &Span{
		tracer: cur.tracer,
		tr:     cur.tr,
		id:     cur.tr.nextSpan.Add(1),
		parent: cur.id,
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// Detach returns a fresh background context carrying only ctx's
// active span — for work (pipeline merges) that must survive the
// request's cancellation while keeping its trace.
func Detach(ctx context.Context) context.Context {
	sp := SpanFromContext(ctx)
	if sp == nil {
		return context.Background()
	}
	return context.WithValue(context.Background(), spanKey{}, sp)
}
