package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux; served only by the opt-in -pprof listener
	"strconv"
	"time"

	"ses"
	"ses/internal/cluster"
	"ses/internal/obs"
)

// statusWriter captures the response status for the per-route and
// error-class counters and the root span, passing Flush through so SSE
// streaming works behind the wrapper, and unwrapping for
// http.ResponseController.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// traceworthy excludes probes, scrapes, the trace endpoints
// themselves, and long-lived streams (replication, watch SSE) from
// root spans: their durations measure connection lifetime, not work,
// and they would drown the ring.
func traceworthy(path string) bool {
	switch path {
	case "/healthz", "/v1/healthz", "/v1/readyz", "/metrics", "/v1/metrics", "/v1/traces", "/":
		return false
	}
	if len(path) >= 11 && path[:11] == "/v1/traces/" {
		return false
	}
	if len(path) >= 16 && path[:16] == "/v1/replication/" {
		return false
	}
	if len(path) >= 6 && path[len(path)-6:] == "/watch" {
		return false
	}
	return true
}

// instrument is the outermost handler: it opens the root span
// (adopting a propagated X-Ses-Trace ID) and, after the mux ran,
// counts the request in the per-route/status series and any 4xx/5xx
// in its error class. r.Pattern is read AFTER mux.ServeHTTP so the
// label is the bounded route pattern, not the unbounded raw path.
func (s *server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		if t := tracerOf(s.obs); t != nil && traceworthy(r.URL.Path) {
			ctx, sp := t.StartRoot(r.Context(), obs.SpanHandler, r.Header.Get("X-Ses-Trace"))
			sp.SetAttr("method", r.Method)
			sp.SetAttr("path", r.URL.Path)
			w.Header().Set("X-Ses-Trace", sp.TraceID())
			r = r.WithContext(ctx)
			defer func() {
				sp.SetAttr("status", sw.status())
				sp.End()
			}()
		}
		mux.ServeHTTP(sw, r)
		route, code := r.Pattern, sw.status()
		if route == "" {
			route = "other"
		}
		s.httpRequests.With(route, strconv.Itoa(code)).Inc()
		switch {
		case code >= 500:
			s.errServer.Inc()
		case code >= 400:
			s.errClient.Inc()
		}
	})
}

// registerMetrics installs the daemon's metric families on reg, once,
// from newServer: the live instruments /v1/metrics reads, then
// scrape-time collectors over state other layers already keep.
func (s *server) registerMetrics(reg *obs.Registry) {
	s.httpRequests = reg.CounterVec("ses_http_requests_total",
		"HTTP requests served, by route pattern and status code.", "route", "code")
	httpErrors := reg.CounterVec("ses_http_errors_total",
		"HTTP error responses, by class (client = 4xx/499, server = 5xx).", "class")
	s.errClient, s.errServer = httpErrors.With("client"), httpErrors.With("server")
	s.resolves = reg.Counter("ses_resolves_total", "Committed resolves (batch commits included).")
	s.batches = reg.Counter("ses_batches_total", "Committed batch requests.")
	s.resolveSeconds = reg.Histogram("ses_resolve_seconds",
		"Latency of committed resolve and batch requests, up to the commit (replication ack wait excluded).", nil)
	reg.CollectFunc("ses_uptime_seconds", "Seconds since the daemon started.", "gauge", nil,
		func(emit func([]string, float64)) { emit(nil, time.Since(s.start).Seconds()) })
	reg.CollectFunc("ses_sessions", "Registered sessions.", "gauge", nil,
		func(emit func([]string, float64)) { emit(nil, float64(s.store.Len())) })
	if s.pipeline != nil {
		pipe := func(pick func(ses.PipelineMetrics) float64) func(func([]string, float64)) {
			return func(emit func([]string, float64)) { emit(nil, pick(s.pipeline.Metrics())) }
		}
		reg.CollectFunc("ses_pipeline_queue_depth", "Requests queued on the resolve pipeline.", "gauge", nil,
			pipe(func(m ses.PipelineMetrics) float64 { return float64(m.QueueDepth) }))
		reg.CollectFunc("ses_pipeline_workers", "Resolve pipeline worker-pool size.", "gauge", nil,
			pipe(func(m ses.PipelineMetrics) float64 { return float64(m.Workers) }))
		reg.CollectFunc("ses_pipeline_submitted_total", "Requests accepted by the pipeline.", "counter", nil,
			pipe(func(m ses.PipelineMetrics) float64 { return float64(m.Submitted) }))
		reg.CollectFunc("ses_pipeline_executed_total", "Backend calls the pipeline made.", "counter", nil,
			pipe(func(m ses.PipelineMetrics) float64 { return float64(m.Executed) }))
		reg.CollectFunc("ses_pipeline_coalesced_total", "Requests that shared another request's backend call.", "counter", nil,
			pipe(func(m ses.PipelineMetrics) float64 { return float64(m.Coalesced) }))
		reg.CollectFunc("ses_pipeline_rejected_total", "Admission-control rejections (queue full).", "counter", nil,
			pipe(func(m ses.PipelineMetrics) float64 { return float64(m.Rejected) }))
		reg.CollectFunc("ses_pipeline_withdrawn_total", "Requests withdrawn by context cancellation while queued.", "counter", nil,
			pipe(func(m ses.PipelineMetrics) float64 { return float64(m.Withdrawn) }))
	}
	if s.walStats != nil {
		walc := func(pick func(ses.WALStats) float64) func(func([]string, float64)) {
			return func(emit func([]string, float64)) { emit(nil, pick(s.walStats())) }
		}
		reg.CollectFunc("ses_wal_appends_total", "WAL records appended.", "counter", nil,
			walc(func(w ses.WALStats) float64 { return float64(w.Appends) }))
		reg.CollectFunc("ses_wal_fsyncs_total", "WAL fsyncs issued.", "counter", nil,
			walc(func(w ses.WALStats) float64 { return float64(w.Fsyncs) }))
		reg.CollectFunc("ses_wal_records_per_fsync", "WAL appends per fsync.", "gauge", nil,
			func(emit func([]string, float64)) { emit(nil, s.walStats().RecordsPerFsync()) })
		reg.Gauge("ses_recovery_seconds",
			"Seconds the durable store took at boot to open its logs and recover every session.").Set(s.recovery.Seconds())
	}
	if s.node != nil {
		reg.CollectFunc("ses_replication", "Replication shipping, apply, lag, and ack counters.", "gauge", []string{"stat"},
			func(emit func([]string, float64)) {
				m := s.node.Metrics()
				emit([]string{"active_streams"}, float64(m.ActiveStreams))
				emit([]string{"records_shipped_total"}, float64(m.RecordsShipped))
				emit([]string{"bytes_shipped_total"}, float64(m.BytesShipped))
				emit([]string{"records_applied_total"}, float64(m.RecordsApplied))
				emit([]string{"bytes_applied_total"}, float64(m.BytesApplied))
				emit([]string{"promoted_sessions_total"}, float64(m.PromotedSessions))
				emit([]string{"epoch"}, float64(m.Epoch))
				emit([]string{"adopted_shards_pending"}, float64(m.AdoptedShardsPending))
			})
		repl := func(pick func(m cluster.Metrics) float64) func(func([]string, float64)) {
			return func(emit func([]string, float64)) { emit(nil, pick(s.node.Metrics())) }
		}
		reg.CollectFunc("ses_replication_follower_lag_records", "Primary-measured records this node's follower streams trail by.", "gauge", nil,
			repl(func(m cluster.Metrics) float64 { return float64(m.FollowerLagRecords) }))
		reg.CollectFunc("ses_replication_follower_lag_bytes", "Primary-measured bytes this node's follower streams trail by.", "gauge", nil,
			repl(func(m cluster.Metrics) float64 { return float64(m.FollowerLagBytes) }))
		reg.CollectFunc("ses_replication_ack_waits_total", "Mutations that waited for synchronous follower acks.", "counter", nil,
			repl(func(m cluster.Metrics) float64 { return float64(m.AckWaits) }))
		reg.CollectFunc("ses_replication_ack_timeouts_total", "Synchronous-ack waits that degraded to 503.", "counter", nil,
			repl(func(m cluster.Metrics) float64 { return float64(m.AckTimeouts) }))
		reg.CollectFunc("ses_replication_acks_received_total", "Follower ack messages processed.", "counter", nil,
			repl(func(m cluster.Metrics) float64 { return float64(m.AcksReceived) }))
	}
	if s.obs == nil {
		return // the watch and trace families describe -obs surfaces
	}
	if s.obs.Hub != nil {
		hub := func(pick func(obs.HubStats) float64) func(func([]string, float64)) {
			return func(emit func([]string, float64)) { emit(nil, pick(s.obs.Hub.Stats())) }
		}
		reg.CollectFunc("ses_watch_subscribers", "Live watch (SSE) subscribers.", "gauge", nil,
			hub(func(h obs.HubStats) float64 { return float64(h.Subscribers) }))
		reg.CollectFunc("ses_watch_events_total", "Events published to watch subscribers.", "counter", nil,
			hub(func(h obs.HubStats) float64 { return float64(h.Published) }))
		reg.CollectFunc("ses_watch_evictions_total", "Watch subscribers evicted for falling behind.", "counter", nil,
			hub(func(h obs.HubStats) float64 { return float64(h.Evicted) }))
	}
	reg.CollectFunc("ses_traces", "Traces retained in the ring.", "gauge", nil,
		func(emit func([]string, float64)) { emit(nil, float64(s.obs.Tracer.Len())) })
}

// listTraces serves GET /v1/traces: recent traces, newest first,
// filterable with ?min=DURATION and ?limit=N.
func (s *server) listTraces(w http.ResponseWriter, r *http.Request) {
	t := tracerOf(s.obs)
	if t == nil {
		s.writeJSON(w, http.StatusNotFound, map[string]string{"error": "tracing is disabled (-obs=false)"})
		return
	}
	var minDur time.Duration
	if q := r.URL.Query().Get("min"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad min %q", q))
			return
		}
		minDur = d
	}
	limit := 100
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", q))
			return
		}
		limit = n
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"traces": t.Traces(minDur, limit)})
}

// getTrace serves GET /v1/traces/{id}: the full span tree.
func (s *server) getTrace(w http.ResponseWriter, r *http.Request) {
	t := tracerOf(s.obs)
	if t == nil {
		s.writeJSON(w, http.StatusNotFound, map[string]string{"error": "tracing is disabled (-obs=false)"})
		return
	}
	tree, ok := t.Trace(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown trace id (evicted or never seen)"})
		return
	}
	s.writeJSON(w, http.StatusOK, tree)
}

// watchHeartbeat keeps idle SSE connections alive through proxies.
const watchHeartbeat = 15 * time.Second

// watchSession serves GET /v1/sessions/{name}/watch: a server-sent
// event stream of the session's live activity — a "hello" event with
// the current metadata, then "progress" events per solver assignment
// and a "commit" event per committed operation. A subscriber that
// stops reading is evicted (stream ends) rather than ever stalling
// the solver.
func (s *server) watchSession(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil || s.obs.Hub == nil {
		s.writeJSON(w, http.StatusNotFound, map[string]string{"error": "watch streaming is disabled (-obs=false)"})
		return
	}
	name := r.PathValue("name")
	meta, err := s.store.Meta(name)
	if err != nil {
		s.writeErr(w, statusOf(err), err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeErr(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	// Subscribe BEFORE the hello snapshot: an event landing between
	// the two is buffered, so the client never misses a commit that
	// happened while the stream was starting.
	sub := s.obs.Hub.Subscribe(name, 256)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if err := writeSSE(w, "hello", mustJSON(meta)); err != nil {
		return
	}
	fl.Flush()

	beat := time.NewTicker(watchHeartbeat)
	defer beat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-beat.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case ev, ok := <-sub.Events():
			if !ok {
				// Evicted for falling behind, or the session was deleted.
				return
			}
			if err := writeSSE(w, ev.Type, ev.Data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeSSE frames one server-sent event.
func writeSSE(w http.ResponseWriter, event string, data []byte) error {
	_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// mustJSON marshals a value that cannot fail (plain structs).
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`{}`)
	}
	return b
}
