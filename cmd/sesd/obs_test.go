package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"ses"
	"ses/internal/cluster"
	"ses/internal/obs"
)

// obsTestServer is testServer with observability on — the default
// production shape — returning the Observability so tests can inspect
// the hub and tracer directly.
func obsTestServer(t *testing.T) (*httptest.Server, *ses.Observability) {
	t.Helper()
	o := ses.NewObservability(ses.ObservabilityOptions{})
	st := ses.NewStore(ses.WithWorkers(1), ses.WithObservability(o))
	pipe := ses.NewPipeline(st, ses.WithResolveWorkers(2))
	srv := httptest.NewServer(newServer(st, pipe, o, nil, nil).routes())
	t.Cleanup(func() {
		srv.Close()
		pipe.Close()
	})
	return srv, o
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	Type string
	Data string
}

// readSSE parses a text/event-stream body into events on a channel,
// closing it when the stream ends.
func readSSE(body *bufio.Scanner, out chan<- sseEvent) {
	defer close(out)
	var ev sseEvent
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			if ev.Type != "" || ev.Data != "" {
				out <- ev
				ev = sseEvent{}
			}
		case strings.HasPrefix(line, "event: "):
			ev.Type = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.Data = line[len("data: "):]
		}
	}
}

// nextEvent receives the next SSE event or fails the test.
func nextEvent(t *testing.T, ch <-chan sseEvent) (sseEvent, bool) {
	t.Helper()
	select {
	case ev, ok := <-ch:
		return ev, ok
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for an SSE event")
		return sseEvent{}, false
	}
}

// TestWatchSSELifecycle drives the full watch stream: subscribe, see
// the hello snapshot, see progress and commit events from a live
// batch, and observe the stream end — with the hub cleaned up — when
// the session is deleted.
func TestWatchSSELifecycle(t *testing.T) {
	srv, o := obsTestServer(t)
	doc := instanceDoc(t, 91)
	do(t, "POST", srv.URL+"/v1/sessions", createReq{Name: "fest", K: 3, Instance: doc}, http.StatusCreated, nil)

	// Unknown sessions 404 before any stream starts.
	do(t, "GET", srv.URL+"/v1/sessions/ghost/watch", nil, http.StatusNotFound, nil)

	resp, err := http.Get(srv.URL + "/v1/sessions/fest/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch Content-Type = %q, want text/event-stream", ct)
	}
	events := make(chan sseEvent, 64)
	go readSSE(bufio.NewScanner(resp.Body), events)

	hello, ok := nextEvent(t, events)
	if !ok || hello.Type != "hello" {
		t.Fatalf("first event = %+v, want hello", hello)
	}
	var meta ses.SessionMeta
	if err := json.Unmarshal([]byte(hello.Data), &meta); err != nil || meta.Name != "fest" {
		t.Fatalf("hello payload %q (err %v), want fest metadata", hello.Data, err)
	}
	if subs := o.Hub.Stats().Subscribers; subs != 1 {
		t.Fatalf("hub subscribers = %d, want 1", subs)
	}

	// A batch behind the live stream must surface progress (per solver
	// assignment) and exactly the committed delta.
	do(t, "POST", srv.URL+"/v1/sessions/fest/batch", batchReq{Mutations: []ses.Mutation{
		ses.UpdateInterestOp(1, 0, 0.9),
	}}, http.StatusOK, nil)
	var sawProgress, sawCommit bool
	for !sawCommit {
		ev, ok := nextEvent(t, events)
		if !ok {
			t.Fatal("stream ended before the commit event")
		}
		switch ev.Type {
		case "progress":
			sawProgress = true
			var p struct {
				Solver string `json:"solver"`
				Event  int    `json:"event"`
			}
			if err := json.Unmarshal([]byte(ev.Data), &p); err != nil || p.Solver == "" {
				t.Fatalf("progress payload %q (err %v)", ev.Data, err)
			}
		case "commit":
			sawCommit = true
			var c struct {
				Meta struct {
					Batches uint64 `json:"Batches"`
				} `json:"meta"`
			}
			if err := json.Unmarshal([]byte(ev.Data), &c); err != nil || c.Meta.Batches != 1 {
				t.Fatalf("commit payload %q (err %v), want Batches=1", ev.Data, err)
			}
		}
	}
	if !sawProgress {
		t.Error("no progress events arrived before the commit")
	}

	// Deleting the session must end the stream, not leak the subscriber.
	do(t, "DELETE", srv.URL+"/v1/sessions/fest", nil, http.StatusNoContent, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, open := <-events; !open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watch stream still open after session delete")
		}
	}
	for o.Hub.Stats().Subscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hub subscribers = %d after stream end, want 0", o.Hub.Stats().Subscribers)
		}
		time.Sleep(time.Millisecond)
	}
}

// doTraced issues a request and returns the response's X-Ses-Trace
// header alongside the status code.
func doTraced(t *testing.T, method, url, sendID string) (traceID string, status int) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(`{"mutations":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if sendID != "" {
		req.Header.Set("X-Ses-Trace", sendID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.Header.Get("X-Ses-Trace"), resp.StatusCode
}

// treeNames flattens a span tree into the set of span names.
func treeNames(tree *obs.TraceTree) map[string]bool {
	names := map[string]bool{}
	var walk func(nodes []*obs.SpanNode)
	walk = func(nodes []*obs.SpanNode) {
		for _, n := range nodes {
			names[n.Name] = true
			walk(n.Children)
		}
	}
	walk(tree.Spans)
	return names
}

// TestTraceEndpoints pins the trace surface: a batch request's trace
// tree spans handler → pipeline → session.resolve → engine.scoring,
// propagated IDs are adopted and echoed, and the list endpoint
// filters.
func TestTraceEndpoints(t *testing.T) {
	srv, _ := obsTestServer(t)
	doc := instanceDoc(t, 17)
	do(t, "POST", srv.URL+"/v1/sessions", createReq{Name: "traced", K: 3, Instance: doc}, http.StatusCreated, nil)

	// A client-supplied ID is adopted and echoed back.
	const foreign = "deadbeefcafef00d"
	id, status := doTraced(t, "POST", srv.URL+"/v1/sessions/traced/batch", foreign)
	if status != http.StatusOK || id != foreign {
		t.Fatalf("traced batch: status %d, echoed id %q, want 200/%q", status, id, foreign)
	}

	var tree obs.TraceTree
	do(t, "GET", srv.URL+"/v1/traces/"+foreign, nil, http.StatusOK, &tree)
	if tree.ID != foreign {
		t.Fatalf("trace id = %q, want %q", tree.ID, foreign)
	}
	names := treeNames(&tree)
	for _, want := range []string{obs.SpanHandler, obs.SpanPipeline, obs.SpanResolve, obs.SpanScoring, obs.SpanSelect} {
		if !names[want] {
			t.Errorf("trace tree missing span %q (have %v)", want, names)
		}
	}
	if len(tree.Spans) != 1 || tree.Spans[0].Name != obs.SpanHandler {
		t.Fatalf("trace root forest = %+v, want a single handler root", tree.Spans)
	}

	// Without a supplied ID the daemon mints one and still serves it.
	id, status = doTraced(t, "POST", srv.URL+"/v1/sessions/traced/batch", "")
	if status != http.StatusOK || id == "" || id == foreign {
		t.Fatalf("untraced batch: status %d, minted id %q", status, id)
	}
	do(t, "GET", srv.URL+"/v1/traces/"+id, nil, http.StatusOK, &tree)

	// Listing: both traces are there, newest first; min-duration and
	// limit filter; junk parameters 400; unknown IDs 404.
	var list struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	do(t, "GET", srv.URL+"/v1/traces", nil, http.StatusOK, &list)
	if len(list.Traces) < 2 || list.Traces[0].ID != id {
		t.Fatalf("trace list = %+v, want >=2 newest-first (newest %s)", list.Traces, id)
	}
	do(t, "GET", srv.URL+"/v1/traces?limit=1", nil, http.StatusOK, &list)
	if len(list.Traces) != 1 {
		t.Fatalf("limit=1 returned %d traces", len(list.Traces))
	}
	do(t, "GET", srv.URL+"/v1/traces?min=1h", nil, http.StatusOK, &list)
	if len(list.Traces) != 0 {
		t.Fatalf("min=1h returned %d traces, want 0", len(list.Traces))
	}
	do(t, "GET", srv.URL+"/v1/traces?min=bogus", nil, http.StatusBadRequest, nil)
	do(t, "GET", srv.URL+"/v1/traces?limit=-3", nil, http.StatusBadRequest, nil)
	do(t, "GET", srv.URL+"/v1/traces/nope", nil, http.StatusNotFound, nil)
}

// seriesRe matches one Prometheus sample line: name{labels} value.
// Label values are quoted strings that may themselves contain braces
// (route patterns like "GET /v1/sessions/{name}"), so the label part
// is parsed as quoted pairs, not as "anything up to the first }".
var seriesRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*\})? [^ ]+$`)

// TestDaemonPrometheusExposition scrapes /metrics after real traffic
// and checks the exposition is well-formed (every line parses, no
// series repeats) and that the key families the dashboards and CI
// grep for are present.
func TestDaemonPrometheusExposition(t *testing.T) {
	srv, _ := obsTestServer(t)
	doc := instanceDoc(t, 5)
	do(t, "POST", srv.URL+"/v1/sessions", createReq{Name: "prom", K: 3, Instance: doc}, http.StatusCreated, nil)
	do(t, "POST", srv.URL+"/v1/sessions/prom/resolve", nil, http.StatusOK, nil)
	do(t, "GET", srv.URL+"/v1/sessions/missing", nil, http.StatusNotFound, nil)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("exposition Content-Type = %q", ct)
	}
	seen := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var body strings.Builder
	for sc.Scan() {
		line := sc.Text()
		body.WriteString(line)
		body.WriteByte('\n')
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := seriesRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed exposition line %q", line)
		}
		series := m[1] + m[2]
		if seen[series] {
			t.Fatalf("duplicate series %q", series)
		}
		seen[series] = true
	}
	text := body.String()
	for _, want := range []string{
		`ses_http_requests_total{route="POST /v1/sessions",code="201"}`,
		`ses_http_errors_total{class="client"}`,
		`ses_resolve_stage_seconds_bucket{stage="session.resolve",le="+Inf"}`,
		"ses_sessions 1",
		"ses_pipeline_queue_depth",
		"ses_pipeline_executed_total",
		"ses_watch_subscribers 0",
		"ses_uptime_seconds",
		"ses_traces",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestErrorClassSplit pins the client/server error split in both the
// JSON metrics and the Prometheus exposition.
func TestErrorClassSplit(t *testing.T) {
	srv, _ := obsTestServer(t)
	do(t, "GET", srv.URL+"/v1/sessions/absent", nil, http.StatusNotFound, nil)
	do(t, "GET", srv.URL+"/v1/sessions/absent/schedule", nil, http.StatusNotFound, nil)

	var m metricsResp
	do(t, "GET", srv.URL+"/v1/metrics", nil, http.StatusOK, &m)
	if m.ErrorsClient != 2 || m.ErrorsServer != 0 {
		t.Fatalf("error split = client %d / server %d, want 2/0", m.ErrorsClient, m.ErrorsServer)
	}
	if m.Errors != m.ErrorsClient+m.ErrorsServer {
		t.Fatalf("errors %d != client %d + server %d", m.Errors, m.ErrorsClient, m.ErrorsServer)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var found bool
	for sc.Scan() {
		if sc.Text() == `ses_http_errors_total{class="client"} 2` {
			found = true
		}
	}
	if !found {
		t.Error(`exposition missing ses_http_errors_total{class="client"} 2`)
	}
}

// TestDashboardServed checks the embedded dashboard answers at /.
func TestDashboardServed(t *testing.T) {
	srv, _ := obsTestServer(t)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("dashboard: status %d, type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	sc := bufio.NewScanner(resp.Body)
	var hasWatch bool
	for sc.Scan() {
		if strings.Contains(sc.Text(), "EventSource") {
			hasWatch = true
		}
	}
	if !hasWatch {
		t.Error("dashboard page has no EventSource watch wiring")
	}
}

// TestObsDisabledSurfacesOff pins the -obs=false shape: the trace and
// watch endpoints answer 404 and /metrics is absent, while the JSON
// surfaces keep working.
func TestObsDisabledSurfacesOff(t *testing.T) {
	srv := testServer(t) // no observability attached
	doc := instanceDoc(t, 3)
	do(t, "POST", srv.URL+"/v1/sessions", createReq{Name: "dark", K: 3, Instance: doc}, http.StatusCreated, nil)
	do(t, "GET", srv.URL+"/v1/traces", nil, http.StatusNotFound, nil)
	do(t, "GET", srv.URL+"/v1/traces/x", nil, http.StatusNotFound, nil)
	do(t, "GET", srv.URL+"/v1/sessions/dark/watch", nil, http.StatusNotFound, nil)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics with obs off: status %d, want 404", resp.StatusCode)
	}
	do(t, "GET", srv.URL+"/v1/metrics", nil, http.StatusOK, nil)
}

// TestClusterTracePropagation proves one X-Ses-Trace ID follows a
// router-forwarded write onto the primary's trace ring (with its WAL
// fsync) AND onto the follower's ring as a remote replication.apply
// span — the end-to-end path the issue demands.
func TestClusterTracePropagation(t *testing.T) {
	dc := newDaemonCluster(t, 2)
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Peers:          dc.urls,
		HealthInterval: 10 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Start()
	front := httptest.NewServer(rt)
	defer front.Close()

	doc := instanceDoc(t, 47)
	do(t, "POST", front.URL+"/v1/sessions", createReq{Name: "span-1", K: 3, Instance: doc}, http.StatusCreated, nil)

	const traceID = "feedfacecafebeef"
	id, status := doTraced(t, "POST", front.URL+"/v1/sessions/span-1/batch", traceID)
	if status != http.StatusOK || id != traceID {
		t.Fatalf("routed batch: status %d, echoed id %q, want 200/%q", status, id, traceID)
	}

	// Exactly one node served the write: its ring holds the handler
	// root with the WAL fsync under it.
	fetch := func(node string) (*obs.TraceTree, bool) {
		resp, err := http.Get(dc.urls[node] + "/v1/traces/" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, false
		}
		var tree obs.TraceTree
		if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
			t.Fatal(err)
		}
		return &tree, true
	}
	var primary, follower string
	for _, node := range dc.ids {
		if tree, ok := fetch(node); ok && treeNames(tree)[obs.SpanHandler] {
			primary = node
		} else {
			follower = node
		}
	}
	if primary == "" {
		t.Fatal("no node's trace ring holds the routed write's handler span")
	}
	tree, _ := fetch(primary)
	names := treeNames(tree)
	for _, want := range []string{obs.SpanHandler, obs.SpanPipeline, obs.SpanResolve, obs.SpanWALFsync} {
		if !names[want] {
			t.Errorf("primary %s trace missing span %q (have %v)", primary, want, names)
		}
	}

	// The follower replays the shipped WAL record under the same trace
	// ID: poll until its ring shows the remote replication.apply span.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if tree, ok := fetch(follower); ok {
			var remote bool
			var walk func([]*obs.SpanNode)
			walk = func(nodes []*obs.SpanNode) {
				for _, n := range nodes {
					if n.Name == obs.SpanReplApply && n.Remote {
						remote = true
					}
					walk(n.Children)
				}
			}
			walk(tree.Spans)
			if remote {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower %s never recorded a remote %s span for trace %s", follower, obs.SpanReplApply, traceID)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
