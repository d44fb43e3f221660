package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ses"
	"ses/internal/core"
	"ses/internal/dataset"
	"ses/internal/sestest"
)

// testServer spins up the daemon handler over a fresh store with the
// same resolve pipeline the daemon runs in production.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	st := ses.NewStore(ses.WithWorkers(1))
	pipe := ses.NewPipeline(st, ses.WithResolveWorkers(2))
	srv := httptest.NewServer(newServer(st, pipe, nil, nil, nil).routes())
	t.Cleanup(func() {
		srv.Close()
		pipe.Close()
	})
	return srv
}

// instanceDoc builds a serializable instance document.
func instanceDoc(t testing.TB, seed uint64) *dataset.InstanceDoc {
	t.Helper()
	inst := sestest.Random(sestest.Config{Users: 25, Events: 10, Intervals: 4, Competing: 2, Seed: seed})
	doc, err := dataset.NewInstanceDoc(inst)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// do runs one JSON request and decodes the response into out (unless
// nil), asserting the status code.
func do(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d; body: %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
}

func TestDaemonLifecycle(t *testing.T) {
	srv := testServer(t)
	doc := instanceDoc(t, 31)

	var meta ses.SessionMeta
	do(t, "POST", srv.URL+"/v1/sessions", createReq{Name: "fest", K: 4, Instance: doc}, http.StatusCreated, &meta)
	if meta.Name != "fest" || meta.K != 4 || meta.Events != 10 {
		t.Fatalf("create meta: %+v", meta)
	}
	// Duplicate name conflicts.
	do(t, "POST", srv.URL+"/v1/sessions", createReq{Name: "fest", K: 4, Instance: doc}, http.StatusConflict, nil)

	// Resolve commits a schedule.
	var delta ses.Delta
	do(t, "POST", srv.URL+"/v1/sessions/fest/resolve", nil, http.StatusOK, &delta)
	if len(delta.Added) == 0 || delta.Utility <= 0 {
		t.Fatalf("first resolve: %+v", delta)
	}

	// Batch: mutations + one resolve, ids returned.
	var res ses.BatchResult
	do(t, "POST", srv.URL+"/v1/sessions/fest/batch", batchReq{Mutations: []ses.Mutation{
		ses.AddEventOp(ses.Event{Location: 1, Required: 1, Name: "late-show"}, map[int]float64{0: 0.9}),
		ses.UpdateInterestOp(1, 0, 0.8),
		ses.SetKOp(5),
	}}, http.StatusOK, &res)
	if len(res.EventIDs) != 1 || res.EventIDs[0] != 10 || res.Delta == nil {
		t.Fatalf("batch result: %+v", res)
	}

	// Schedule view matches the metadata view.
	var sched scheduleResp
	do(t, "GET", srv.URL+"/v1/sessions/fest/schedule", nil, http.StatusOK, &sched)
	do(t, "GET", srv.URL+"/v1/sessions/fest", nil, http.StatusOK, &meta)
	if len(sched.Assignments) != meta.Scheduled || sched.Utility != meta.Utility {
		t.Fatalf("schedule %+v disagrees with meta %+v", sched, meta)
	}
	if meta.Resolves != 2 || meta.Batches != 1 || meta.Mutations != 3 {
		t.Fatalf("meta counters: %+v", meta)
	}

	// Listing returns the one session.
	var metas []ses.SessionMeta
	do(t, "GET", srv.URL+"/v1/sessions", nil, http.StatusOK, &metas)
	if len(metas) != 1 || metas[0].Name != "fest" {
		t.Fatalf("list: %+v", metas)
	}

	// Metrics counts what happened.
	var m metricsResp
	do(t, "GET", srv.URL+"/v1/metrics", nil, http.StatusOK, &m)
	if m.Sessions != 1 || m.Resolves != 2 || m.Batches != 1 || m.Errors == 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.ResolveMs["p50"] <= 0 || m.ResolveMs["max"] < m.ResolveMs["p50"] {
		t.Fatalf("latency summary: %+v", m.ResolveMs)
	}

	// Delete, then 404.
	do(t, "DELETE", srv.URL+"/v1/sessions/fest", nil, http.StatusNoContent, nil)
	do(t, "GET", srv.URL+"/v1/sessions/fest", nil, http.StatusNotFound, nil)
}

// TestMetricsFreshBoot is the zero-sample regression: /v1/metrics on a
// daemon that has never resolved anything must answer 200 with a
// JSON-safe body (empty latency map, zero counters), not panic on an
// empty percentile sample and 500.
func TestMetricsFreshBoot(t *testing.T) {
	srv := testServer(t)
	var m metricsResp
	do(t, "GET", srv.URL+"/v1/metrics", nil, http.StatusOK, &m)
	if m.Sessions != 0 || m.Resolves != 0 || m.Batches != 0 {
		t.Fatalf("fresh-boot metrics not zero: %+v", m)
	}
	if len(m.ResolveMs) != 0 {
		t.Fatalf("fresh-boot latency summary should be empty, got %+v", m.ResolveMs)
	}
	if m.UptimeSec < 0 {
		t.Fatalf("uptime %v negative", m.UptimeSec)
	}
	// A session that exists but was never resolved must not change that.
	do(t, "POST", srv.URL+"/v1/sessions", createReq{Name: "idle", K: 3, Instance: instanceDoc(t, 77)}, http.StatusCreated, nil)
	do(t, "GET", srv.URL+"/v1/metrics", nil, http.StatusOK, &m)
	if m.Sessions != 1 || len(m.ResolveMs) != 0 {
		t.Fatalf("idle-session metrics: sessions=%d resolve_ms=%+v", m.Sessions, m.ResolveMs)
	}
}

func TestDaemonSnapshotRestoreRoundTrip(t *testing.T) {
	srv := testServer(t)
	doc := instanceDoc(t, 32)
	do(t, "POST", srv.URL+"/v1/sessions", createReq{Name: "src", K: 4, Instance: doc}, http.StatusCreated, nil)
	do(t, "POST", srv.URL+"/v1/sessions/src/batch", batchReq{Mutations: []ses.Mutation{
		ses.ForbidOp(0, 1),
		ses.AddCompetingOp(ses.CompetingEvent{Interval: 0, Name: "rival"}, map[int]float64{2: 0.6}),
	}}, http.StatusOK, nil)

	// Fetch the JSON snapshot.
	resp, err := http.Get(srv.URL + "/v1/sessions/src/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap1, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d err %v", resp.StatusCode, err)
	}

	// Restore it as a new session on the same daemon.
	restoreResp, err := http.Post(srv.URL+"/v1/sessions/copy/restore", "application/json", bytes.NewReader(snap1))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, restoreResp.Body)
	restoreResp.Body.Close()
	if restoreResp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d", restoreResp.StatusCode)
	}

	// Both sessions serve the same schedule, and the copy's snapshot is
	// byte-identical up to the name field (names differ; strip them).
	var a, b scheduleResp
	do(t, "GET", srv.URL+"/v1/sessions/src/schedule", nil, http.StatusOK, &a)
	do(t, "GET", srv.URL+"/v1/sessions/copy/schedule", nil, http.StatusOK, &b)
	if a.Utility != b.Utility || fmt.Sprint(a.Assignments) != fmt.Sprint(b.Assignments) {
		t.Fatalf("restored session differs: %+v vs %+v", a, b)
	}
	resp2, err := http.Get(srv.URL + "/v1/sessions/copy/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	strip := func(b []byte) string {
		return strings.Replace(string(b), `"name":"copy"`, `"name":"src"`, 1)
	}
	if strip(snap2) != string(snap1) {
		t.Fatalf("snapshot of restored session differs:\n%s\nvs\n%s", snap1, snap2)
	}

	// Restore over an existing session requires replace=true.
	conflict, err := http.Post(srv.URL+"/v1/sessions/copy/restore", "application/json", bytes.NewReader(snap1))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, conflict.Body)
	conflict.Body.Close()
	if conflict.StatusCode != http.StatusConflict {
		t.Fatalf("restore conflict: status %d", conflict.StatusCode)
	}
	replace, err := http.Post(srv.URL+"/v1/sessions/copy/restore?replace=true", "application/json", bytes.NewReader(snap1))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, replace.Body)
	replace.Body.Close()
	if replace.StatusCode != http.StatusOK {
		t.Fatalf("restore replace: status %d", replace.StatusCode)
	}

	// Binary snapshot round-trips through the restore endpoint too.
	bresp, err := http.Get(srv.URL + "/v1/sessions/src/snapshot?format=binary")
	if err != nil {
		t.Fatal(err)
	}
	bin, _ := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if bresp.Header.Get("Content-Type") != "application/octet-stream" || len(bin) == 0 {
		t.Fatalf("binary snapshot: %q, %d bytes", bresp.Header.Get("Content-Type"), len(bin))
	}
	brestore, err := http.Post(srv.URL+"/v1/sessions/bin/restore", "application/octet-stream", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, brestore.Body)
	brestore.Body.Close()
	if brestore.StatusCode != http.StatusOK {
		t.Fatalf("binary restore: status %d", brestore.StatusCode)
	}
}

func TestDaemonTimeoutFlowsIntoResolve(t *testing.T) {
	srv := testServer(t)
	// Large enough that a 1ns deadline certainly fires during solving.
	inst := sestest.Random(sestest.Config{Users: 400, Events: 60, Intervals: 12, Seed: 33})
	doc, err := dataset.NewInstanceDoc(inst)
	if err != nil {
		t.Fatal(err)
	}
	do(t, "POST", srv.URL+"/v1/sessions", createReq{Name: "big", K: 30, Instance: doc}, http.StatusCreated, nil)

	// An immediate deadline fires during the one-shot scoring phase:
	// nothing to commit, so the daemon reports a timeout.
	do(t, "POST", srv.URL+"/v1/sessions/big/resolve?timeout=1ns", nil, http.StatusGatewayTimeout, nil)

	// Short-but-plausible deadlines land either in scoring (504) or in
	// the anytime selection, which commits the feasible best-so-far
	// with Stopped set. Both prove the request deadline reaches the
	// solver; anything else is a bug.
	for _, timeout := range []string{"200us", "1ms", "5ms"} {
		req, err := http.NewRequest("POST", srv.URL+"/v1/sessions/big/resolve?timeout="+timeout, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			// fine: deadline during scoring
		case http.StatusOK:
			var delta ses.Delta
			if err := json.Unmarshal(raw, &delta); err != nil {
				t.Fatal(err)
			}
			if delta.Stopped != "" && delta.Stopped != ses.StoppedDeadline {
				t.Fatalf("timeout %s: unexpected stop reason %q", timeout, delta.Stopped)
			}
		default:
			t.Fatalf("timeout %s: status %d, body %s", timeout, resp.StatusCode, raw)
		}
	}

	// A generous timeout completes normally.
	var delta ses.Delta
	do(t, "POST", srv.URL+"/v1/sessions/big/resolve?timeout=1m", nil, http.StatusOK, &delta)
	if delta.Stopped != "" {
		t.Fatalf("generous timeout still stopped early: %+v", delta)
	}
	// Bad timeout strings are rejected.
	do(t, "POST", srv.URL+"/v1/sessions/big/resolve?timeout=soon", nil, http.StatusBadRequest, nil)
}

func TestDaemonRejectsGarbage(t *testing.T) {
	srv := testServer(t)
	do(t, "POST", srv.URL+"/v1/sessions", map[string]any{"name": "x"}, http.StatusBadRequest, nil)
	do(t, "POST", srv.URL+"/v1/sessions", map[string]any{"name": "x", "instance": map[string]any{"num_users": -4}}, http.StatusBadRequest, nil)
	do(t, "POST", srv.URL+"/v1/sessions/nope/resolve", nil, http.StatusNotFound, nil)
	do(t, "GET", srv.URL+"/v1/sessions/nope/schedule", nil, http.StatusNotFound, nil)
	do(t, "GET", srv.URL+"/v1/sessions/nope/snapshot", nil, http.StatusNotFound, nil)
	resp, err := http.Post(srv.URL+"/v1/sessions/x/restore", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage restore: status %d", resp.StatusCode)
	}
}

// TestDaemonRejectsOutOfRangeDocuments sends two documents whose
// interest rows name users the σ table does not hold: a negative user
// id, and a 1×1 table under a row naming user 2. Both must be refused
// at create and at restore (400), and the daemon must keep serving. A
// daemon that accepts either one panics in its scoring goroutine on
// the resolve below, which takes the whole process down.
func TestDaemonRejectsOutOfRangeDocuments(t *testing.T) {
	srv := testServer(t)
	do(t, "POST", srv.URL+"/v1/sessions", map[string]any{"name": "ok", "k": 3, "instance": instanceDoc(t, 5)}, http.StatusCreated, nil)
	resp, err := http.Get(srv.URL + "/v1/sessions/ok/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var snapshot map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&snapshot)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	for name, doc := range outOfRangeDocs() {
		body, err := json.Marshal(map[string]any{"name": name, "k": 1, "instance": doc})
		if err != nil {
			t.Fatal(err)
		}
		created := post(t, srv.URL+"/v1/sessions", body)
		resolved := post(t, srv.URL+"/v1/sessions/"+name+"/resolve", nil)
		if created != http.StatusBadRequest || resolved != http.StatusNotFound {
			t.Fatalf("%s: create %d, resolve %d; want 400, 404", name, created, resolved)
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		snapshot["instance"] = raw
		body, err = json.Marshal(snapshot)
		if err != nil {
			t.Fatal(err)
		}
		if got := post(t, srv.URL+"/v1/sessions/"+name+"/restore", body); got != http.StatusBadRequest {
			t.Fatalf("%s: restore %d, want 400", name, got)
		}
	}
	do(t, "POST", srv.URL+"/v1/sessions/ok/resolve", nil, http.StatusOK, nil)
}

// outOfRangeDocs are two documents whose interest rows name users the
// σ table does not hold: a negative user id, and a 1×1 table under a
// row naming user 2.
func outOfRangeDocs() map[string]*dataset.InstanceDoc {
	row := func(ids []int32) dataset.MatrixDoc {
		vals := make([]float64, len(ids))
		for i := range vals {
			vals[i] = 0.5
		}
		return dataset.MatrixDoc{NumUsers: 3, Rows: []dataset.VectorDoc{{IDs: ids, Vals: vals}}}
	}
	return map[string]*dataset.InstanceDoc{
		"negative-user": {
			NumUsers: 3, NumIntervals: 2, Resources: 10,
			Events:       []core.Event{{Required: 1}},
			CandInterest: row([]int32{-7, 1}),
			CompInterest: dataset.MatrixDoc{NumUsers: 3},
			Activity:     dataset.ActivityDoc{Type: "table", Table: [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}},
		},
		"short-table": {
			NumUsers: 3, NumIntervals: 1, Resources: 10,
			Events:       []core.Event{{Required: 1}},
			CandInterest: row([]int32{2}),
			CompInterest: dataset.MatrixDoc{NumUsers: 3},
			Activity:     dataset.ActivityDoc{Type: "table", Table: [][]float64{{0.5}}},
		},
	}
}

// post sends a JSON body and returns the status code.
func post(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestDaemonObjectiveSelection: a session created with an objective
// reports it in its metadata, carries it in snapshots, and restores it
// into another daemon; bad specs are rejected up front.
func TestDaemonObjectiveSelection(t *testing.T) {
	srv := testServer(t)

	var meta ses.SessionMeta
	do(t, "POST", srv.URL+"/v1/sessions", map[string]any{
		"name": "fair", "k": 3, "objective": "fairness:0.7", "instance": instanceDoc(t, 5),
	}, http.StatusCreated, &meta)
	if meta.Objective != "fairness:0.7" {
		t.Fatalf("create meta objective = %q", meta.Objective)
	}

	// Default objective is omega and shows up as such.
	do(t, "POST", srv.URL+"/v1/sessions", map[string]any{
		"name": "plain", "k": 3, "instance": instanceDoc(t, 6),
	}, http.StatusCreated, &meta)
	if meta.Objective != "omega" {
		t.Fatalf("default meta objective = %q", meta.Objective)
	}

	// Unknown spec: 400 before any session is created.
	do(t, "POST", srv.URL+"/v1/sessions", map[string]any{
		"name": "bad", "k": 3, "objective": "maximize-vibes", "instance": instanceDoc(t, 7),
	}, http.StatusBadRequest, nil)
	do(t, "GET", srv.URL+"/v1/sessions/bad", nil, http.StatusNotFound, nil)

	// Resolve, snapshot, and restore into a second daemon: the
	// objective travels with the session.
	do(t, "POST", srv.URL+"/v1/sessions/fair/resolve", nil, http.StatusOK, nil)
	resp, err := http.Get(srv.URL + "/v1/sessions/fair/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d err %v", resp.StatusCode, err)
	}
	if !strings.Contains(string(raw), `"objective":"fairness:0.7"`) {
		t.Fatalf("snapshot does not carry the objective: %s", raw)
	}

	other := testServer(t)
	req, err := http.NewRequest("POST", other.URL+"/v1/sessions/fair/restore", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp2.Body)
		t.Fatalf("restore status %d: %s", resp2.StatusCode, body)
	}
	var restored ses.SessionMeta
	if err := json.NewDecoder(resp2.Body).Decode(&restored); err != nil {
		t.Fatal(err)
	}
	if restored.Objective != "fairness:0.7" {
		t.Fatalf("restored meta objective = %q", restored.Objective)
	}
}

// TestScheduleReadsOneCommit reads /schedule while commits alternate
// between k=2 and k=3: every response must pair a schedule with the
// utility of the same commit, never one commit's schedule with the
// other's utility.
func TestScheduleReadsOneCommit(t *testing.T) {
	ctx := context.Background()
	st := ses.NewStore(ses.WithWorkers(1))
	h := newServer(st, nil, nil, nil, nil).routes()
	if err := st.Create("s", sestest.Random(sestest.Config{Users: 25, Events: 10, Intervals: 4, Seed: 3}), 3); err != nil {
		t.Fatal(err)
	}
	// utility[n] is the utility of the n-event schedule k=n commits.
	utility := map[int]float64{}
	for _, k := range []int{2, 3} {
		res, err := st.ApplyBatch(ctx, "s", []ses.Mutation{ses.SetKOp(k)})
		if err != nil {
			t.Fatal(err)
		}
		if m, err := st.Meta("s"); err != nil || m.Scheduled != k {
			t.Fatalf("k=%d committed %d events (%v)", k, m.Scheduled, err)
		}
		utility[k] = res.Delta.Utility
	}
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for k := 2; ; k = 5 - k {
			select {
			case <-stop:
				return
			default:
			}
			res, err := st.ApplyBatch(ctx, "s", []ses.Mutation{ses.SetKOp(k)})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Delta.Utility != utility[k] {
				t.Errorf("k=%d committed utility %v, then %v", k, utility[k], res.Delta.Utility)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-writerDone
	}()
	deadline := time.Now().Add(time.Second)
	for read := 0; read < 20000 && time.Now().Before(deadline); read++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/s/schedule", nil))
		var resp scheduleResp
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if want, ok := utility[len(resp.Assignments)]; !ok || resp.Utility != want {
			t.Fatalf("read %d: %d events with utility %v; the %d-event commit has utility %v", read, len(resp.Assignments), resp.Utility, len(resp.Assignments), want)
		}
	}
}
