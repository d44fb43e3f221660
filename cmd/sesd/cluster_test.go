package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ses"
	"ses/internal/cluster"
	"ses/internal/session"
)

// daemonSwap lets each httptest server exist (so its URL is known to
// every peer) before the daemon behind it does.
type daemonSwap struct{ h atomic.Value }

func (d *daemonSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := d.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "booting", http.StatusServiceUnavailable)
}

// daemonCluster boots n full sesd handler stacks — durable store,
// pipeline, cluster node, routes — clustered over httptest servers.
type daemonCluster struct {
	ids     []string
	urls    map[string]string
	nodes   map[string]*cluster.Node
	servers map[string]*httptest.Server
}

// kill simulates kill -9 on one member: its server vanishes and its
// store is abandoned mid-flight (no drain, no final checkpoint).
func (dc *daemonCluster) kill(id string) {
	dc.nodes[id].Close()
	dc.servers[id].CloseClientConnections()
	dc.servers[id].Close()
}

func newDaemonCluster(t *testing.T, n int, tweaks ...func(*cluster.NodeOptions)) *daemonCluster {
	t.Helper()
	dc := &daemonCluster{
		urls:    map[string]string{},
		nodes:   map[string]*cluster.Node{},
		servers: map[string]*httptest.Server{},
	}
	swaps := map[string]*daemonSwap{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i+1)
		dc.ids = append(dc.ids, id)
		sw := &daemonSwap{}
		swaps[id] = sw
		srv := httptest.NewServer(sw)
		dc.servers[id] = srv
		dc.urls[id] = srv.URL
	}
	var pipes []*ses.Pipeline
	var stores []*ses.DurableStore
	for _, id := range dc.ids {
		// Each member runs with full observability, exactly like a
		// production `sesd` (obs defaults on): node-local tracer wired
		// into both the handler stack and the replication layer.
		o := ses.NewObservability(ses.ObservabilityOptions{})
		d, err := ses.OpenStore(ses.WithDurability(t.TempDir()), ses.WithWorkers(1), ses.WithObservability(o))
		if err != nil {
			t.Fatal(err)
		}
		opts := cluster.NodeOptions{
			ID:      id,
			Peers:   dc.urls,
			Session: session.Options{Workers: 1},
			Shipper: cluster.ShipperOptions{Poll: 2 * time.Millisecond, Heartbeat: 50 * time.Millisecond},
			Logf:    t.Logf,
			Tracer:  o.Tracer,
		}
		for _, tw := range tweaks {
			tw(&opts)
		}
		node, err := cluster.NewNode(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		pipe := ses.NewPipeline(d, ses.WithResolveWorkers(1))
		srv := newServer(d, pipe)
		srv.obs = o
		srv.walStats = d.WALStats
		srv.node = node
		swaps[id].h.Store(srv.routes())
		node.Start()
		dc.nodes[id] = node
		pipes, stores = append(pipes, pipe), append(stores, d)
	}
	// Teardown order matters: stop the follower clients first, then cut
	// the shipper streams they held open (a plain server Close would
	// wait on them forever), then close the stores.
	t.Cleanup(func() {
		for _, n := range dc.nodes {
			n.Close()
		}
		for _, srv := range dc.servers {
			srv.CloseClientConnections()
			srv.Close()
		}
		for i := range stores {
			pipes[i].Close()
			stores[i].Close()
		}
	})
	return dc
}

// awaitReplica polls base's session metadata until n1's replica of
// name reports wantResolves resolves, failing on a wrong replica
// header, a name mismatch, a count past wantResolves, or after 15s.
func awaitReplica(t *testing.T, base, name string, wantResolves uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		req, _ := http.NewRequest("GET", base+"/v1/sessions/"+name, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var m ses.SessionMeta
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && err == nil {
			if got := resp.Header.Get("X-Ses-Replica-Of"); got != "n1" {
				t.Fatalf("%s: replica read served with X-Ses-Replica-Of=%q, want n1", base, got)
			}
			if m.Name != name || m.Resolves > wantResolves {
				t.Fatalf("%s: replica meta = %+v, want name %s with %d resolves", base, m, name, wantResolves)
			}
			if m.Resolves == wantResolves {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never served %s from its replica with %d resolves (last status %d, meta %+v)",
				base, name, wantResolves, resp.StatusCode, m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonClusterReplicaReads drives the full daemon surface of the
// cluster: a session created on n1 becomes readable on n2 via n2's
// warm replica (X-Ses-Replica-Of header), readiness and health report
// on every node, and /v1/metrics grows a replication section.
func TestDaemonClusterReplicaReads(t *testing.T) {
	dc := newDaemonCluster(t, 3)
	doc := instanceDoc(t, 77)

	var meta ses.SessionMeta
	do(t, "POST", dc.urls["n1"]+"/v1/sessions", createReq{Name: "repl-1", K: 3, Instance: doc}, http.StatusCreated, &meta)
	do(t, "POST", dc.urls["n1"]+"/v1/sessions/repl-1/batch", batchReq{}, http.StatusOK, nil)

	// The session lives only on n1; n2 and n3 must serve reads from
	// their replicas once replication catches up. Replication is
	// async, so a replica may answer 200 before the batch record has
	// arrived: poll until it reports the batch's resolve.
	awaitReplica(t, dc.urls["n2"], "repl-1", meta.Resolves+1)
	awaitReplica(t, dc.urls["n3"], "repl-1", meta.Resolves+1)

	// Schedule reads fall back to the replica too.
	req, _ := http.NewRequest("GET", dc.urls["n3"]+"/v1/sessions/repl-1/schedule", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sched scheduleResp
	if err := json.NewDecoder(resp.Body).Decode(&sched); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("replica schedule read: status %d err %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Ses-Replica-Of") != "n1" || len(sched.Assignments) == 0 {
		t.Fatalf("replica schedule read: of=%q assignments=%d", resp.Header.Get("X-Ses-Replica-Of"), len(sched.Assignments))
	}

	for _, id := range dc.ids {
		var ready map[string]string
		do(t, "GET", dc.urls[id]+"/v1/readyz", nil, http.StatusOK, &ready)
		if ready["status"] != "ready" {
			t.Errorf("%s readyz = %+v", id, ready)
		}
		resp, err := http.Get(dc.urls[id] + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s healthz: %d", id, resp.StatusCode)
		}
		resp.Body.Close()
	}

	var metrics struct {
		Replication *cluster.Metrics `json:"replication"`
	}
	do(t, "GET", dc.urls["n1"]+"/v1/metrics", nil, http.StatusOK, &metrics)
	if metrics.Replication == nil {
		t.Fatal("metrics missing replication section")
	}
	if metrics.Replication.NodeID != "n1" || metrics.Replication.RecordsShipped == 0 {
		t.Errorf("replication metrics = %+v, want node n1 with shipped records", metrics.Replication)
	}

	var status cluster.Status
	do(t, "GET", dc.urls["n1"]+"/v1/replication/status", nil, http.StatusOK, &status)
	if status.ID != "n1" || len(status.Streams) == 0 {
		t.Errorf("replication status = %+v, want id n1 with active streams", status)
	}
}

// TestDaemonClusterRouterList pins the real wire format between sesd
// and the router's list fan-merge: sessions created through a Router
// over real daemons must come back from the router's GET /v1/sessions
// with the counters -check-acks reads. (A stub emitting lowercase
// "name" keys once masked a case-sensitivity bug here.)
func TestDaemonClusterRouterList(t *testing.T) {
	dc := newDaemonCluster(t, 3)
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

	doc := instanceDoc(t, 11)
	names := []string{"list-a", "list-b", "list-c", "list-d"}
	for _, name := range names {
		do(t, "POST", front.URL+"/v1/sessions", createReq{Name: name, K: 3, Instance: doc}, http.StatusCreated, nil)
		do(t, "POST", front.URL+"/v1/sessions/"+name+"/batch", batchReq{Mutations: []ses.Mutation{
			ses.UpdateInterestOp(1, 0, 0.8),
		}}, http.StatusOK, nil)
	}

	var metas []ses.SessionMeta
	do(t, "GET", front.URL+"/v1/sessions", nil, http.StatusOK, &metas)
	byName := map[string]ses.SessionMeta{}
	for _, m := range metas {
		byName[m.Name] = m
	}
	for _, name := range names {
		m, ok := byName[name]
		if !ok {
			t.Errorf("session %s missing from the router's merged list %v", name, metas)
			continue
		}
		if m.Batches != 1 || m.Mutations != 1 || m.Resolves == 0 {
			t.Errorf("%s counters through the router = %+v, want 1 batch, 1 mutation, >=1 resolve", name, m)
		}
	}
}

// TestDaemonClusterSyncAck drives -replicate-ack 1 through the full
// daemon surface: mutations succeed while a follower confirms them,
// and degrade to an honest 503 — not a lying 200 — once the only
// follower is gone.
func TestDaemonClusterSyncAck(t *testing.T) {
	dc := newDaemonCluster(t, 2, func(o *cluster.NodeOptions) {
		o.ReplicateAck = 1
		o.AckWait = time.Second
	})
	doc := instanceDoc(t, 21)
	do(t, "POST", dc.urls["n1"]+"/v1/sessions", createReq{Name: "sync-1", K: 3, Instance: doc}, http.StatusCreated, nil)
	do(t, "POST", dc.urls["n1"]+"/v1/sessions/sync-1/batch", batchReq{Mutations: []ses.Mutation{
		ses.UpdateInterestOp(1, 0, 0.8),
	}}, http.StatusOK, nil)

	var metrics struct {
		Replication *cluster.Metrics `json:"replication"`
	}
	do(t, "GET", dc.urls["n1"]+"/v1/metrics", nil, http.StatusOK, &metrics)
	if m := metrics.Replication; m == nil || m.AckWaits < 2 || m.AckTimeouts != 0 {
		t.Fatalf("sync-ack metrics = %+v, want >=2 waits and 0 timeouts", metrics.Replication)
	}

	// Kill the only follower: the next mutation commits locally but
	// cannot be confirmed, so the daemon must answer 503.
	dc.kill("n2")
	resp, err := http.Post(dc.urls["n1"]+"/v1/sessions/sync-1/batch", "application/json",
		bytes.NewReader([]byte(`{"mutations":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutation with no live follower: status %d body %s, want 503", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte("replication unconfirmed")) {
		t.Errorf("503 body %q does not say the write is committed locally", raw)
	}
}

// TestDaemonClusterEpochFencing promotes a survivor at a fresh epoch,
// then proves a mutation stamped with an older router view is fenced
// with 409 while current (and unstamped operator) requests pass.
func TestDaemonClusterEpochFencing(t *testing.T) {
	dc := newDaemonCluster(t, 3)
	doc := instanceDoc(t, 31)
	do(t, "POST", dc.urls["n1"]+"/v1/sessions", createReq{Name: "fence-1", K: 3, Instance: doc}, http.StatusCreated, nil)

	// Wait for n2's replica of n1 to hold the session, then fail over.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(dc.urls["n2"] + "/v1/sessions/fence-1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fence-1 never replicated to n2")
		}
		time.Sleep(5 * time.Millisecond)
	}
	dc.kill("n1")
	do(t, "POST", dc.urls["n2"]+"/v1/replication/promote",
		map[string]any{"peer": "n1", "epoch": 2}, http.StatusOK, nil)

	batch := func(epoch string) int {
		t.Helper()
		req, err := http.NewRequest("POST", dc.urls["n2"]+"/v1/sessions/fence-1/batch",
			bytes.NewReader([]byte(`{"mutations":[]}`)))
		if err != nil {
			t.Fatal(err)
		}
		if epoch != "" {
			req.Header.Set("X-Ses-Epoch", epoch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := batch("1"); got != http.StatusConflict {
		t.Errorf("mutation at stale epoch 1: status %d, want 409", got)
	}
	if got := batch("2"); got != http.StatusOK {
		t.Errorf("mutation at the current epoch: status %d, want 200", got)
	}
	if got := batch(""); got != http.StatusOK {
		t.Errorf("unstamped operator mutation: status %d, want 200", got)
	}
}

// TestParsePeers: the -peers spec the daemon hands its node parses to
// the expected membership, and run refuses every malformed spec before
// it opens a listener.
func TestParsePeers(t *testing.T) {
	peers, err := cluster.ParsePeers("n1=http://a:1,n2=http://b:2/, n3=http://c:3")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"n1": "http://a:1", "n2": "http://b:2", "n3": "http://c:3"}
	if fmt.Sprint(peers) != fmt.Sprint(want) {
		t.Errorf("ParsePeers = %v, want %v", peers, want)
	}
	// A cancelled context makes a wrongly accepted spec return at once
	// instead of serving.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, bad := range []string{"", "n1", "n1=", "=http://a", "n1=x,n1=y"} {
		args := []string{"-addr", "127.0.0.1:0", "-data-dir", t.TempDir(), "-node-id", "n1", "-peers", bad}
		if err := run(ctx, args); err == nil {
			t.Errorf("run accepted -peers %q", bad)
		}
	}
}

// TestClusterFlagsValidated: cluster flags without a data dir (or half
// a pair) must fail fast rather than boot an unreplicated daemon.
func TestClusterFlagsValidated(t *testing.T) {
	ctx := t.Context()
	if err := run(ctx, []string{"-node-id", "n1", "-peers", "n1=http://x"}); err == nil {
		t.Error("cluster flags without -data-dir accepted")
	}
	if err := run(ctx, []string{"-data-dir", t.TempDir(), "-node-id", "n1"}); err == nil {
		t.Error("-node-id without -peers accepted")
	}
	if err := run(ctx, []string{"-data-dir", t.TempDir(), "-node-id", "n1", "-peers", "n2=http://x"}); err == nil {
		t.Error("peers without self accepted")
	}
}
