package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ses/internal/core"
	"ses/internal/session"
	"ses/internal/sestest"
	"ses/internal/snap"
	"ses/internal/store"
	"ses/internal/wal"
)

func testInstance(seed uint64) *core.Instance {
	return sestest.Random(sestest.Config{Users: 25, Events: 10, Intervals: 4, Competing: 2, Seed: seed})
}

// stateReader is the read surface shared by durable stores and
// replicas, enough to compute a canonical state.
type stateReader interface {
	Snapshot(string) (*session.State, error)
	Meta(string) (store.Meta, error)
}

// canonical returns the byte-exact canonical encoding of one session:
// its snapshot plus the meta counters replication must preserve.
func canonical(t *testing.T, s stateReader, name string) []byte {
	t.Helper()
	st, err := s.Snapshot(name)
	if err != nil {
		t.Fatalf("Snapshot(%s): %v", name, err)
	}
	doc, err := snap.FromState(name, st)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := snap.EncodeJSON(&b, doc); err != nil {
		t.Fatal(err)
	}
	m, err := s.Meta(name)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "meta resolves=%d mutations=%d batches=%d utility=%x scheduled=%d stopped=%q objective=%s\n",
		m.Resolves, m.Mutations, m.Batches, m.Utility, m.Scheduled, m.Stopped, m.Objective)
	return b.Bytes()
}

// swapHandler lets an httptest server start before its node exists.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) set(h http.Handler) { s.h.Store(h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "node not up", http.StatusServiceUnavailable)
}

// testCluster is an in-process N-node cluster: one durable store, one
// Node, and one HTTP server per member.
type testCluster struct {
	t       *testing.T
	ids     []string
	urls    map[string]string
	stores  map[string]*store.Durable
	nodes   map[string]*Node
	servers map[string]*httptest.Server
}

func newTestCluster(t *testing.T, n int, durOpts store.DurableOptions, tweaks ...func(*NodeOptions)) *testCluster {
	t.Helper()
	if durOpts.Session.Workers == 0 {
		durOpts.Session.Workers = 1
	}
	c := &testCluster{
		t:       t,
		urls:    make(map[string]string),
		stores:  make(map[string]*store.Durable),
		nodes:   make(map[string]*Node),
		servers: make(map[string]*httptest.Server),
	}
	handlers := make(map[string]*swapHandler)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i+1)
		c.ids = append(c.ids, id)
		h := &swapHandler{}
		handlers[id] = h
		srv := httptest.NewServer(h)
		c.servers[id] = srv
		c.urls[id] = srv.URL
	}
	for _, id := range c.ids {
		d, err := store.OpenDurable(t.TempDir(), durOpts)
		if err != nil {
			t.Fatalf("OpenDurable(%s): %v", id, err)
		}
		c.stores[id] = d
		opts := NodeOptions{
			ID:      id,
			Peers:   c.urls,
			Session: durOpts.Session,
			Shipper: ShipperOptions{Heartbeat: 50 * time.Millisecond},
		}
		for _, tw := range tweaks {
			tw(&opts)
		}
		node, err := NewNode(d, opts)
		if err != nil {
			t.Fatalf("NewNode(%s): %v", id, err)
		}
		c.nodes[id] = node
		handlers[id].set(node.Handler())
	}
	t.Cleanup(func() {
		// Followers hold the streams open; stop them all before the
		// servers so Close does not wait on live handlers.
		for _, node := range c.nodes {
			node.Close()
		}
		for _, srv := range c.servers {
			srv.CloseClientConnections()
			srv.Close()
		}
		for _, d := range c.stores {
			d.Close()
		}
	})
	return c
}

func (c *testCluster) start() {
	for _, node := range c.nodes {
		node.Start()
	}
}

// kill simulates kill -9 on one member: the HTTP server vanishes and
// the durable store is abandoned without Close (no final checkpoint).
func (c *testCluster) kill(id string) {
	c.nodes[id].Close()
	c.servers[id].CloseClientConnections()
	c.servers[id].Close()
}

// waitConverged blocks until every follower's replica of primary
// holds names byte-identically to want, or the deadline passes.
func (c *testCluster) waitConverged(primary string, names []string, want map[string][]byte) {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		ok := true
		for id, node := range c.nodes {
			if id == primary {
				continue
			}
			f := node.followers[primary]
			if f == nil {
				continue
			}
			if f.replica.Len() != len(names) {
				ok = false
				break
			}
			for _, name := range names {
				if _, err := f.replica.Snapshot(name); err != nil {
					ok = false
					break
				}
				if !bytes.Equal(canonical(c.t, f.replica, name), want[name]) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for id, node := range c.nodes {
				if id == primary {
					continue
				}
				st := node.followers[primary].Status()
				c.t.Logf("%s follows %s: connected=%v sessions=%d applied=%d lastErr=%q",
					id, primary, st.Connected, st.Sessions, st.RecordsApplied, st.LastError)
			}
			c.t.Fatalf("replicas of %s did not converge", primary)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestClusterReplicatesAllPrimaries(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 3, store.DurableOptions{Sync: wal.SyncNone})
	c.start()

	// Every node is a primary for its own sessions; drive a distinct
	// workload on each and demand byte-identical replicas everywhere.
	for i, id := range c.ids {
		d := c.stores[id]
		a, b := fmt.Sprintf("%s-a", id), fmt.Sprintf("%s-b", id)
		if err := d.Create(a, testInstance(uint64(i)*2+1), 4); err != nil {
			t.Fatal(err)
		}
		if err := d.Create(b, testInstance(uint64(i)*2+2), 3); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Resolve(ctx, a); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ApplyBatch(ctx, a, []store.Mutation{
			store.AddEvent(core.Event{Location: 1, Required: 1, Name: "late"}, map[int]float64{0: 0.9}),
			store.UpdateInterest(2, 1, 0.7),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ApplyBatch(ctx, b, []store.Mutation{store.SetK(5)}); err != nil {
			t.Fatal(err)
		}
		// A created-then-deleted session must not survive replication.
		if err := d.Create(id+"-gone", testInstance(99), 2); err != nil {
			t.Fatal(err)
		}
		if err := d.Delete(id + "-gone"); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range c.ids {
		names := []string{id + "-a", id + "-b"}
		want := map[string][]byte{}
		for _, n := range names {
			want[n] = canonical(t, c.stores[id], n)
		}
		c.waitConverged(id, names, want)
	}

	// The status and metrics surfaces reflect the traffic.
	st := c.nodes["n1"].Status()
	if !st.Ready {
		t.Errorf("n1 not ready: %s", st.Reason)
	}
	for _, peer := range []string{"n2", "n3"} {
		fs := st.Follows[peer]
		if !fs.Connected || fs.RecordsApplied == 0 || fs.CursorWeight == 0 {
			t.Errorf("n1's follow of %s looks dead: %+v", peer, fs)
		}
	}
	m := c.nodes["n1"].Metrics()
	if m.RecordsShipped == 0 || m.RecordsApplied == 0 {
		t.Errorf("metrics recorded no replication traffic: %+v", m)
	}
	if len(c.nodes["n1"].shipper.Status()) != 2 {
		t.Errorf("n1 should be serving 2 streams, got %+v", c.nodes["n1"].shipper.Status())
	}
}

func TestClusterFollowerResyncsThroughCheckpoint(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 2, store.DurableOptions{Sync: wal.SyncNone})
	d := c.stores["n1"]

	// History the follower never saw gets checkpointed away before the
	// cluster starts: the stream must begin with the checkpoint image.
	if err := d.Create("pre", testInstance(1), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Resolve(ctx, "pre"); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c.start()

	// Live records after the checkpoint follow on the same stream.
	if _, err := d.ApplyBatch(ctx, "pre", []store.Mutation{store.SetK(2)}); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"pre": canonical(t, d, "pre")}
	c.waitConverged("n1", []string{"pre"}, want)
}

func TestClusterPromotionAdoptsAcknowledgedState(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 3, store.DurableOptions{Sync: wal.SyncAlways})
	c.start()

	d := c.stores["n1"]
	names := []string{"s1", "s2"}
	for i, name := range names {
		if err := d.Create(name, testInstance(uint64(i)+1), 4); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Resolve(ctx, name); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ApplyBatch(ctx, name, []store.Mutation{store.UpdateInterest(1, 0, 0.5)}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][]byte{}
	for _, n := range names {
		want[n] = canonical(t, d, n)
	}
	c.waitConverged("n1", names, want)

	// kill -9 the primary, then promote its replica on n2 the way the
	// router would: over the promote endpoint.
	c.kill("n1")
	resp, err := http.Post(c.urls["n2"]+"/v1/replication/promote", "application/json",
		bytes.NewReader([]byte(`{"peer":"n1"}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %s", resp.Status)
	}

	// Every acknowledged session is now served, byte-identically, by
	// the survivor's durable store.
	for _, n := range names {
		if got := canonical(t, c.stores["n2"], n); !bytes.Equal(got, want[n]) {
			t.Errorf("promoted %s diverged from acknowledged state:\n got: %s\nwant: %s", n, got, want[n])
		}
	}
	st := c.nodes["n2"].Status()
	if st.PromotedSessions != uint64(len(names)) || st.LastFailoverUnixMS == 0 {
		t.Errorf("promotion not recorded in status: %+v", st)
	}

	// Adopted sessions were re-logged on n2, so they re-ship: n3's
	// replica of n2 converges on the same states.
	deadline := time.Now().Add(15 * time.Second)
	for {
		f := c.nodes["n3"].followers["n2"]
		ok := true
		for _, n := range names {
			if _, err := f.replica.Snapshot(n); err != nil {
				ok = false
				break
			}
			if !bytes.Equal(canonical(t, f.replica, n), want[n]) {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("adopted sessions never re-shipped to n3: %+v", f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And the Replica lookup still serves the session for reads (from
	// whichever replica holds it — the dead n1's frozen replica and the
	// survivor's both do).
	rep, _, ok := c.nodes["n3"].Replica(names[0])
	if !ok {
		t.Fatalf("Replica(%s) not found on n3", names[0])
	}
	if got := canonical(t, rep, names[0]); !bytes.Equal(got, want[names[0]]) {
		t.Errorf("replica read of %s diverged from acknowledged state", names[0])
	}
}
