package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ses/internal/session"
	"ses/internal/store"
	"ses/internal/wal"
)

// fakeCommits is a CommitSource whose watermarks a test moves by hand,
// with or without the signal.
type fakeCommits struct {
	mu     sync.Mutex
	ch     chan struct{}
	limits [store.NumShards]wal.Cursor
}

func (f *fakeCommits) Commits() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ch == nil {
		f.ch = make(chan struct{})
	}
	return f.ch
}

func (f *fakeCommits) ShardCommitted(i int) wal.Cursor {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.limits[i]
}

// raise moves shard i's watermark to c, signalling the move unless
// silent (a lost wake, which only the fallback tick can recover).
func (f *fakeCommits) raise(i int, c wal.Cursor, silent bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.limits[i] = c
	if !silent && f.ch != nil {
		close(f.ch)
		f.ch = nil
	}
}

// shippedRecord is one record message read off a replication stream.
type shippedRecord struct {
	shard   int
	cur     wal.Cursor
	payload string
}

// openStream connects to a shipper as follower node with no cursors
// and delivers every record message it ships; heartbeats and
// checkpoints are dropped.
func openStream(t *testing.T, h http.Handler) <-chan shippedRecord {
	t.Helper()
	srv := httptest.NewServer(h)
	body, _ := json.Marshal(streamReq{Node: "f"})
	resp, err := http.Post(srv.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", resp.Status)
	}
	t.Cleanup(func() {
		resp.Body.Close()
		srv.CloseClientConnections()
		srv.Close()
	})
	out := make(chan shippedRecord, 64)
	go func() {
		var buf []byte
		for {
			m, err := readMsg(resp.Body, &buf)
			if err != nil {
				return
			}
			if m.kind == msgRecord {
				out <- shippedRecord{shard: m.shard, cur: m.cursor(), payload: string(m.payload)}
			}
		}
	}()
	return out
}

// TestShipperStopsAtCommittedWatermark pins "a record ships only once
// its Append is acknowledged": records written to a shard log but past
// the commit source's watermark stay on the primary across two fallback
// periods; a signalled watermark raise ships them at once; and a raise
// whose signal is lost still ships on the fallback tick.
func TestShipperStopsAtCommittedWatermark(t *testing.T) {
	dir := t.TempDir()
	const shard = 5
	l, err := wal.Open(store.ShardDir(dir, shard), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var ends []wal.Cursor
	for _, p := range []string{"r0", "r1", "r2", "r3"} {
		c, err := l.AppendCursor([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, c)
	}
	src := &fakeCommits{}
	src.raise(shard, ends[0], true)
	sh := NewShipper(dir, src, ShipperOptions{Heartbeat: time.Hour})
	sh.fallback = 200 * time.Millisecond
	recs := openStream(t, sh)

	expect := func(within time.Duration, payload string, end wal.Cursor) {
		t.Helper()
		select {
		case r := <-recs:
			if r.shard != shard || r.payload != payload || r.cur != end {
				t.Fatalf("shipped %+v, want %q on shard %d ending %s", r, payload, shard, end)
			}
		case <-time.After(within):
			t.Fatalf("%q not shipped within %v", payload, within)
		}
	}
	expect(time.Second, "r0", ends[0])
	select {
	case r := <-recs:
		t.Fatalf("shipped %q past the committed watermark %s", r.payload, ends[0])
	case <-time.After(2*sh.fallback + 50*time.Millisecond):
	}

	src.raise(shard, ends[2], false)
	expect(50*time.Millisecond, "r1", ends[1])
	expect(50*time.Millisecond, "r2", ends[2])

	src.raise(shard, ends[3], true)
	expect(2*sh.fallback, "r3", ends[3])
}

// TestShipperShipsRecoveredRecordsAfterReopen: records a primary wrote
// before a crash ship after it reopens, with no new append — the
// watermark is seeded from the recovered log, not left at zero until
// the shard's next write.
func TestShipperShipsRecoveredRecordsAfterReopen(t *testing.T) {
	dir := t.TempDir()
	opts := store.DurableOptions{Session: session.Options{Workers: 1}, Sync: wal.SyncAlways, CheckpointEvery: -1}
	d, err := store.OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Create("before-crash", testInstance(5), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Resolve(context.Background(), "before-crash"); err != nil {
		t.Fatal(err)
	}
	// kill -9: no Close, which would checkpoint the records away.
	re, err := store.OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs := openStream(t, NewShipper(dir, re, ShipperOptions{}))
	shard := store.ShardOf("before-crash")
	for i := 0; i < 2; i++ {
		select {
		case r := <-recs:
			if r.shard != shard {
				t.Fatalf("record %d shipped on shard %d, want %d", i, r.shard, shard)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("recovered record %d never shipped", i)
		}
	}
}

// TestSyncAckWakePath: with default shipper options, a synchronously
// acked write completes on the commit signal, not the shipper's 1s
// fallback tick or its heartbeat: 50 sequential acked writes take well
// under the 50s a broken wake would cost.
func TestSyncAckWakePath(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 3, store.DurableOptions{Sync: wal.SyncAlways}, func(o *NodeOptions) {
		o.ReplicateAck = 1
		o.Shipper = ShipperOptions{}
	})
	c.start()
	d, n1 := c.stores["n1"], c.nodes["n1"]
	if err := d.Create("wake", testInstance(2), 3); err != nil {
		t.Fatal(err)
	}
	if err := n1.AwaitAck(ctx, "wake"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for op := 0; op < 50; op++ {
		if _, err := d.ApplyBatch(ctx, "wake", []store.Mutation{store.UpdateInterest(op%20, op%3, 0.5)}); err != nil {
			t.Fatal(err)
		}
		if err := n1.AwaitAck(ctx, "wake"); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("50 acked writes took %v; the ship loop is not waking on commits", took)
	}
}

// TestAckStreamReconnects cuts every connection into the primary
// mid-load, twice: the followers' shipping and ack streams must come
// back on their own, so every synchronously acked write still confirms
// within AckWait and the primary keeps receiving acks.
func TestAckStreamReconnects(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 3, store.DurableOptions{Sync: wal.SyncAlways}, func(o *NodeOptions) {
		o.ReplicateAck = 1
	})
	c.start()
	d, n1 := c.stores["n1"], c.nodes["n1"]
	if err := d.Create("cut", testInstance(4), 3); err != nil {
		t.Fatal(err)
	}
	var acksAtCut uint64
	for op := 0; op < 90; op++ {
		if op == 30 || op == 60 {
			acksAtCut = n1.Metrics().AcksReceived
			c.servers["n1"].CloseClientConnections()
		}
		if _, err := d.ApplyBatch(ctx, "cut", []store.Mutation{store.UpdateInterest(op%20, op%3, 0.5)}); err != nil {
			t.Fatal(err)
		}
		if err := n1.AwaitAck(ctx, "cut"); err != nil {
			t.Fatalf("op %d after a connection cut: %v", op, err)
		}
	}
	if got := n1.Metrics().AcksReceived; got <= acksAtCut {
		t.Fatalf("acks_received stuck at %d after the cut", got)
	}
}

// TestAckStreamSurvivesRejection: a primary that first answers the ack
// stream without reading its body, as a peer still booting does, must
// not swallow the follower's acks; the follower redials and its acks
// land within the ack wait.
func TestAckStreamSurvivesRejection(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 2, store.DurableOptions{Sync: wal.SyncAlways}, func(o *NodeOptions) {
		o.ReplicateAck = 1
	})
	var rejected atomic.Int32
	swap := c.servers["n1"].Config.Handler.(*swapHandler)
	h := swap.h.Load().(http.Handler)
	first := http.NewServeMux() // the swap holds a *http.ServeMux
	first.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replication/ack" && rejected.Add(1) == 1 {
			http.Error(w, "node not up", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
	swap.set(first)
	c.start()
	d, n1 := c.stores["n1"], c.nodes["n1"]
	if err := d.Create("early", testInstance(6), 3); err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 5; op++ {
		if _, err := d.ApplyBatch(ctx, "early", []store.Mutation{store.UpdateInterest(op, 0, 0.5)}); err != nil {
			t.Fatal(err)
		}
		if err := n1.AwaitAck(ctx, "early"); err != nil {
			t.Fatalf("op %d: %v (ack connections seen: %d)", op, err, rejected.Load())
		}
	}
}

// TestIdleClusterIsIdle: once replication has settled, an idle 3-node
// cluster holding sessions on several shards costs almost no CPU — no
// shard-directory polling, no per-shard goroutines spinning.
func TestIdleClusterIsIdle(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 3, store.DurableOptions{Sync: wal.SyncNone}, func(o *NodeOptions) {
		o.Shipper = ShipperOptions{}
	})
	c.start()
	for i, id := range c.ids {
		var names []string
		want := map[string][]byte{}
		for s := 0; s < 4; s++ {
			name := id + "-idle-" + string(rune('a'+s))
			if err := c.stores[id].Create(name, testInstance(uint64(10*i+s)+1), 3); err != nil {
				t.Fatal(err)
			}
			if _, err := c.stores[id].Resolve(ctx, name); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
			want[name] = canonical(t, c.stores[id], name)
		}
		c.waitConverged(id, names, want)
	}
	time.Sleep(200 * time.Millisecond) // let the last acks and heartbeats land

	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	before := cpu()
	time.Sleep(2 * time.Second)
	if used := cpu() - before; used > 100*time.Millisecond {
		t.Fatalf("idle 3-node cluster used %v of CPU in 2s; want under 100ms", used)
	}
}
