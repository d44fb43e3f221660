package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ses/internal/obs"
	"ses/internal/store"
	"ses/internal/wal"
)

// Follower maintains one replication stream from a peer primary and
// applies every shipped record into a warm in-memory replica through
// the store's shared replay path. A replica is exactly the state the
// peer would recover at the follower's cursor, which is what makes it
// safe to promote: takeover is a Restore of each replica session into
// the local durable store.
//
// Followers are not themselves durable — a restarted follower resyncs
// from the peer's checkpoint and log, the same way a restarted
// primary recovers from its own.
type Follower struct {
	self, peer string
	url        string
	replica    *store.Store
	client     *http.Client
	logf       func(string, ...any)
	// tracer, when set, records a remote replication.apply span under
	// the primary's trace ID for every shipped record that carries one,
	// so one X-Ses-Trace ID spans the write and its replication.
	tracer *obs.Tracer

	// onAdopt, when set, observes every adopt record this follower
	// applies: the peer took those sessions over, so reads for them
	// should prefer this replica over the dead ring owner's frozen one.
	onAdopt func(name string)

	// ackCh wakes the ack loop after an apply; capacity 1, so applies
	// that land while an ack message is being written coalesce into
	// the next one.
	ackCh    chan struct{}
	acksSent atomic.Uint64

	mu             sync.Mutex
	cursors        [store.NumShards]wal.Cursor
	connected      bool
	lastErr        string
	lastBeat       time.Time
	lagRecords     uint64
	lagBytes       uint64
	recordsApplied uint64
	bytesApplied   uint64

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newFollower(self, peer, url string, replica *store.Store, client *http.Client, logf func(string, ...any), tracer *obs.Tracer) *Follower {
	if client == nil {
		client = &http.Client{}
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Follower{self: self, peer: peer, url: url, replica: replica, client: client, logf: logf,
		tracer: tracer, ackCh: make(chan struct{}, 1)}
}

// Replica returns the in-memory store the follower maintains.
func (f *Follower) Replica() *store.Store { return f.replica }

// start launches the replication stream and the ack stream, each
// reconnecting until stop.
func (f *Follower) start() {
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.wg.Add(2)
	go func() {
		defer f.wg.Done()
		redial(ctx, f.stream, f.setDisconnected)
	}()
	go func() {
		defer f.wg.Done()
		redial(ctx, f.ackStream, func(error) {})
	}()
}

// stop terminates the stream and waits for the loops to exit.
func (f *Follower) stop() {
	if f.cancel != nil {
		f.cancel()
		f.wg.Wait()
	}
}

// redial runs connect until the context ends, reporting each
// connection's end to ended and pausing between attempts with a
// backoff that doubles from 100ms to 2s and resets once a connection
// stayed up for 2s.
func redial(ctx context.Context, connect func(context.Context) error, ended func(error)) {
	backoff := 100 * time.Millisecond
	for ctx.Err() == nil {
		started := time.Now()
		err := connect(ctx)
		ended(err)
		if ctx.Err() != nil {
			return
		}
		if time.Since(started) > 2*time.Second {
			backoff = 100 * time.Millisecond // the stream was healthy; reset
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// stream opens one connection and applies messages until it breaks.
func (f *Follower) stream(ctx context.Context) error {
	req := streamReq{Node: f.self, Cursors: map[string]string{}}
	f.mu.Lock()
	for i, c := range f.cursors {
		if !c.IsZero() {
			req.Cursors[strconv.Itoa(i)] = c.String()
		}
	}
	f.mu.Unlock()
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+"/v1/replication/stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(httpReq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: stream to %s: %s: %s", f.peer, resp.Status, bytes.TrimSpace(msg))
	}
	f.mu.Lock()
	f.connected = true
	f.lastErr = ""
	f.mu.Unlock()
	f.logf("cluster: following %s from %s", f.peer, f.url)

	var buf []byte
	for {
		m, err := readMsg(resp.Body, &buf)
		if err != nil {
			return err
		}
		if err := f.apply(m); err != nil {
			return err
		}
	}
}

// apply dispatches one stream message.
func (f *Follower) apply(m streamMsg) error {
	switch m.kind {
	case msgRecord:
		rec, err := store.DecodeWALRecord(m.payload)
		if err != nil {
			return f.resyncShard(m.shard, fmt.Errorf("decoding record: %w", err))
		}
		start := time.Now()
		if err := f.replica.ApplyWALRecord(rec); err != nil {
			return f.resyncShard(m.shard, fmt.Errorf("applying %s record for %q: %w", rec.Kind, rec.Name, err))
		}
		if rec.Trace != "" && f.tracer != nil {
			f.tracer.RecordRemote(rec.Trace, obs.SpanReplApply, start, time.Since(start),
				obs.A("peer", f.peer), obs.A("kind", rec.Kind), obs.A("session", rec.Name))
		}
		f.mu.Lock()
		f.cursors[m.shard] = m.cursor()
		f.recordsApplied++
		f.bytesApplied += uint64(len(m.payload))
		f.mu.Unlock()
		if rec.Kind == "adopt" && f.onAdopt != nil {
			f.onAdopt(rec.Name)
		}
		f.noteApplied()
		return nil
	case msgCheckpoint:
		entries, err := store.DecodeWALCheckpoint(m.payload)
		if err != nil {
			return f.resyncShard(m.shard, fmt.Errorf("decoding checkpoint: %w", err))
		}
		if err := f.replica.SyncShardToCheckpoint(m.shard, entries); err != nil {
			return f.resyncShard(m.shard, fmt.Errorf("applying checkpoint: %w", err))
		}
		f.mu.Lock()
		f.cursors[m.shard] = wal.Cursor{Seq: m.a}
		f.bytesApplied += uint64(len(m.payload))
		f.mu.Unlock()
		f.noteApplied()
		return nil
	case msgHeartbeat:
		if len(m.payload) != 16 {
			return fmt.Errorf("cluster: malformed heartbeat (%d bytes)", len(m.payload))
		}
		f.mu.Lock()
		f.lagRecords = binary.LittleEndian.Uint64(m.payload[0:8])
		f.lagBytes = binary.LittleEndian.Uint64(m.payload[8:16])
		f.lastBeat = time.Now()
		f.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("cluster: unknown stream message kind %q", m.kind)
	}
}

// noteApplied wakes the ack stream; a full channel means an ack
// message is already pending and this apply will ride it.
func (f *Follower) noteApplied() {
	select {
	case f.ackCh <- struct{}{}:
	default:
	}
}

// ackStream keeps one POST /v1/replication/ack open to the peer
// primary and writes the replica's applied cursors onto its body as
// newline-delimited streamReq objects: first every shard past zero,
// then, after each apply, only the shards whose cursor moved. The
// primary's synchronous-ack waiters and re-replication watermarks
// read them. It returns when the connection breaks; because the next
// connection restates every shard, an ack lost with this one is never
// needed.
func (f *Follower) ackStream(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+"/v1/replication/ack", pr)
	if err != nil {
		cancel()
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	// A server whose handler answers without reading the body (a peer
	// still booting, a route it does not serve) drains an unread body
	// before it writes the response, and this body never ends: the
	// response would never come and every ack would be discarded.
	// Under Expect: 100-continue it closes the connection instead, Do
	// returns, and the stream redials.
	req.Header.Set("Expect", "100-continue")
	var doErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := f.client.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("cluster: ack stream to %s ended: %s", f.peer, resp.Status)
		}
		doErr = err
		pr.CloseWithError(err) // fail a write blocked on the dead stream
	}()
	defer func() {
		// The transport's write loop is blocked reading the body until
		// it ends, and a cancelled Do waits for that loop.
		cancel()
		pw.Close()
		<-done
	}()

	var sent [store.NumShards]wal.Cursor // acked on this connection
	enc := json.NewEncoder(pw)
	for {
		msg := streamReq{Node: f.self, Cursors: map[string]string{}}
		f.mu.Lock()
		for i, c := range f.cursors {
			if sent[i].Before(c) {
				msg.Cursors[strconv.Itoa(i)] = c.String()
				sent[i] = c
			}
		}
		f.mu.Unlock()
		if len(msg.Cursors) > 0 {
			if err := enc.Encode(msg); err != nil {
				return err
			}
			f.acksSent.Add(1)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-done:
			return doErr
		case <-f.ackCh:
		}
	}
}

// setShardCursor installs a merged shard cursor (the promote-time
// catch-up path, after SyncShardToCheckpoint replaced the shard from a
// fresher survivor).
func (f *Follower) setShardCursor(shard int, c wal.Cursor) {
	f.mu.Lock()
	f.cursors[shard] = c
	f.mu.Unlock()
}

// shardCursor reads one shard's applied cursor.
func (f *Follower) shardCursor(shard int) wal.Cursor {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cursors[shard]
}

// resyncShard resets one shard's cursor to zero so the next connect
// replaces the shard from the peer's checkpoint — the self-healing
// response to a record the replica could not apply.
func (f *Follower) resyncShard(shard int, cause error) error {
	f.mu.Lock()
	f.cursors[shard] = wal.Cursor{}
	f.mu.Unlock()
	f.logf("cluster: replica of %s shard %d diverged (%v); resyncing from checkpoint", f.peer, shard, cause)
	return cause
}

func (f *Follower) setDisconnected(err error) {
	f.mu.Lock()
	f.connected = false
	if err != nil {
		f.lastErr = err.Error()
	}
	f.mu.Unlock()
}

// FollowStatus is one follower's progress, as reported in
// /v1/replication/status and ranked by the router at failover.
type FollowStatus struct {
	Peer           string `json:"peer"`
	Connected      bool   `json:"connected"`
	Sessions       int    `json:"sessions"`
	RecordsApplied uint64 `json:"records_applied"`
	BytesApplied   uint64 `json:"bytes_applied"`
	// LagRecords/LagBytes are the primary-measured backlog from the
	// latest heartbeat: committed records the stream has not shipped
	// yet.
	LagRecords uint64 `json:"lag_records"`
	LagBytes   uint64 `json:"lag_bytes"`
	// CursorWeight sums the per-shard cursors into one monotone
	// progress number; at failover the live follower with the highest
	// weight for the dead node wins.
	CursorWeight    uint64  `json:"cursor_weight"`
	HeartbeatAgeSec float64 `json:"heartbeat_age_sec"` // -1 before the first heartbeat
	LastError       string  `json:"last_error,omitempty"`
	// Cursors maps shard index (decimal) to the applied cursor, for
	// shards past zero. A promoting survivor reads its peers' entries
	// here to find — and pull — any shard where another survivor's
	// replica of the dead node is fresher than its own, so a write
	// acked by ANY follower survives no matter which survivor the
	// router picks.
	Cursors map[string]string `json:"cursors,omitempty"`
	// AcksSent counts ack messages this follower wrote to its ack
	// stream to the peer.
	AcksSent uint64 `json:"acks_sent"`
}

// Status snapshots the follower's progress.
func (f *Follower) Status() FollowStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowStatus{
		Peer:           f.peer,
		Connected:      f.connected,
		Sessions:       f.replica.Len(),
		RecordsApplied: f.recordsApplied,
		BytesApplied:   f.bytesApplied,
		LagRecords:     f.lagRecords,
		LagBytes:       f.lagBytes,
		LastError:      f.lastErr,
		AcksSent:       f.acksSent.Load(),
	}
	if f.lastBeat.IsZero() {
		st.HeartbeatAgeSec = -1
	} else {
		st.HeartbeatAgeSec = time.Since(f.lastBeat).Seconds()
	}
	for i, c := range f.cursors {
		st.CursorWeight += cursorWeight(c)
		if !c.IsZero() {
			if st.Cursors == nil {
				st.Cursors = map[string]string{}
			}
			st.Cursors[strconv.Itoa(i)] = c.String()
		}
	}
	return st
}

// cursorWeight collapses a cursor into one monotone uint64: the
// segment seq dominates, the in-segment offset breaks ties. Offsets
// are capped at 2^32-1 so the sum over 64 shards cannot overflow for
// any realistic log.
func cursorWeight(c wal.Cursor) uint64 {
	off := uint64(c.Off)
	if off > 1<<32-1 {
		off = 1<<32 - 1
	}
	return c.Seq<<32 | off
}
