package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ses/internal/obs"
	"ses/internal/session"
	"ses/internal/store"
	"ses/internal/wal"
)

// NodeOptions configures a cluster node.
type NodeOptions struct {
	// ID is this node's identity on the ring.
	ID string
	// Peers maps every cluster node ID (including this one) to its
	// base URL, e.g. "n1" -> "http://10.0.0.1:8080".
	Peers map[string]string
	// VNodes is the ring's virtual-node count (0 = DefaultVNodes).
	VNodes int
	// LagBound is the replication backlog (bytes, per peer) beyond
	// which the node reports not-ready (0 = 4 MiB; <0 disables the
	// bound).
	LagBound int64
	// ReplicateAck, when positive, makes AwaitAck block a mutation's
	// acknowledgment until this many followers have applied the
	// record (`sesd -replicate-ack N`). 0 keeps replication fully
	// asynchronous.
	ReplicateAck int
	// AckWait bounds how long AwaitAck blocks before degrading to an
	// ErrAckTimeout (0 = 2s).
	AckWait time.Duration
	// Session configures replica sessions (worker counts etc.); it
	// should match the durable store's session options.
	Session session.Options
	// Shipper tunes the outbound stream.
	Shipper ShipperOptions
	// Client issues the follower connections (nil = default client).
	Client *http.Client
	// Logf receives lifecycle lines (nil = silent).
	Logf func(format string, args ...any)
	// Tracer, when set, lets followers record replication.apply spans
	// under the primary's trace IDs (carried in shipped WAL records),
	// so a traced write's replication shows up in this node's trace
	// ring too.
	Tracer *obs.Tracer
}

// ParsePeers parses a -peers spec, comma-separated ID=URL pairs, into
// the Peers map of NodeOptions and RouterOptions, trimming each URL's
// trailing slash.
func ParsePeers(spec string) (map[string]string, error) {
	peers := map[string]string{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want ID=URL)", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate peer id %q", id)
		}
		peers[id] = strings.TrimSuffix(url, "/")
	}
	if len(peers) == 0 {
		return nil, errors.New("-peers names no nodes (want ID=URL,ID=URL,...)")
	}
	return peers, nil
}

func (o NodeOptions) lagBound() int64 {
	if o.LagBound == 0 {
		return 4 << 20
	}
	return o.LagBound
}

func (o NodeOptions) ackWait() time.Duration {
	if o.AckWait <= 0 {
		return 2 * time.Second
	}
	return o.AckWait
}

// Node is one member of a replicated sesd cluster: it serves its own
// sessions from the durable store, ships its WAL to every peer, and
// follows every peer's WAL into warm replicas it can promote when a
// peer dies. Replication is full-mesh — every node follows every
// other — which is the right shape for the small clusters consistent
// hashing is balancing here; bounded replication factors would reuse
// Ring.Successors.
type Node struct {
	opts    NodeOptions
	ring    *Ring
	durable *store.Durable
	shipper *Shipper

	followers map[string]*Follower // peer id -> stream from that peer

	// acks tracks what this node's followers have applied of ITS log
	// (they POST cursors to /v1/replication/ack); AwaitAck and the
	// re-replication watermarks read it.
	acks        *ackTracker
	ackWaits    atomic.Uint64
	ackTimeouts atomic.Uint64

	// epoch is the node's persisted promotion epoch (see Epoch); the
	// durable store and the replicas can each push it higher.
	epoch atomic.Uint64

	// adoptedBy remembers, per session observed in a shipped adopt
	// record, which peer took it over — Replica prefers the adopter's
	// live replica over the dead ring owner's frozen one.
	adoptMu   sync.Mutex
	adoptedBy map[string]string

	// rerepl holds the re-replication watermarks a promotion left
	// behind: shard -> the local log cursor that covers every adopted
	// record. A shard leaves the map once any follower acks past its
	// watermark (checked on Status reads), meaning the adopted
	// sessions have a follower again.
	rereplMu        sync.Mutex
	rerepl          map[int]wal.Cursor
	rereplConfirmed int

	started  atomic.Bool
	promoted atomic.Uint64 // sessions adopted across all promotions
	failover atomic.Int64  // unix ms of the last promotion (0 = never)
	logf     func(string, ...any)
}

// NewNode builds a node around an open durable store. Start launches
// the follower streams; the shipper endpoint is live as soon as the
// node's Handler is mounted.
func NewNode(d *store.Durable, opts NodeOptions) (*Node, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("cluster: node needs an ID")
	}
	if _, ok := opts.Peers[opts.ID]; !ok {
		return nil, fmt.Errorf("cluster: -peers must include this node (%q)", opts.ID)
	}
	ids := make([]string, 0, len(opts.Peers))
	for id := range opts.Peers {
		ids = append(ids, id)
	}
	ring, err := NewRing(ids, opts.VNodes)
	if err != nil {
		return nil, err
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	shipOpts := opts.Shipper
	if shipOpts.Logf == nil {
		shipOpts.Logf = logf
	}
	n := &Node{
		opts:      opts,
		ring:      ring,
		durable:   d,
		shipper:   NewShipper(d.Dir(), shipOpts),
		followers: make(map[string]*Follower),
		acks:      newAckTracker(),
		adoptedBy: make(map[string]string),
		rerepl:    make(map[int]wal.Cursor),
		logf:      logf,
	}
	if opts.ReplicateAck > len(opts.Peers)-1 {
		return nil, fmt.Errorf("cluster: -replicate-ack %d exceeds the %d followers this cluster has",
			opts.ReplicateAck, len(opts.Peers)-1)
	}
	n.epoch.Store(n.loadEpoch())
	peers := make([]string, 0, len(opts.Peers))
	for id := range opts.Peers {
		if id != opts.ID {
			peers = append(peers, id)
		}
	}
	sort.Strings(peers)
	for _, id := range peers {
		replica := store.New(opts.Session)
		f := newFollower(opts.ID, id, opts.Peers[id], replica, opts.Client, logf, opts.Tracer)
		peer := id
		f.onAdopt = func(name string) { n.noteAdopted(name, peer) }
		n.followers[id] = f
	}
	return n, nil
}

// epochPath names the fsynced promotion-epoch file under the data
// directory. Adopt records and checkpoint entries carry the epoch
// too; the file covers the edge where a checkpoint of an empty shard
// truncates the only adopt record that recorded it.
func (n *Node) epochPath() string {
	return filepath.Join(n.durable.Dir(), "promotion-epoch")
}

func (n *Node) loadEpoch() uint64 {
	raw, err := os.ReadFile(n.epochPath())
	if err != nil {
		return 0
	}
	e, err := strconv.ParseUint(string(bytes.TrimSpace(raw)), 10, 64)
	if err != nil {
		return 0
	}
	return e
}

// persistEpoch durably records a new promotion epoch (temp file,
// fsync, rename) BEFORE the adoption writes it fences are allowed.
func (n *Node) persistEpoch(e uint64) error {
	path := n.epochPath()
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%d\n", e); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Epoch returns the highest promotion epoch this node has observed:
// its own persisted epoch, the durable store's (from adopt records
// replayed at recovery or checkpoint entries), and every replica's
// (from adopt records shipped by peers). A mutation carrying a lower
// X-Ses-Epoch than this is stale and must be rejected.
func (n *Node) Epoch() uint64 {
	e := n.epoch.Load()
	if se := n.durable.Epoch(); se > e {
		e = se
	}
	for _, f := range n.followers {
		if re := f.replica.Epoch(); re > e {
			e = re
		}
	}
	return e
}

// noteAdopted records that peer adopted session name (observed in a
// shipped adopt record).
func (n *Node) noteAdopted(name, peer string) {
	n.adoptMu.Lock()
	n.adoptedBy[name] = peer
	n.adoptMu.Unlock()
}

// AwaitAck blocks until the node's ReplicateAck followers have applied
// the session's shard up to its last locally-committed record, or the
// bounded wait expires (ErrAckTimeout — the write is committed locally
// but its replication is unconfirmed; the daemon answers 503, never a
// lying 200). The watermark is the shard's last committed cursor, so
// a concurrent writer on the same shard can only make the wait
// conservative, never unsafe. No-op when ReplicateAck is 0.
func (n *Node) AwaitAck(ctx context.Context, name string) error {
	need := n.opts.ReplicateAck
	if need <= 0 {
		return nil
	}
	shard := store.ShardOf(name)
	target := n.durable.ShardCommitted(shard)
	if target.IsZero() {
		return nil
	}
	n.ackWaits.Add(1)
	waitCtx, cancel := context.WithTimeout(ctx, n.opts.ackWait())
	defer cancel()
	if err := n.acks.await(waitCtx, shard, target, need); err != nil {
		n.ackTimeouts.Add(1)
		return err
	}
	return nil
}

// ID returns the node's ring identity.
func (n *Node) ID() string { return n.opts.ID }

// Ring returns the placement ring.
func (n *Node) Ring() *Ring { return n.ring }

// Owner returns the ring primary for a session name.
func (n *Node) Owner(session string) string { return n.ring.Primary(session) }

// Start launches the follower streams.
func (n *Node) Start() {
	if n.started.Swap(true) {
		return
	}
	for _, f := range n.followers {
		f.start()
	}
}

// Close stops the follower streams (the shipper dies with its HTTP
// server). It does not close the durable store — the daemon owns it.
func (n *Node) Close() {
	if !n.started.Swap(false) {
		return
	}
	for _, f := range n.followers {
		f.stop()
	}
}

// Replica finds a session among the peer replicas: the store that
// holds it and the peer it replicates. A session observed in a
// shipped adopt record is served from the adopting peer's live
// replica first — after a failover the ring owner's replica is a
// frozen copy that would otherwise shadow fresher state. Then the
// ring primary's replica, then the rest.
func (n *Node) Replica(name string) (*store.Store, string, bool) {
	n.adoptMu.Lock()
	adopter := n.adoptedBy[name]
	n.adoptMu.Unlock()
	if f, ok := n.followers[adopter]; ok {
		if _, err := f.replica.Meta(name); err == nil {
			return f.replica, f.peer, true
		}
	}
	if f, ok := n.followers[n.ring.Primary(name)]; ok {
		if _, err := f.replica.Meta(name); err == nil {
			return f.replica, f.peer, true
		}
	}
	for _, f := range n.followers {
		if _, err := f.replica.Meta(name); err == nil {
			return f.replica, f.peer, true
		}
	}
	return nil, "", false
}

// ErrStaleEpoch reports a promotion (or a routed mutation) carrying
// an epoch at or below one the cluster has already seen: a second
// router or a flapping health check tried to promote against history
// that moved on. The daemon maps it to 409.
var ErrStaleEpoch = errors.New("cluster: stale promotion epoch")

// Promote adopts every session of a dead peer's replica into the
// local durable store (each one a logged, durable Restore) and
// returns how many sessions were adopted, plus the epoch the
// promotion happened under. It is idempotent at a given epoch's
// history — a repeated promotion re-restores the same states.
//
// epoch is the proposed promotion epoch: 0 asks the node to mint
// current+1 (the operator-curl path); a router proposes its own. A
// proposal at or below the highest epoch this node has observed — or
// that any reachable live peer reports — is rejected with
// ErrStaleEpoch, so two routers (or a flapping health check) cannot
// both promote divergent survivors: the second promotion either
// carries a higher epoch (and every node then rejects the first
// winner's stale-epoch mutations) or is refused. The epoch is
// persisted (fsynced file + logged in every adopt record +
// checkpoint entries) BEFORE any session is adopted.
//
// Before adopting, the node compares its replica of the dead peer
// against every reachable survivor's, shard by shard (FollowStatus
// carries per-shard cursors), and pulls any shard where a survivor is
// fresher. A shard's log is totally ordered, so the higher cursor
// holds a strict superset of that shard's history — after the merge
// the adopted state covers every record ANY surviving follower
// applied, which is what makes `-replicate-ack 1` a real guarantee
// regardless of which survivor the router picks.
func (n *Node) Promote(peer string, epoch uint64) (int, uint64, error) {
	f, ok := n.followers[peer]
	if !ok {
		return 0, 0, fmt.Errorf("cluster: unknown peer %q", peer)
	}
	cur := n.Epoch()
	if epoch == 0 {
		epoch = cur + 1
	} else if epoch <= cur {
		return 0, 0, fmt.Errorf("%w: proposed epoch %d, this node has observed %d", ErrStaleEpoch, epoch, cur)
	}
	statuses := n.peerStatuses(peer)
	for id, st := range statuses {
		if st.Epoch >= epoch {
			return 0, 0, fmt.Errorf("%w: peer %s already observed epoch %d (proposed %d)", ErrStaleEpoch, id, st.Epoch, epoch)
		}
	}
	n.mergeSurvivorShards(peer, f, statuses)
	if err := n.persistEpoch(epoch); err != nil {
		return 0, 0, fmt.Errorf("cluster: persisting promotion epoch %d: %w", epoch, err)
	}
	n.bumpEpoch(epoch)

	names := f.replica.Names()
	adopted := 0
	shards := make(map[int]bool)
	for _, name := range names {
		st, err := f.replica.Snapshot(name)
		if err != nil {
			continue // deleted while promoting
		}
		m, err := f.replica.Meta(name)
		if err != nil {
			continue
		}
		if err := n.durable.Adopt(name, st, m.Resolves, m.Mutations, m.Batches, epoch); err != nil {
			return adopted, epoch, fmt.Errorf("cluster: adopting %q from %s: %w", name, peer, err)
		}
		shards[store.ShardOf(name)] = true
		adopted++
	}
	// Re-replication watermarks: once a follower acks a shard past the
	// cursor that covers its adopt records, the adopted sessions have a
	// replica again. Status prunes the map as acks arrive; nothing else
	// is needed — the shippers already tail the local log the adopt
	// records just landed in, for every connected peer.
	n.rereplMu.Lock()
	for shard := range shards {
		n.rerepl[shard] = n.durable.ShardCommitted(shard)
	}
	n.rereplMu.Unlock()
	n.promoted.Add(uint64(adopted))
	n.failover.Store(time.Now().UnixMilli())
	n.logf("cluster: promoted %d sessions from %s at epoch %d", adopted, peer, epoch)
	return adopted, epoch, nil
}

// bumpEpoch raises the node's in-memory epoch (monotone max).
func (n *Node) bumpEpoch(e uint64) {
	for {
		cur := n.epoch.Load()
		if e <= cur || n.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// peerStatuses fetches the replication status of every peer except
// self and the dead one, best-effort with a short timeout: an
// unreachable peer neither blocks the failover nor vetoes it.
func (n *Node) peerStatuses(dead string) map[string]Status {
	client := n.opts.Client
	if client == nil {
		client = http.DefaultClient
	}
	out := make(map[string]Status)
	for id, url := range n.opts.Peers {
		if id == n.opts.ID || id == dead {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/replication/status", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			cancel()
			continue
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		cancel()
		if err == nil {
			out[id] = st
		}
	}
	return out
}

// mergeSurvivorShards pulls, from each reachable survivor, every
// shard of the dead peer's log where that survivor's replica is ahead
// of ours, and replaces our replica's shard with it (checkpoint-entry
// transfer + SyncShardToCheckpoint — the same codec followers already
// resync with). Best-effort: a failed pull leaves our own replica for
// that shard, which is no worse than promotion before the merge
// existed.
func (n *Node) mergeSurvivorShards(dead string, f *Follower, statuses map[string]Status) {
	client := n.opts.Client
	if client == nil {
		client = http.DefaultClient
	}
	// Pick the freshest survivor per shard first, then pull once.
	type source struct {
		id  string
		cur wal.Cursor
	}
	best := make(map[int]source)
	for id, st := range statuses {
		fs, ok := st.Follows[dead]
		if !ok {
			continue
		}
		for shardStr, curStr := range fs.Cursors {
			shard, cur, err := parseShardCursor(shardStr, curStr)
			if err != nil {
				continue
			}
			if !f.shardCursor(shard).Before(cur) {
				continue // ours is at least as fresh
			}
			if b, ok := best[shard]; !ok || b.cur.Before(cur) {
				best[shard] = source{id: id, cur: cur}
			}
		}
	}
	for shard, src := range best {
		url := fmt.Sprintf("%s/v1/replication/replica?peer=%s&shard=%d", n.opts.Peers[src.id], dead, shard)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			cancel()
			n.logf("cluster: pulling shard %d of %s from %s: %v", shard, dead, src.id, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		if err != nil || resp.StatusCode != http.StatusOK {
			n.logf("cluster: pulling shard %d of %s from %s: status %d err %v", shard, dead, src.id, resp.StatusCode, err)
			continue
		}
		entries, err := store.DecodeWALCheckpoint(body)
		if err != nil {
			n.logf("cluster: decoding shard %d of %s from %s: %v", shard, dead, src.id, err)
			continue
		}
		if err := f.replica.SyncShardToCheckpoint(shard, entries); err != nil {
			n.logf("cluster: installing shard %d of %s from %s: %v", shard, dead, src.id, err)
			continue
		}
		f.setShardCursor(shard, src.cur)
		n.logf("cluster: merged shard %d of %s from survivor %s (%d sessions, cursor %s)",
			shard, dead, src.id, len(entries), src.cur)
	}
}

// Ready implements the readiness probe: recovery is finished (the
// durable store only exists recovered) and every *connected*
// replication stream is within the lag bound. A disconnected peer
// does not block readiness — a dead peer must not mark the survivors
// unready.
func (n *Node) Ready() (bool, string) {
	bound := n.opts.lagBound()
	if bound < 0 {
		return true, "ok"
	}
	for _, f := range n.followers {
		st := f.Status()
		if st.Connected && st.LagBytes > uint64(bound) {
			return false, fmt.Sprintf("replication lag to %s is %d bytes (bound %d)", f.peer, st.LagBytes, bound)
		}
	}
	return true, "ok"
}

// Status is the /v1/replication/status document. The router's health
// loop reads Ready, Follows and Epoch; operators read the rest.
type Status struct {
	ID      string                  `json:"id"`
	Nodes   []string                `json:"nodes"`
	Ready   bool                    `json:"ready"`
	Reason  string                  `json:"reason,omitempty"`
	Follows map[string]FollowStatus `json:"follows"`
	Streams []StreamStatus          `json:"streams"`
	// Epoch is the highest promotion epoch this node has observed;
	// mutations routed with a lower X-Ses-Epoch are rejected.
	Epoch uint64 `json:"epoch"`
	// ReplicateAck is the node's synchronous-ack requirement (0 =
	// async replication).
	ReplicateAck uint64 `json:"replicate_ack"`
	// BacklogScanErrors counts heartbeat backlog scans that failed for
	// non-truncation reasons — nonzero means lag figures may understate
	// a sick disk.
	BacklogScanErrors uint64 `json:"backlog_scan_errors"`
	// AcksReceived counts follower ack POSTs this node processed.
	AcksReceived uint64 `json:"acks_received"`
	// AdoptedShardsPending/Replicated track post-failover
	// re-replication: shards whose adopted sessions no follower has
	// confirmed yet, and shards confirmed re-replicated since boot.
	AdoptedShardsPending    int `json:"adopted_shards_pending"`
	AdoptedShardsReplicated int `json:"adopted_shards_replicated"`
	// PromotedSessions and LastFailoverUnixMS record takeovers this
	// node performed.
	PromotedSessions   uint64 `json:"promoted_sessions"`
	LastFailoverUnixMS int64  `json:"last_failover_unix_ms"`
}

// reReplication prunes watermarks that a follower has acked past —
// those shards' adopted sessions verifiably have a replica again —
// and returns how many are still pending and how many have been
// confirmed since boot.
func (n *Node) reReplication() (pending, confirmed int) {
	n.rereplMu.Lock()
	defer n.rereplMu.Unlock()
	for shard, cur := range n.rerepl {
		if n.acks.acked(shard, cur) >= 1 {
			delete(n.rerepl, shard)
			n.rereplConfirmed++
		}
	}
	return len(n.rerepl), n.rereplConfirmed
}

// Status snapshots the node's replication state.
func (n *Node) Status() Status {
	ready, reason := n.Ready()
	pending, confirmed := n.reReplication()
	st := Status{
		ID:                      n.opts.ID,
		Nodes:                   n.ring.Nodes(),
		Ready:                   ready,
		Follows:                 make(map[string]FollowStatus, len(n.followers)),
		Streams:                 n.shipper.Status(),
		Epoch:                   n.Epoch(),
		ReplicateAck:            uint64(n.opts.ReplicateAck),
		BacklogScanErrors:       n.shipper.ScanErrors(),
		AcksReceived:            n.acks.acks.Load(),
		AdoptedShardsPending:    pending,
		AdoptedShardsReplicated: confirmed,
		PromotedSessions:        n.promoted.Load(),
		LastFailoverUnixMS:      n.failover.Load(),
	}
	if !ready {
		st.Reason = reason
	}
	for id, f := range n.followers {
		st.Follows[id] = f.Status()
	}
	return st
}

// Metrics is the `replication` section of /v1/metrics.
type Metrics struct {
	NodeID         string   `json:"node_id"`
	Peers          []string `json:"peers"`
	ActiveStreams  int      `json:"active_streams"`
	RecordsShipped uint64   `json:"records_shipped"`
	BytesShipped   uint64   `json:"bytes_shipped"`
	RecordsApplied uint64   `json:"records_applied"`
	BytesApplied   uint64   `json:"bytes_applied"`
	// FollowerLagRecords/Bytes sum this node's backlog across the
	// streams it follows (primary-measured; see the heartbeat
	// protocol).
	FollowerLagRecords uint64 `json:"follower_lag_records"`
	FollowerLagBytes   uint64 `json:"follower_lag_bytes"`
	PromotedSessions   uint64 `json:"promoted_sessions"`
	LastFailoverUnixMS int64  `json:"last_failover_unix_ms"`
	// Epoch is the node's observed promotion epoch.
	Epoch uint64 `json:"epoch"`
	// BacklogScanErrors counts failed (non-truncation) backlog scans.
	BacklogScanErrors uint64 `json:"backlog_scan_errors"`
	// AcksReceived/AckWaits/AckTimeouts price the synchronous-ack
	// path: follower ack POSTs processed, mutations that waited, and
	// waits that degraded to 503.
	AcksReceived uint64 `json:"acks_received"`
	AckWaits     uint64 `json:"ack_waits"`
	AckTimeouts  uint64 `json:"ack_timeouts"`
	// AdoptedShardsPending counts shards adopted at failover still
	// waiting for a follower to confirm re-replication.
	AdoptedShardsPending int `json:"adopted_shards_pending"`
}

// Metrics aggregates the node's replication counters.
func (n *Node) Metrics() Metrics {
	records, bytes := n.shipper.Shipped()
	pending, _ := n.reReplication()
	m := Metrics{
		NodeID:               n.opts.ID,
		ActiveStreams:        len(n.shipper.Status()),
		RecordsShipped:       records,
		BytesShipped:         bytes,
		PromotedSessions:     n.promoted.Load(),
		LastFailoverUnixMS:   n.failover.Load(),
		Epoch:                n.Epoch(),
		BacklogScanErrors:    n.shipper.ScanErrors(),
		AcksReceived:         n.acks.acks.Load(),
		AckWaits:             n.ackWaits.Load(),
		AckTimeouts:          n.ackTimeouts.Load(),
		AdoptedShardsPending: pending,
	}
	for id, f := range n.followers {
		m.Peers = append(m.Peers, id)
		st := f.Status()
		m.RecordsApplied += st.RecordsApplied
		m.BytesApplied += st.BytesApplied
		m.FollowerLagRecords += st.LagRecords
		m.FollowerLagBytes += st.LagBytes
	}
	sort.Strings(m.Peers)
	return m
}

// Handler serves the node's replication endpoints:
//
//	POST /v1/replication/stream   the WAL shipping stream (Shipper)
//	GET  /v1/replication/status   Status JSON
//	POST /v1/replication/ack      follower cursor acks (streamReq shape)
//	GET  /v1/replication/replica  ?peer=ID&shard=N -> checkpoint-entry
//	                              transfer of our replica of that peer's
//	                              shard (the promote-time merge source)
//	POST /v1/replication/promote  {"peer":ID,"epoch":E} -> {"adopted":N,"epoch":E}
//	                              (epoch 0/omitted mints current+1;
//	                              stale epochs get 409)
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/replication/stream", n.shipper)
	mux.HandleFunc("GET /v1/replication/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(n.Status())
	})
	mux.HandleFunc("POST /v1/replication/ack", func(w http.ResponseWriter, r *http.Request) {
		var req streamReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Node == "" {
			http.Error(w, "bad ack request", http.StatusBadRequest)
			return
		}
		cursors := make(map[int]wal.Cursor, len(req.Cursors))
		for shard, spec := range req.Cursors {
			i, cur, err := parseShardCursor(shard, spec)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			cursors[i] = cur
		}
		n.acks.update(req.Node, cursors)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/replication/replica", func(w http.ResponseWriter, r *http.Request) {
		peer := r.URL.Query().Get("peer")
		shard, err := strconv.Atoi(r.URL.Query().Get("shard"))
		f, ok := n.followers[peer]
		if !ok || err != nil || shard < 0 || shard >= store.NumShards {
			http.Error(w, "need ?peer=known-peer&shard=0..63", http.StatusBadRequest)
			return
		}
		entries, err := f.replica.ExportShardEntries(shard)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		data, err := store.EncodeWALCheckpoint(entries)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	})
	mux.HandleFunc("POST /v1/replication/promote", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Peer  string `json:"peer"`
			Epoch uint64 `json:"epoch"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Peer == "" {
			http.Error(w, "body must be {\"peer\":id,\"epoch\":n}", http.StatusBadRequest)
			return
		}
		adopted, epoch, err := n.Promote(req.Peer, req.Epoch)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrStaleEpoch) {
				code = http.StatusConflict
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]uint64{"adopted": uint64(adopted), "epoch": epoch})
	})
	return mux
}
