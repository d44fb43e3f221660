package main

// -fig cluster prices the replicated cluster of internal/cluster: a
// throughput curve over node counts (each node a durable store with
// its own SyncAlways WAL, full-mesh WAL shipping between them) and
// a kill -9 failover timeline — detection, promotion, first
// post-failover write — with the acknowledged counters verified to
// come through the promotion exactly. The throughput floor
// (multi-node at least clusterFloorX times single-node) is enforced
// whenever the measuring host has enough cores for the comparison to
// be physical, mirroring the scaling fig's gating.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"ses"
	"ses/internal/cluster"
	"ses/internal/session"
	"ses/internal/sestest"
	"ses/internal/tablefmt"
)

// clusterThroughputPoint is one node-count's measured commit rate.
type clusterThroughputPoint struct {
	Nodes     int     `json:"nodes"`
	Sessions  int     `json:"sessions"`
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	SpeedupX  float64 `json:"speedup_x"` // vs the 1-node point
}

// clusterFailover is the kill -9 recovery timeline.
type clusterFailover struct {
	KillToDownMS     float64 `json:"kill_to_down_ms"`
	KillToPromotedMS float64 `json:"kill_to_promoted_ms"`
	KillToWriteMS    float64 `json:"kill_to_first_write_ms"`
	AdoptedSessions  int     `json:"adopted_sessions"`
	// AckedPreserved reports whether every session the dead primary
	// had acknowledged before the kill survived the promotion with its
	// exact mutation/batch/resolve counters.
	AckedPreserved bool `json:"acked_preserved"`
}

// clusterSyncAck prices `sesd -replicate-ack 1` against async
// replication on the same 3-node cluster: the throughput cost of
// withholding each response until a follower confirms, and the
// distribution of the ack waits themselves.
type clusterSyncAck struct {
	Sessions       int     `json:"sessions"`
	Ops            int     `json:"ops"`
	AsyncOpsPerSec float64 `json:"async_ops_per_sec"`
	SyncOpsPerSec  float64 `json:"sync_ops_per_sec"`
	// CostX is async/sync — how many times slower acknowledged
	// replication is than fire-and-forget on this host.
	CostX        float64 `json:"cost_x"`
	AckWaitP50MS float64 `json:"ack_wait_p50_ms"`
	AckWaitP99MS float64 `json:"ack_wait_p99_ms"`
	AckTimeouts  uint64  `json:"ack_timeouts"`
}

// clusterReport is the BENCH_cluster.json document.
type clusterReport struct {
	host
	Throughput []clusterThroughputPoint `json:"throughput"`
	SyncAck    clusterSyncAck           `json:"sync_ack"`
	Failover   clusterFailover          `json:"failover"`
}

// The CI-enforced cluster contract: the largest node count must beat
// single-node throughput by clusterFloorX when the host has at least
// clusterFloorCores cores. Below that the nodes time-share cores and
// the comparison is not physical.
const (
	clusterFloorCores = 4
	clusterFloorX     = 1.5
)

var clusterNodeCounts = []int{1, 2, 3}

// benchCluster measures the cluster throughput curve, the sync-ack
// price and the failover timeline.
func benchCluster(ctx context.Context, out io.Writer, e env) (*clusterReport, error) {
	rep := &clusterReport{host: e.host()}
	for _, nodes := range clusterNodeCounts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pt, err := clusterThroughput(ctx, nodes, e.seed, e.quick)
		if err != nil {
			return nil, err
		}
		rep.Throughput = append(rep.Throughput, pt)
		fmt.Fprintf(out, "nodes=%d: %d sessions × %d batches, %.0f ops/s\n",
			pt.Nodes, pt.Sessions, pt.Ops, pt.OpsPerSec)
	}
	base := rep.Throughput[0].OpsPerSec
	for i := range rep.Throughput {
		rep.Throughput[i].SpeedupX = rep.Throughput[i].OpsPerSec / base
	}

	sa, err := clusterSyncAckBench(ctx, e.seed, e.quick)
	if err != nil {
		return nil, err
	}
	rep.SyncAck = *sa
	fmt.Fprintf(out, "sync-ack: async %.0f ops/s, replicate-ack=1 %.0f ops/s (%.2fx cost), ack wait p50 %.2fms p99 %.2fms\n",
		sa.AsyncOpsPerSec, sa.SyncOpsPerSec, sa.CostX, sa.AckWaitP50MS, sa.AckWaitP99MS)

	fo, err := clusterKillFailover(ctx, e.seed, e.quick, out)
	if err != nil {
		return nil, err
	}
	rep.Failover = *fo
	return rep, nil
}

// checkCluster validates a cluster artifact: schema always, the
// failover invariants (promotion completed, acknowledged state
// preserved) always — they do not depend on core count — and the
// multi-node throughput floor when measured on a big-enough host.
func checkCluster(out io.Writer, rep *clusterReport) error {
	if err := rep.valid(); err != nil {
		return fmt.Errorf("cluster artifact: %w", err)
	}
	if len(rep.Throughput) != len(clusterNodeCounts) {
		return fmt.Errorf("cluster artifact: %d throughput points, want %d",
			len(rep.Throughput), len(clusterNodeCounts))
	}
	for i, pt := range rep.Throughput {
		if pt.Nodes != clusterNodeCounts[i] {
			return fmt.Errorf("cluster artifact: point %d has nodes=%d, want %d", i, pt.Nodes, clusterNodeCounts[i])
		}
		if pt.OpsPerSec <= 0 {
			return fmt.Errorf("cluster artifact: nodes=%d has non-positive throughput", pt.Nodes)
		}
	}

	tab := &tablefmt.Table{
		Title:  "Cluster throughput (replicated durable nodes)",
		Header: []string{"nodes", "sessions", "ops/s", "x 1-node"},
	}
	for _, pt := range rep.Throughput {
		tab.AddRow(fmt.Sprint(pt.Nodes), fmt.Sprint(pt.Sessions),
			fmt.Sprintf("%.0f", pt.OpsPerSec), fmt.Sprintf("%.2f", pt.SpeedupX))
	}
	if err := tab.Render(out); err != nil {
		return err
	}
	sa := rep.SyncAck
	fmt.Fprintf(out, "\nsync-ack: async %.0f ops/s, replicate-ack=1 %.0f ops/s (%.2fx cost), ack wait p50 %.2fms p99 %.2fms, %d timeouts\n",
		sa.AsyncOpsPerSec, sa.SyncOpsPerSec, sa.CostX, sa.AckWaitP50MS, sa.AckWaitP99MS, sa.AckTimeouts)
	if sa.SyncOpsPerSec <= 0 || sa.AsyncOpsPerSec <= 0 {
		return fmt.Errorf("cluster artifact: sync-ack section has non-positive throughput (%+v)", sa)
	}
	if sa.AckTimeouts > 0 {
		return fmt.Errorf("cluster artifact: %d synchronous-ack waits timed out on a healthy cluster", sa.AckTimeouts)
	}

	fo := rep.Failover
	fmt.Fprintf(out, "\nfailover: down %.1fms, promoted %.1fms, first write %.1fms after kill -9 (%d sessions adopted)\n",
		fo.KillToDownMS, fo.KillToPromotedMS, fo.KillToWriteMS, fo.AdoptedSessions)

	if !fo.AckedPreserved {
		return fmt.Errorf("cluster artifact: acknowledged state was NOT preserved across failover")
	}
	if fo.AdoptedSessions <= 0 || fo.KillToPromotedMS <= 0 {
		return fmt.Errorf("cluster artifact: failover never completed (adopted %d, promoted %.1fms)",
			fo.AdoptedSessions, fo.KillToPromotedMS)
	}

	last := rep.Throughput[len(rep.Throughput)-1]
	if !rep.floorApplies(out, fmt.Sprintf("cluster floor (%d-node >= %.1fx 1-node)", last.Nodes, clusterFloorX), clusterFloorCores, true) {
		return nil
	}
	if last.SpeedupX < clusterFloorX {
		return fmt.Errorf("cluster throughput at %d nodes is %.2fx single-node, below the %.1fx floor",
			last.Nodes, last.SpeedupX, clusterFloorX)
	}
	fmt.Fprintf(out, "cluster floor ok: %d-node is %.2fx 1-node (floor %.1fx)\n",
		last.Nodes, last.SpeedupX, clusterFloorX)
	return nil
}

// benchSwap serves an atomically-swappable handler (503 until set),
// so every node's URL exists before any node boots.
type benchSwap struct{ h atomic.Value }

func (b *benchSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := b.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "booting", http.StatusServiceUnavailable)
}

// benchNode is one in-process cluster member: a durable store with
// its own SyncAlways WAL, a single-worker resolve
// pipeline (its serving capacity), and the replication layer, served
// over an httptest server.
type benchNode struct {
	id     string
	dir    string
	store  *ses.DurableStore
	pipe   *ses.Pipeline
	node   *cluster.Node
	server *httptest.Server
}

// bootBenchCluster brings up n replicated durable nodes full-mesh
// over httptest servers. The returned close func tears everything
// down in stream-safe order (nodes, then servers, then stores) and is
// safe to run after a member was killed mid-bench.
func bootBenchCluster(n int, tag string, tweaks ...func(*cluster.NodeOptions)) ([]*benchNode, map[string]string, func(), error) {
	nodes := make([]*benchNode, n)
	urls := make(map[string]string, n)
	swaps := make([]*benchSwap, n)
	for i := range nodes {
		id := fmt.Sprintf("b%d", i+1)
		swaps[i] = &benchSwap{}
		srv := httptest.NewServer(swaps[i])
		nodes[i] = &benchNode{id: id, server: srv}
		urls[id] = srv.URL
	}
	closeAll := func() {
		for _, bn := range nodes {
			if bn.node != nil {
				bn.node.Close()
			}
		}
		for _, bn := range nodes {
			bn.server.CloseClientConnections()
			bn.server.Close()
		}
		for _, bn := range nodes {
			if bn.pipe != nil {
				bn.pipe.Close()
			}
			if bn.store != nil {
				bn.store.Close()
			}
			if bn.dir != "" {
				os.RemoveAll(bn.dir)
			}
		}
	}
	for i, bn := range nodes {
		dir, err := os.MkdirTemp("", "sesbench-cluster-"+tag+"-")
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		bn.dir = dir
		d, err := ses.OpenStore(ses.WithDurability(dir), ses.WithWorkers(1),
			ses.WithSyncPolicy(ses.SyncAlways))
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		bn.store = d
		bn.pipe = ses.NewPipeline(d, ses.WithResolveWorkers(1))
		opts := cluster.NodeOptions{
			ID:      bn.id,
			Peers:   urls,
			Session: session.Options{Workers: 1},
			Shipper: cluster.ShipperOptions{Heartbeat: 50 * time.Millisecond},
		}
		for _, tw := range tweaks {
			tw(&opts)
		}
		node, err := cluster.NewNode(d, opts)
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		bn.node = node
		swaps[i].h.Store(node.Handler())
		node.Start()
	}
	return nodes, urls, closeAll, nil
}

// clusterThroughput drives batch commits across an n-node cluster:
// sessions are placed by the ring and every driver commits through
// its session's primary resolve pipeline while replication ships
// behind it; the aggregate commit rate is the point. Each node
// serves through ONE pipeline worker — its fixed capacity, as a sesd
// deployment caps a machine with -resolve-workers — so node count is
// the scaled resource, exactly as adding machines is in production.
func clusterThroughput(ctx context.Context, n int, seed uint64, quick bool) (clusterThroughputPoint, error) {
	sessions, ops := 12, 40
	if quick {
		sessions, ops = 6, 12
	}
	nodes, _, closeAll, err := bootBenchCluster(n, fmt.Sprintf("tp%d", n))
	if err != nil {
		return clusterThroughputPoint{}, err
	}
	defer closeAll()
	names, primaries, err := placeSessions(ctx, nodes, "tp", sessions, seed)
	if err != nil {
		return clusterThroughputPoint{}, err
	}
	rate, err := commitLoad(sessions, ops, clusterShape.Users, clusterShape.Events, func(i int, batch []ses.Mutation) error {
		_, err := primaries[i].pipe.ApplyBatch(ctx, names[i], batch)
		return err
	})
	if err != nil {
		return clusterThroughputPoint{}, err
	}
	return clusterThroughputPoint{Nodes: n, Sessions: sessions, Ops: ops, OpsPerSec: rate}, nil
}

// clusterShape is the instance shape of every session the throughput
// and sync-ack phases drive.
var clusterShape = sestest.Config{Users: 120, Events: 12, Intervals: 4, Competing: 2}

// placeSessions creates warm sessions prefix-0..n-1, each on its ring
// primary, and returns their names and primaries.
func placeSessions(ctx context.Context, nodes []*benchNode, prefix string, n int, seed uint64) ([]string, []*benchNode, error) {
	byID := make(map[string]*benchNode, len(nodes))
	for _, bn := range nodes {
		byID[bn.id] = bn
	}
	ring := nodes[0].node.Ring()
	primaries := make([]*benchNode, n)
	names, err := warmSessions(ctx, n, prefix, clusterShape, 4, seed, func(i int, name string) *ses.Store {
		primaries[i] = byID[ring.Primary(name)]
		return primaries[i].store.Store
	})
	return names, primaries, err
}

// clusterSyncAckBench prices synchronous replication acks: the same
// 3-node cluster runs one async phase (fire-and-forget, the default)
// and one sync phase where every batch additionally blocks on
// AwaitAck (`-replicate-ack 1`) — the per-op ack wait is the price of
// closing the acked-write loss window.
func clusterSyncAckBench(ctx context.Context, seed uint64, quick bool) (*clusterSyncAck, error) {
	sessions, ops := 8, 30
	if quick {
		sessions, ops = 4, 10
	}
	nodes, _, closeAll, err := bootBenchCluster(3, "ack", func(o *cluster.NodeOptions) {
		o.ReplicateAck = 1
		o.AckWait = 10 * time.Second
	})
	if err != nil {
		return nil, err
	}
	defer closeAll()
	names, primaries, err := placeSessions(ctx, nodes, "ack", sessions, seed)
	if err != nil {
		return nil, err
	}

	drive := func(await bool) (float64, []float64, error) {
		waits := make([][]float64, sessions)
		rate, err := commitLoad(sessions, ops, clusterShape.Users, clusterShape.Events, func(i int, batch []ses.Mutation) error {
			if _, err := primaries[i].pipe.ApplyBatch(ctx, names[i], batch); err != nil {
				return err
			}
			if !await {
				return nil
			}
			w0 := time.Now()
			if err := primaries[i].node.AwaitAck(ctx, names[i]); err != nil {
				return err
			}
			waits[i] = append(waits[i], time.Since(w0).Seconds())
			return nil
		})
		var all []float64
		for _, w := range waits {
			all = append(all, w...)
		}
		return rate, all, err
	}

	sa := &clusterSyncAck{Sessions: sessions, Ops: ops}
	if sa.AsyncOpsPerSec, _, err = drive(false); err != nil {
		return nil, fmt.Errorf("sync-ack bench (async phase): %w", err)
	}
	syncRate, waits, err := drive(true)
	if err != nil {
		return nil, fmt.Errorf("sync-ack bench (sync phase): %w", err)
	}
	sa.SyncOpsPerSec = syncRate
	sa.CostX = sa.AsyncOpsPerSec / sa.SyncOpsPerSec
	wait := summarizeLat(waits)
	sa.AckWaitP50MS, sa.AckWaitP99MS = wait.P50us/1e3, wait.P99us/1e3
	for _, bn := range nodes {
		sa.AckTimeouts += bn.node.Metrics().AckTimeouts
	}
	return sa, nil
}

// clusterKillFailover boots three nodes plus a Router, loads one
// node with acknowledged batches, lets replication drain, kill -9s
// that node (server vanishes, store abandoned without its final
// checkpoint), and times the router's detection, promotion, and the
// first write the survivor takes for an adopted session — verifying
// the acknowledged counters came through the promotion exactly.
func clusterKillFailover(ctx context.Context, seed uint64, quick bool, out io.Writer) (*clusterFailover, error) {
	sessions, ops := 6, 12
	if quick {
		sessions, ops = 3, 6
	}
	nodes, urls, closeAll, err := bootBenchCluster(3, "fo")
	if err != nil {
		return nil, err
	}
	defer closeAll()
	victim := nodes[0]
	byID := make(map[string]*benchNode, len(nodes))
	for _, bn := range nodes {
		byID[bn.id] = bn
	}

	// Acknowledged workload on the victim only: its sessions are what
	// the failover must preserve.
	type ackedState struct {
		name                         string
		mutations, batches, resolves uint64
	}
	acked := make([]ackedState, 0, sessions)
	for i := 0; i < sessions; i++ {
		name := fmt.Sprintf("fo-%d", i)
		inst := sestest.Random(sestest.Config{Users: 100, Events: 10, Intervals: 4, Competing: 2, Seed: seed + uint64(i)})
		if err := victim.store.Create(name, inst, 4); err != nil {
			return nil, err
		}
		for j := 0; j < ops; j++ {
			mut := ses.UpdateInterestOp(j%100, j%10, 0.5)
			if _, err := victim.store.ApplyBatch(ctx, name, []ses.Mutation{mut}); err != nil {
				return nil, err
			}
		}
		m, err := victim.store.Meta(name)
		if err != nil {
			return nil, err
		}
		acked = append(acked, ackedState{name, m.Mutations, m.Batches, m.Resolves})
	}

	// Drain: every survivor's replica must hold the full acknowledged
	// state before the kill. This fig times failover mechanics;
	// replication lag under loss is the crash matrix's subject.
	deadline := time.Now().Add(60 * time.Second)
	for _, bn := range nodes[1:] {
		for _, a := range acked {
			for {
				if rep, _, ok := bn.node.Replica(a.name); ok {
					if m, err := rep.Meta(a.name); err == nil && m.Mutations == a.mutations && m.Batches == a.batches {
						break
					}
				}
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("replication never drained %s to %s", a.name, bn.id)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}

	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Peers:          urls,
		HealthInterval: 10 * time.Millisecond,
		DownAfter:      3,
	})
	if err != nil {
		return nil, err
	}
	rt.Start()
	defer rt.Close()
	for {
		st := rt.Status()
		healthy := 0
		for _, state := range st.Nodes {
			if state == "up" {
				healthy++
			}
		}
		if healthy == len(nodes) {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("router never saw the cluster healthy: %v", st.Nodes)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// kill -9: the victim's endpoint vanishes mid-flight and its store
	// is simply abandoned — no graceful close, no final checkpoint.
	kill := time.Now()
	victim.node.Close()
	victim.server.CloseClientConnections()
	victim.server.Close()

	fo := &clusterFailover{}
	var survivorID string
	for {
		st := rt.Status()
		if fo.KillToDownMS == 0 && st.Nodes[victim.id] == "down" {
			fo.KillToDownMS = msSince(kill)
		}
		if s, ok := st.Promoted[victim.id]; ok {
			survivorID = s
			fo.KillToPromotedMS = msSince(kill)
			if fo.KillToDownMS == 0 { // down and promoted within one poll
				fo.KillToDownMS = fo.KillToPromotedMS
			}
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("router never promoted a survivor for %s", victim.id)
		}
		time.Sleep(2 * time.Millisecond)
	}
	survivor := byID[survivorID]
	if survivor == nil {
		return nil, fmt.Errorf("router promoted unknown node %q", survivorID)
	}

	// The acknowledged counters must come through the promotion
	// exactly: nothing lost, nothing phantom.
	fo.AckedPreserved = true
	for _, a := range acked {
		m, err := survivor.store.Meta(a.name)
		if err != nil {
			fmt.Fprintf(out, "failover: %s missing on %s: %v\n", a.name, survivorID, err)
			fo.AckedPreserved = false
			continue
		}
		if m.Mutations != a.mutations || m.Batches != a.batches || m.Resolves != a.resolves {
			fmt.Fprintf(out, "failover: %s adopted with %d/%d/%d, acknowledged %d/%d/%d\n",
				a.name, m.Mutations, m.Batches, m.Resolves, a.mutations, a.batches, a.resolves)
			fo.AckedPreserved = false
		}
	}
	fo.AdoptedSessions = len(acked)

	// First post-failover write for an adopted session: the survivor
	// is primary now and must take it durably.
	if _, err := survivor.store.ApplyBatch(ctx, acked[0].name, []ses.Mutation{ses.UpdateInterestOp(0, 0, 0.9)}); err != nil {
		return nil, fmt.Errorf("post-failover write: %w", err)
	}
	fo.KillToWriteMS = msSince(kill)
	return fo, nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}
