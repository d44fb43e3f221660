// Package cluster turns N durable sesd stores into one replicated
// service: a consistent-hash ring places every session on a primary
// node, each primary ships its per-shard write-ahead log to the other
// nodes over a streaming HTTP endpoint (wal.Tailer on the read side,
// the store replay path on the apply side), and a Router proxies
// client traffic — mutations to primaries, reads fanned to warm
// followers — failing over on node death by promoting the follower
// whose replication cursor is highest.
//
// The replication contract inherits the WAL's durability contract:
// a primary acknowledges a mutation only after its WAL append
// (and, under SyncAlways, its fsync), and followers apply the identical records recovery replays,
// so a follower at cursor C holds exactly the state the primary would
// recover at C. Acknowledged mutations are never lost to a crash —
// they are in the dead primary's log (recovered on restart) and, up
// to replication lag, already on the promoted follower.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per physical node. 64
// vnodes keep the per-node share of a 3-node ring within a few
// percent of 1/3 without making ring construction noticeable.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring: session names hash onto
// a circle of virtual node points (the same 32-bit FNV-1a family the
// store's shard index uses), and a session's primary is the first
// node clockwise of its hash. Adding or removing one node moves only
// the sessions whose arcs that node owned.
type Ring struct {
	nodes  []string
	points []ringPoint // ascending by hash
}

type ringPoint struct {
	hash uint32
	node string
}

// NewRing builds a ring over the given node IDs with vnodes virtual
// points each (0 = DefaultVNodes).
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{nodes: append([]string(nil), nodes...)}
	sort.Strings(r.nodes)
	for i := 1; i < len(r.nodes); i++ {
		if r.nodes[i] == r.nodes[i-1] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", r.nodes[i])
		}
	}
	r.points = make([]ringPoint, 0, len(r.nodes)*vnodes)
	for _, n := range r.nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", n, v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties break by node id so every ring built from the same
		// membership routes identically.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// ringHash is the ring's hash function: the FNV-1a/32 the store uses
// for shard placement, finished with an avalanche mix. Raw FNV-1a
// clusters badly on short keys that differ only in a trailing digit —
// exactly the "id#i" vnode keys — and a clustered ring hands one node
// most of the circle; the finalizer (murmur3's) spreads the points
// without leaving the FNV family the rest of placement uses.
func ringHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	x := h.Sum32()
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// Nodes returns the ring's member IDs, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Primary returns the node a session is placed on.
func (r *Ring) Primary(session string) string {
	return r.points[r.search(ringHash(session))].node
}

// Successors returns up to n distinct nodes after the session's
// primary in ring order — the natural follower preference order for
// reads and takeover when replication is bounded rather than
// full-mesh.
func (r *Ring) Successors(session string, n int) []string {
	i := r.search(ringHash(session))
	primary := r.points[i].node
	seen := map[string]bool{primary: true}
	var out []string
	for j := 1; j < len(r.points) && len(out) < n; j++ {
		node := r.points[(i+j)%len(r.points)].node
		if !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	return out
}

// search finds the first point at or clockwise of hash.
func (r *Ring) search(hash uint32) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	if i == len(r.points) {
		return 0
	}
	return i
}
