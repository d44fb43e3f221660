package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ses/internal/obs"
)

// RouterOptions configures a failover Router.
type RouterOptions struct {
	// Peers maps node IDs to base URLs — the same map every node was
	// started with.
	Peers map[string]string
	// VNodes must match the nodes' ring (0 = DefaultVNodes).
	VNodes int
	// HealthInterval is the status poll period (0 = 250ms).
	HealthInterval time.Duration
	// DownAfter is how many consecutive failed polls mark a node dead
	// (0 = 3). Node death is the only failover trigger; one dropped
	// poll must not promote.
	DownAfter int
	// Client issues polls and proxied requests (nil = a client with a
	// 5s poll timeout and unbounded proxy bodies).
	Client *http.Client
	// Logf receives failover lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o RouterOptions) healthInterval() time.Duration {
	if o.HealthInterval <= 0 {
		return 250 * time.Millisecond
	}
	return o.HealthInterval
}

func (o RouterOptions) downAfter() int {
	if o.DownAfter <= 0 {
		return 3
	}
	return o.DownAfter
}

// Router is the thin sesrouter proxy: it places each request with the
// same ring the nodes use, sends mutations to the session's primary,
// fans reads across warm followers, and — when its health loop
// declares a node dead — promotes the surviving follower whose
// replication cursor for the dead node is highest, then routes the
// dead node's sessions to the promoted survivor. Promotions are
// sticky until the dead node polls healthy again.
type Router struct {
	opts   RouterOptions
	ring   *Ring
	client *http.Client
	logf   func(string, ...any)

	mu       sync.Mutex
	fails    map[string]int    // consecutive failed polls per node
	down     map[string]bool   // nodes currently considered dead
	promoted map[string]string // dead node -> survivor serving its sessions
	statuses map[string]Status // last successful poll per node

	rr        atomic.Uint64 // read fan-out round-robin
	failovers atomic.Uint64
	fenced    atomic.Uint64 // promotions rejected by epoch fencing
	lastFail  atomic.Int64  // unix ms of the last failover
	forwarded atomic.Uint64
	// fwdByNode counts forwarded requests per backend; keys are fixed
	// at construction so reads are lock-free.
	fwdByNode map[string]*atomic.Uint64
	// epoch tracks the highest promotion epoch the router has seen in
	// node statuses; each failover proposes epoch+1 and stamps every
	// proxied mutation with X-Ses-Epoch so a node that observed a
	// newer promotion rejects requests routed on stale placement.
	epoch atomic.Uint64
	// bodyTimeout is the read deadline a create body is read under
	// (BodyReadTimeout; tests lower it).
	bodyTimeout time.Duration

	cancel context.CancelFunc
	done   chan struct{}
}

// NewRouter builds a router over the cluster membership.
func NewRouter(opts RouterOptions) (*Router, error) {
	ids := make([]string, 0, len(opts.Peers))
	for id := range opts.Peers {
		ids = append(ids, id)
	}
	ring, err := NewRing(ids, opts.VNodes)
	if err != nil {
		return nil, err
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	fwd := make(map[string]*atomic.Uint64, len(opts.Peers))
	for id := range opts.Peers {
		fwd[id] = &atomic.Uint64{}
	}
	return &Router{
		opts:        opts,
		ring:        ring,
		client:      client,
		logf:        logf,
		fails:       make(map[string]int),
		down:        make(map[string]bool),
		promoted:    make(map[string]string),
		statuses:    make(map[string]Status),
		fwdByNode:   fwd,
		bodyTimeout: BodyReadTimeout,
	}, nil
}

// Start launches the health loop.
func (rt *Router) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	rt.cancel = cancel
	rt.done = make(chan struct{})
	go func() {
		defer close(rt.done)
		tick := time.NewTicker(rt.opts.healthInterval())
		defer tick.Stop()
		for {
			rt.pollOnce(ctx)
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
}

// Close stops the health loop.
func (rt *Router) Close() {
	if rt.cancel != nil {
		rt.cancel()
		<-rt.done
	}
}

// pollOnce polls every node's replication status and runs failover
// for any node that just crossed the death threshold.
func (rt *Router) pollOnce(ctx context.Context) {
	type result struct {
		id  string
		st  Status
		err error
	}
	results := make(chan result, len(rt.opts.Peers))
	for id, url := range rt.opts.Peers {
		go func(id, url string) {
			st, err := rt.fetchStatus(ctx, url)
			results <- result{id, st, err}
		}(id, url)
	}
	var died []string
	rt.mu.Lock()
	for range rt.opts.Peers {
		res := <-results
		if res.err != nil {
			rt.fails[res.id]++
			if rt.fails[res.id] >= rt.opts.downAfter() && !rt.down[res.id] {
				rt.down[res.id] = true
				died = append(died, res.id)
			}
			continue
		}
		rt.fails[res.id] = 0
		rt.statuses[res.id] = res.st
		for {
			cur := rt.epoch.Load()
			if res.st.Epoch <= cur || rt.epoch.CompareAndSwap(cur, res.st.Epoch) {
				break
			}
		}
		if rt.down[res.id] {
			// The node is back: its own recovery replayed everything it
			// acknowledged, so routing may return to the ring — but only
			// for sessions nobody adopted meanwhile; promoted sessions
			// stay with the survivor (it has taken writes since).
			rt.down[res.id] = false
			rt.logf("router: node %s is back", res.id)
		}
	}
	rt.mu.Unlock()
	for _, id := range died {
		rt.failover(ctx, id)
	}
}

func (rt *Router) fetchStatus(ctx context.Context, url string) (Status, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/replication/status", nil)
	if err != nil {
		return Status{}, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, fmt.Errorf("status %s", resp.Status)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// failover promotes the best surviving follower of a dead node: the
// candidate whose replication cursor for the dead node is highest has
// lost the fewest acknowledged-but-unshipped records, so it wins.
func (rt *Router) failover(ctx context.Context, dead string) {
	rt.mu.Lock()
	var best string
	var bestWeight uint64
	for id, st := range rt.statuses {
		if id == dead || rt.down[id] {
			continue
		}
		fs, ok := st.Follows[dead]
		if !ok {
			continue
		}
		if best == "" || fs.CursorWeight > bestWeight || (fs.CursorWeight == bestWeight && id < best) {
			best, bestWeight = id, fs.CursorWeight
		}
	}
	rt.mu.Unlock()
	if best == "" {
		rt.logf("router: node %s died with no live follower to promote", dead)
		return
	}
	// Propose the next promotion epoch. If another router (or an
	// operator) promoted meanwhile, the node rejects the stale epoch
	// with 409 and this router does NOT record a promotion — it keeps
	// serving its current view until the poll loop observes the newer
	// epoch, rather than installing a divergent survivor.
	next := rt.epoch.Load() + 1
	body, _ := json.Marshal(map[string]any{"peer": dead, "epoch": next})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		rt.opts.Peers[best]+"/v1/replication/promote", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.logf("router: promoting %s on %s failed: %v", dead, best, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		rt.fenced.Add(1)
		rt.logf("router: promoting %s on %s fenced: epoch %d is stale", dead, best, next)
		return
	}
	if resp.StatusCode >= 300 {
		rt.logf("router: promoting %s on %s failed: %s", dead, best, resp.Status)
		return
	}
	var out struct {
		Adopted int    `json:"adopted"`
		Epoch   uint64 `json:"epoch"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	if out.Epoch > 0 {
		for {
			cur := rt.epoch.Load()
			if out.Epoch <= cur || rt.epoch.CompareAndSwap(cur, out.Epoch) {
				break
			}
		}
	}
	rt.mu.Lock()
	rt.promoted[dead] = best
	rt.mu.Unlock()
	rt.failovers.Add(1)
	rt.lastFail.Store(time.Now().UnixMilli())
	rt.logf("router: node %s died; promoted %s at epoch %d (cursor weight %d, %d sessions adopted)",
		dead, best, out.Epoch, bestWeight, out.Adopted)
}

// primaryFor resolves a session's effective primary: the ring owner,
// redirected through the promotion table. Promotions are sticky even
// after the dead node returns — the survivor has taken acknowledged
// writes the ring owner never saw, so handing the sessions back would
// silently lose them. (Returning a recovered node to primary duty is
// an operator action: restart the router once the survivor's state
// has been migrated.)
func (rt *Router) primaryFor(session string) string {
	owner := rt.ring.Primary(session)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	seen := map[string]bool{owner: true}
	for {
		next, ok := rt.promoted[owner]
		if !ok || seen[next] {
			break
		}
		owner = next
		seen[owner] = true
	}
	return owner
}

// liveNodes returns the nodes not currently considered dead.
func (rt *Router) liveNodes() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []string
	for _, id := range rt.ring.Nodes() {
		if !rt.down[id] {
			out = append(out, id)
		}
	}
	return out
}

// RouterStatus is the /v1/router/status document.
type RouterStatus struct {
	Nodes          map[string]string `json:"nodes"` // id -> "up" | "down"
	Promoted       map[string]string `json:"promoted,omitempty"`
	Failovers      uint64            `json:"failovers"`
	LastFailoverMS int64             `json:"last_failover_unix_ms"`
	Epoch          uint64            `json:"epoch"`
}

// Status snapshots the router's view of the cluster.
func (rt *Router) Status() RouterStatus {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := RouterStatus{
		Nodes:          make(map[string]string, len(rt.opts.Peers)),
		Promoted:       make(map[string]string, len(rt.promoted)),
		Failovers:      rt.failovers.Load(),
		LastFailoverMS: rt.lastFail.Load(),
		Epoch:          rt.epoch.Load(),
	}
	for id := range rt.opts.Peers {
		if rt.down[id] {
			st.Nodes[id] = "down"
		} else {
			st.Nodes[id] = "up"
		}
	}
	// Promotions are reported even after the dead node returns: the
	// redirect stays in force (see primaryFor).
	for dead, survivor := range rt.promoted {
		st.Promoted[dead] = survivor
	}
	return st
}

// ServeHTTP routes one client request. Mutations go to the session's
// effective primary. Single-session reads round-robin across the live
// followers — any node can answer from its replica — falling back to
// the primary on a miss. Listing fans out to every live node and
// merges primary-owned sessions so a partially-replicated follower
// cannot hide entries.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/v1/router/status":
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rt.Status())
	case path == "/v1/sessions" && r.Method == http.MethodPost:
		rt.proxyCreate(w, r)
	case path == "/v1/sessions" && r.Method == http.MethodGet:
		rt.proxyList(w, r)
	case strings.HasPrefix(path, "/v1/sessions/"):
		name, rest := splitSessionPath(strings.TrimPrefix(path, "/v1/sessions/"))
		if name == "" {
			http.NotFound(w, r)
			return
		}
		if isMutation(r.Method, rest) || rest == "snapshot" {
			// Snapshots read the primary too: a replica snapshot could
			// trail the latest acknowledged batch.
			rt.proxyTo(w, r, rt.primaryFor(name), nil)
			return
		}
		rt.proxyRead(w, r, name)
	default:
		http.NotFound(w, r)
	}
}

// isMutation reports whether a /v1/sessions/{name}[/rest] request
// mutates state.
func isMutation(method, rest string) bool {
	if method == http.MethodDelete {
		return true
	}
	return method == http.MethodPost && (rest == "resolve" || rest == "batch" || rest == "restore")
}

// splitSessionPath splits "{name}" or "{name}/{rest}".
func splitSessionPath(p string) (name, rest string) {
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i], p[i+1:]
	}
	return p, ""
}

// MaxBodyBytes caps a create, batch or restore request body on sesd
// and a create body on the router, which buffers it to read the
// session name; a larger body is answered 413. The replication stream
// and ack bodies are long-lived and not capped.
const MaxBodyBytes = 64 << 20

// BodyReadTimeout bounds how long sesd waits for a create, batch or
// restore body and the router for a create body: a body at the
// MaxBodyBytes cap arrives within it at 3 Mbit/s. The watch,
// replication and ack streams are not under it.
const BodyReadTimeout = 3 * time.Minute

// proxyCreate peeks the session name out of the JSON body to place it
// on its primary, then forwards the buffered body. The body is read
// under a read deadline, cleared once it is read so that it cannot
// fire during the forward and cancel the request's context. On an
// error it stays armed, so net/http's discard of the unread rest
// fails at once and closes the connection. A deadline error is
// ErrNotSupported (a writer with no connection) or a closed
// connection, which the read reports anyway.
func (rt *Router) proxyCreate(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(rt.bodyTimeout))
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "reading body: "+err.Error(), status)
		return
	}
	_ = rc.SetReadDeadline(time.Time{})
	var peek struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &peek); err != nil || peek.Name == "" {
		http.Error(w, "create body needs a session name", http.StatusBadRequest)
		return
	}
	rt.proxyTo(w, r, rt.primaryFor(peek.Name), body)
}

// proxyRead serves a single-session GET from the follower fan-out: a
// read lands on the next live node round-robin; a 404 there (replica
// not warm yet) falls back to the effective primary.
func (rt *Router) proxyRead(w http.ResponseWriter, r *http.Request, name string) {
	primary := rt.primaryFor(name)
	live := rt.liveNodes()
	if len(live) > 1 {
		pick := live[int(rt.rr.Add(1))%len(live)]
		if pick != primary {
			resp, err := rt.forward(r, pick, nil)
			if err == nil {
				if resp.StatusCode != http.StatusNotFound {
					defer resp.Body.Close()
					copyResponse(w, resp)
					return
				}
				resp.Body.Close() // replica miss: fall through to the primary
			}
		}
	}
	rt.proxyTo(w, r, primary, nil)
}

// proxyList fans GET /v1/sessions to every live node and merges the
// results, keeping each session's entry from its effective primary.
func (rt *Router) proxyList(w http.ResponseWriter, r *http.Request) {
	type entry = json.RawMessage
	merged := make(map[string]entry)
	for _, id := range rt.liveNodes() {
		resp, err := rt.forward(r, id, nil)
		if err != nil {
			continue
		}
		var metas []map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&metas)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, m := range metas {
			// sesd marshals store.Meta with Go field names ("Name");
			// accept lowercase too for other backends.
			raw, ok := m["Name"]
			if !ok {
				raw = m["name"]
			}
			var name string
			if err := json.Unmarshal(raw, &name); err != nil || name == "" {
				continue
			}
			// The effective primary's entry wins; any node's entry fills
			// gaps (e.g. the primary is down and nothing adopted it yet).
			if _, have := merged[name]; !have || id == rt.primaryFor(name) {
				raw, _ := json.Marshal(m)
				merged[name] = raw
			}
		}
	}
	names := make([]string, 0, len(merged))
	for n := range merged {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]entry, 0, len(names))
	for _, n := range names {
		out = append(out, merged[n])
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// proxyTo forwards the request to one node and copies the response.
func (rt *Router) proxyTo(w http.ResponseWriter, r *http.Request, node string, body []byte) {
	resp, err := rt.forward(r, node, body)
	if err != nil {
		http.Error(w, fmt.Sprintf("node %s unreachable: %v", node, err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	copyResponse(w, resp)
}

// forward reissues the request against a node's base URL. A non-nil
// body replaces the (already-consumed) request body.
func (rt *Router) forward(r *http.Request, node string, body []byte) (*http.Response, error) {
	url := rt.opts.Peers[node] + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader = r.Body
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	// Stamp the router's promotion-epoch view so a node that saw a
	// newer promotion can fence requests routed on stale placement.
	if e := rt.epoch.Load(); e > 0 {
		req.Header.Set("X-Ses-Epoch", strconv.FormatUint(e, 10))
	}
	// Give every hop a trace ID: a client-supplied X-Ses-Trace passes
	// through (the header clone above), an absent one is minted here,
	// so the node's trace ring always has an ID the caller can query.
	if req.Header.Get("X-Ses-Trace") == "" {
		req.Header.Set("X-Ses-Trace", obs.NewTraceID())
	}
	rt.forwarded.Add(1)
	if c := rt.fwdByNode[node]; c != nil {
		c.Add(1)
	}
	return rt.client.Do(req)
}

// BackendMetrics is one backend's slice of RouterMetrics.
type BackendMetrics struct {
	// Healthy mirrors the health loop's current verdict.
	Healthy bool `json:"healthy"`
	// ConsecutiveFailures is the live failed-poll streak (resets on any
	// successful poll; >= DownAfter means the node is considered dead).
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Forwarded counts requests proxied to this backend.
	Forwarded uint64 `json:"forwarded"`
}

// RouterMetrics is the router's /v1/metrics document; sesrouter also
// flattens it into Prometheus series at /metrics.
type RouterMetrics struct {
	Backends         map[string]BackendMetrics `json:"backends"`
	Forwarded        uint64                    `json:"forwarded"`
	Promotions       uint64                    `json:"promotions"`
	FencedPromotions uint64                    `json:"fenced_promotions"`
	LastFailoverMS   int64                     `json:"last_failover_unix_ms"`
	Epoch            uint64                    `json:"epoch"`
}

// Metrics snapshots the router's counters and per-backend health.
func (rt *Router) Metrics() RouterMetrics {
	m := RouterMetrics{
		Backends:         make(map[string]BackendMetrics, len(rt.opts.Peers)),
		Forwarded:        rt.forwarded.Load(),
		Promotions:       rt.failovers.Load(),
		FencedPromotions: rt.fenced.Load(),
		LastFailoverMS:   rt.lastFail.Load(),
		Epoch:            rt.epoch.Load(),
	}
	rt.mu.Lock()
	for id := range rt.opts.Peers {
		m.Backends[id] = BackendMetrics{
			Healthy:             !rt.down[id],
			ConsecutiveFailures: rt.fails[id],
			Forwarded:           rt.fwdByNode[id].Load(),
		}
	}
	rt.mu.Unlock()
	return m
}

// copyResponse relays status, headers, and body.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}
