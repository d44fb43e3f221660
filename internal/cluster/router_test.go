package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubNode fakes a sesd cluster member: a status endpoint with
// configurable follow cursors, a promote endpoint that records calls,
// and a sessions API that answers with the node's id so tests can see
// where the router sent each request.
type stubNode struct {
	id string

	mu            sync.Mutex
	follows       map[string]FollowStatus
	epoch         uint64          // promotion epoch reported in Status
	rejectPromote bool            // answer promote with 409 (fenced)
	promotes      []string        // peers this node was asked to promote
	promoteEpochs []uint64        // the epochs those promotes proposed
	hits          []string        // "METHOD path" of proxied requests
	lastEpochHdr  string          // X-Ses-Epoch of the last proxied request
	missing       map[string]bool // session names answered with 404
	sessions      []string        // names listed by GET /v1/sessions
}

func (s *stubNode) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replication/status", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		st := Status{ID: s.id, Ready: true, Epoch: s.epoch, Follows: make(map[string]FollowStatus, len(s.follows))}
		for k, v := range s.follows {
			st.Follows[k] = v
		}
		s.mu.Unlock()
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("POST /v1/replication/promote", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Peer  string `json:"peer"`
			Epoch uint64 `json:"epoch"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		s.mu.Lock()
		s.promotes = append(s.promotes, req.Peer)
		s.promoteEpochs = append(s.promoteEpochs, req.Epoch)
		reject := s.rejectPromote
		s.mu.Unlock()
		if reject {
			http.Error(w, "stale promotion epoch", http.StatusConflict)
			return
		}
		json.NewEncoder(w).Encode(map[string]uint64{"adopted": 1, "epoch": req.Epoch})
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		s.record(r)
		s.mu.Lock()
		// Faithful to sesd's wire shape: store.Meta has no json tags,
		// so entries carry Go field names ("Name", capital N).
		out := make([]map[string]any, 0, len(s.sessions))
		for _, n := range s.sessions {
			out = append(out, map[string]any{"Name": n, "served_by": s.id})
		}
		s.mu.Unlock()
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/v1/sessions/", func(w http.ResponseWriter, r *http.Request) {
		s.record(r)
		name, _ := splitSessionPath(strings.TrimPrefix(r.URL.Path, "/v1/sessions/"))
		s.mu.Lock()
		miss := s.missing[name]
		s.mu.Unlock()
		if miss {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		fmt.Fprintf(w, `{"node":%q}`, s.id)
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		s.record(r)
		fmt.Fprintf(w, `{"node":%q}`, s.id)
	})
	return mux
}

func (s *stubNode) record(r *http.Request) {
	s.mu.Lock()
	s.hits = append(s.hits, r.Method+" "+r.URL.Path)
	s.lastEpochHdr = r.Header.Get("X-Ses-Epoch")
	s.mu.Unlock()
}

// setFollow sets the follow cursor the status endpoint reports for
// peer. The router's health poller reads it concurrently, so it takes
// the stub's lock.
func (s *stubNode) setFollow(peer string, fs FollowStatus) {
	s.mu.Lock()
	s.follows[peer] = fs
	s.mu.Unlock()
}

func (s *stubNode) promoted() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.promotes...)
}

func (s *stubNode) hitCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.hits)
}

// routerRig is a router over three stub nodes.
type routerRig struct {
	stubs   map[string]*stubNode
	servers map[string]*httptest.Server
	urls    map[string]string
	router  *Router
	front   *httptest.Server
}

func newRouterRig(t *testing.T) *routerRig {
	t.Helper()
	rig := &routerRig{
		stubs:   make(map[string]*stubNode),
		servers: make(map[string]*httptest.Server),
		urls:    make(map[string]string),
	}
	for _, id := range []string{"n1", "n2", "n3"} {
		st := &stubNode{id: id, follows: make(map[string]FollowStatus), missing: make(map[string]bool)}
		rig.stubs[id] = st
		srv := httptest.NewServer(st.handler())
		rig.servers[id] = srv
		rig.urls[id] = srv.URL
	}
	rt, err := NewRouter(RouterOptions{
		Peers:          rig.urls,
		HealthInterval: 10 * time.Millisecond,
		DownAfter:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.router = rt
	rt.Start()
	rig.front = httptest.NewServer(rt)
	t.Cleanup(func() {
		rig.front.Close()
		rt.Close()
		for _, srv := range rig.servers {
			srv.Close()
		}
	})
	return rig
}

// sessionOwnedBy finds a session name the ring places on the node.
func sessionOwnedBy(t *testing.T, r *Ring, node string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("owned-%d", i)
		if r.Primary(name) == node {
			return name
		}
	}
	t.Fatalf("no session hashes to %s", node)
	return ""
}

func postJSON(t *testing.T, url, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: %s: %s", url, resp.Status, b)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRouterSendsMutationsToPrimary(t *testing.T) {
	rig := newRouterRig(t)
	for _, owner := range []string{"n1", "n2", "n3"} {
		name := sessionOwnedBy(t, rig.router.ring, owner)
		out := postJSON(t, rig.front.URL+"/v1/sessions", fmt.Sprintf(`{"name":%q,"k":3}`, name))
		if out["node"] != owner {
			t.Errorf("create of %s landed on %v, want %s", name, out["node"], owner)
		}
		out = postJSON(t, rig.front.URL+"/v1/sessions/"+name+"/batch", `{"mutations":[]}`)
		if out["node"] != owner {
			t.Errorf("batch for %s landed on %v, want %s", name, out["node"], owner)
		}
	}
}

func TestRouterReadsFallBackToPrimary(t *testing.T) {
	rig := newRouterRig(t)
	name := sessionOwnedBy(t, rig.router.ring, "n2")
	// Every non-primary is a replica miss: all reads must still
	// succeed, served by the primary.
	rig.stubs["n1"].missing[name] = true
	rig.stubs["n3"].missing[name] = true
	for i := 0; i < 12; i++ {
		resp, err := http.Get(rig.front.URL + "/v1/sessions/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d: status %d, err %v", i, resp.StatusCode, err)
		}
		if out["node"] != "n2" {
			t.Fatalf("read %d served by %v despite replica misses", i, out["node"])
		}
	}
	// Warm replicas do take reads: with no misses, some reads land on
	// followers.
	delete(rig.stubs["n1"].missing, name)
	delete(rig.stubs["n3"].missing, name)
	followerServed := false
	for i := 0; i < 12 && !followerServed; i++ {
		resp, err := http.Get(rig.front.URL + "/v1/sessions/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		followerServed = out["node"] != "n2"
	}
	if !followerServed {
		t.Error("12 reads never landed on a follower replica")
	}
}

func TestRouterListMergesAcrossNodes(t *testing.T) {
	rig := newRouterRig(t)
	rig.stubs["n1"].sessions = []string{"a", "b"}
	rig.stubs["n2"].sessions = []string{"b", "c"}
	rig.stubs["n3"].sessions = []string{"c"}
	resp, err := http.Get(rig.front.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range out {
		names = append(names, m["Name"].(string))
	}
	if want := []string{"a", "b", "c"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("merged list = %v, want %v", names, want)
	}
}

func TestRouterFailoverPromotesHighestCursor(t *testing.T) {
	rig := newRouterRig(t)
	// n2 trails n1's log; n3 is nearly caught up. When n1 dies, n3
	// must be promoted and inherit n1's sessions.
	rig.stubs["n2"].setFollow("n1", FollowStatus{Peer: "n1", Connected: true, CursorWeight: 5 << 32})
	rig.stubs["n3"].setFollow("n1", FollowStatus{Peer: "n1", Connected: true, CursorWeight: 9 << 32})
	name := sessionOwnedBy(t, rig.router.ring, "n1")

	rig.servers["n1"].CloseClientConnections()
	rig.servers["n1"].Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := rig.router.Status()
		if st.Nodes["n1"] == "down" && st.Promoted["n1"] == "n3" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never failed n1 over to n3: %+v (n2 promotes %v, n3 promotes %v)",
				st, rig.stubs["n2"].promoted(), rig.stubs["n3"].promoted())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rig.stubs["n3"].promoted(); len(got) != 1 || got[0] != "n1" {
		t.Errorf("n3 promote calls = %v, want [n1]", got)
	}
	if got := rig.stubs["n2"].promoted(); len(got) != 0 {
		t.Errorf("n2 (lower cursor) was asked to promote: %v", got)
	}

	// Mutations for the dead node's sessions now reach the survivor.
	out := postJSON(t, rig.front.URL+"/v1/sessions/"+name+"/batch", `{"mutations":[]}`)
	if out["node"] != "n3" {
		t.Errorf("post-failover batch landed on %v, want n3", out["node"])
	}
	st := rig.router.Status()
	if st.Failovers != 1 || st.LastFailoverMS == 0 {
		t.Errorf("failover not recorded: %+v", st)
	}
}

// TestRouterProposesNextEpochAndStampsForwards: the router tracks the
// highest promotion epoch any node reports, proposes observed+1 at
// failover, and stamps every proxied request with X-Ses-Epoch so a
// node fences requests routed on a stale view.
func TestRouterProposesNextEpochAndStampsForwards(t *testing.T) {
	rig := newRouterRig(t)
	rig.stubs["n2"].mu.Lock()
	rig.stubs["n2"].epoch = 7
	rig.stubs["n2"].mu.Unlock()

	// The poll loop picks up n2's epoch; forwards then carry it.
	name := sessionOwnedBy(t, rig.router.ring, "n3")
	deadline := time.Now().Add(10 * time.Second)
	for {
		postJSON(t, rig.front.URL+"/v1/sessions/"+name+"/batch", `{"mutations":[]}`)
		rig.stubs["n3"].mu.Lock()
		hdr := rig.stubs["n3"].lastEpochHdr
		rig.stubs["n3"].mu.Unlock()
		if hdr == "7" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("forwards never stamped X-Ses-Epoch 7 (last %q)", hdr)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A failover now proposes epoch 8.
	rig.stubs["n3"].setFollow("n1", FollowStatus{Peer: "n1", Connected: true, CursorWeight: 1 << 32})
	rig.servers["n1"].CloseClientConnections()
	rig.servers["n1"].Close()
	deadline = time.Now().Add(10 * time.Second)
	for {
		if st := rig.router.Status(); st.Promoted["n1"] == "n3" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never promoted n3")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rig.stubs["n3"].mu.Lock()
	epochs := append([]uint64(nil), rig.stubs["n3"].promoteEpochs...)
	rig.stubs["n3"].mu.Unlock()
	if len(epochs) != 1 || epochs[0] != 8 {
		t.Errorf("promote epochs = %v, want [8]", epochs)
	}
	if st := rig.router.Status(); st.Epoch != 8 {
		t.Errorf("router epoch after failover = %d, want 8", st.Epoch)
	}
}

// TestRouterFencedPromoteNotRecorded: a 409 from the promote endpoint
// (another router won the epoch race) must NOT install a promotion —
// the losing router keeps its routing until it observes the new epoch.
func TestRouterFencedPromoteNotRecorded(t *testing.T) {
	rig := newRouterRig(t)
	rig.stubs["n2"].mu.Lock()
	rig.stubs["n2"].rejectPromote = true
	rig.stubs["n2"].mu.Unlock()
	rig.stubs["n2"].setFollow("n1", FollowStatus{Peer: "n1", Connected: true, CursorWeight: 9 << 32})
	rig.servers["n1"].CloseClientConnections()
	rig.servers["n1"].Close()

	deadline := time.Now().Add(10 * time.Second)
	for len(rig.stubs["n2"].promoted()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("router never attempted the promotion")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	st := rig.router.Status()
	if st.Promoted["n1"] != "" || st.Failovers != 0 {
		t.Errorf("fenced promotion was recorded: %+v", st)
	}
}
