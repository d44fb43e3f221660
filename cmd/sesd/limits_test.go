package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ses"
	"ses/internal/cluster"
)

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// paddedCreate streams a valid create body for name with pad bytes of
// whitespace between its fields, without holding the padding in
// memory.
func paddedCreate(t *testing.T, name string, pad int64) io.Reader {
	t.Helper()
	doc, err := json.Marshal(instanceDoc(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	head := fmt.Sprintf(`{"name":%q,"k":3,`, name)
	tail := `"instance":` + string(doc) + `}`
	return io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, pad), strings.NewReader(tail))
}

// TestDaemonBodyLimit sends a valid create padded with whitespace to
// 65 MiB, one MiB past the 64 MiB body cap, straight to sesd and
// through sesrouter. Both answer 413 (a daemon without the cap
// creates the session; a router that truncates at the cap answers
// 400), and the daemon keeps serving.
func TestDaemonBodyLimit(t *testing.T) {
	st := ses.NewStore(ses.WithWorkers(1))
	pipe := ses.NewPipeline(st, ses.WithResolveWorkers(1))
	defer pipe.Close()
	h := newServer(st, pipe, nil, nil, nil).routes()
	srv := httptest.NewServer(h)
	defer srv.Close()
	rt, err := cluster.NewRouter(cluster.RouterOptions{Peers: map[string]string{"n1": srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	const pad = 65 << 20
	for _, via := range []struct {
		name string
		h    http.Handler
		url  string
	}{{"sesd", h, srv.URL}, {"sesrouter", rt, front.URL}} {
		rec := httptest.NewRecorder()
		via.h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", paddedCreate(t, "padded", pad)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: padded create answered %d, want 413; body %.200s", via.name, rec.Code, rec.Body.String())
		}
		do(t, "POST", via.url+"/v1/sessions", createReq{Name: via.name, K: 3, Instance: instanceDoc(t, 5)}, http.StatusCreated, nil)
		do(t, "POST", srv.URL+"/v1/sessions/"+via.name+"/resolve", nil, http.StatusOK, nil)
	}
	do(t, "GET", srv.URL+"/v1/sessions/padded", nil, http.StatusNotFound, nil)
}

// TestStalledBodyEndsWithinBound sends the headers of create, batch
// and restore requests that announce a 1000-byte body, then only part
// of it: an unfinished document, a complete one followed by nothing,
// or one the handler refuses before reading it (a bad ?timeout). Each
// request must end, with an error response or a closed connection,
// within the body read bound (a daemon without one keeps them open),
// and the daemon keeps serving.
func TestStalledBodyEndsWithinBound(t *testing.T) {
	st := ses.NewStore(ses.WithWorkers(1))
	pipe := ses.NewPipeline(st, ses.WithResolveWorkers(1))
	defer pipe.Close()
	s := newServer(st, pipe, nil, nil, nil)
	s.bodyTimeout = 200 * time.Millisecond
	srv := httptest.NewServer(s.routes())
	defer srv.Close()
	do(t, "POST", srv.URL+"/v1/sessions", createReq{Name: "live", K: 3, Instance: instanceDoc(t, 5)}, http.StatusCreated, nil)

	for _, c := range []struct{ path, body string }{
		{"/v1/sessions", `{"name":"stal`},
		{"/v1/sessions", `{"name":"stalled"}`},
		{"/v1/sessions/live/batch", `{"mutations":[`},
		{"/v1/sessions/live/batch", `{"mutations":[]}`},
		{"/v1/sessions/live/batch?timeout=soon", `{"mutations":[`},
		{"/v1/sessions/copy/restore", `{"version":`},
	} {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: sesd\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n%s", c.path, c.body)
		conn.SetReadDeadline(start.Add(s.bodyTimeout + 5*time.Second))
		resp, err := io.ReadAll(conn)
		conn.Close()
		if err != nil {
			t.Fatalf("%s %s: connection still open after %v: %v", c.path, c.body, time.Since(start).Round(time.Millisecond), err)
		}
		if len(resp) > 0 && !strings.HasPrefix(string(resp), "HTTP/1.1 4") {
			t.Fatalf("%s %s: answered %.200q, want a 4xx or a closed connection", c.path, c.body, resp)
		}
	}
	do(t, "POST", srv.URL+"/v1/sessions/live/resolve", nil, http.StatusOK, nil)
	do(t, "GET", srv.URL+"/v1/sessions/stalled", nil, http.StatusNotFound, nil)
}

// TestBodyDeadlineSparesTheResolve holds a batch's resolve, through
// the store's progress callback, for four body bounds after its body
// was read. The batch must still answer 200: a body deadline armed
// under net/http's background read would fire during the resolve and
// cancel the request's context (a deadline re-armed after readBody
// answers 499).
func TestBodyDeadlineSparesTheResolve(t *testing.T) {
	var hold atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	st := ses.NewStore(ses.WithWorkers(1), ses.WithProgress(func(ses.Progress) {
		if hold.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}))
	s := newServer(st, nil, nil, nil, nil)
	s.bodyTimeout = 50 * time.Millisecond
	srv := httptest.NewServer(s.routes())
	defer srv.Close()
	do(t, "POST", srv.URL+"/v1/sessions", createReq{Name: "held", K: 3, Instance: instanceDoc(t, 5)}, http.StatusCreated, nil)

	hold.Store(true)
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/sessions/held/batch", "application/json", strings.NewReader(`{"mutations":[]}`))
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	select {
	case <-entered:
	case got := <-status:
		t.Fatalf("batch answered %d before its resolve reported progress", got)
	}
	time.Sleep(4 * s.bodyTimeout) // past the bound, the resolve still held
	close(release)
	if got := <-status; got != http.StatusOK {
		t.Fatalf("held batch answered %d, want 200", got)
	}
}

// TestDaemonRejectsOversizedShapes sends small documents that claim
// more intervals than the shape admission limit allows. Create and
// restore answer 422 before anything is built, so the sessions never
// exist (a daemon without the limit creates them, and their first
// resolve would allocate per claimed interval), and the daemon keeps
// serving.
func TestDaemonRejectsOversizedShapes(t *testing.T) {
	srv := testServer(t)
	do(t, "POST", srv.URL+"/v1/sessions", createReq{Name: "ok", K: 3, Instance: instanceDoc(t, 5)}, http.StatusCreated, nil)

	// Ten events at 2^20 intervals, and one event at 2^21: both are
	// charged |T|·(|E|+8) > 2^24 cells.
	ten := instanceDoc(t, 5)
	ten.NumIntervals = 1 << 20
	one := instanceDoc(t, 5)
	one.NumIntervals = 1 << 21
	one.Events = one.Events[:1]
	one.CandInterest.Rows = one.CandInterest.Rows[:1]
	for name, doc := range map[string]any{"ten": ten, "one": one} {
		body, err := json.Marshal(map[string]any{"name": name, "k": 3, "instance": doc})
		if err != nil {
			t.Fatal(err)
		}
		if got := post(t, srv.URL+"/v1/sessions", body); got != http.StatusUnprocessableEntity {
			t.Fatalf("%s: create answered %d, want 422", name, got)
		}
		do(t, "GET", srv.URL+"/v1/sessions/"+name, nil, http.StatusNotFound, nil)
	}

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
	if snapshot["instance"], err = json.Marshal(ten); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if got := post(t, srv.URL+"/v1/sessions/copy/restore", body); got != http.StatusUnprocessableEntity {
		t.Fatalf("restore answered %d, want 422", got)
	}
	do(t, "GET", srv.URL+"/v1/sessions/copy", nil, http.StatusNotFound, nil)
	do(t, "POST", srv.URL+"/v1/sessions/ok/resolve", nil, http.StatusOK, nil)
}

// TestRunAcceptsGroupCommitFlag boots a durable daemon with the
// -group-commit flag, which has no effect but is still accepted, and
// checks it serves a create and a resolve and shuts down cleanly.
func TestRunAcceptsGroupCommitFlag(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-data-dir", t.TempDir(), "-group-commit", "-workers", "1"})
	}()
	url := "http://" + addr
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never answered /healthz: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	do(t, "POST", url+"/v1/sessions", createReq{Name: "gc", K: 3, Instance: instanceDoc(t, 7)}, http.StatusCreated, nil)
	do(t, "POST", url+"/v1/sessions/gc/resolve", nil, http.StatusOK, nil)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after shutdown, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestBodyBufferFollowsTheBytes: create and restore bodies are read
// into pooled chunks taken as the body's bytes arrive, then copied
// once. Once chunks are pooled, a 4 MiB create body costs at most its
// size plus 64 KiB of read allocation (a buffer that doubles from
// empty allocates twice the body and more), and a request that
// announces a 64 MiB body and sends 12 bytes allocates under 1 MiB
// before its 400 (a buffer sized from the Content-Length allocates
// the 64 MiB).
func TestBodyBufferFollowsTheBytes(t *testing.T) {
	body := commaBodies(4 << 20)["ids"]
	read := func() uint64 {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body))
		return allocated(func() {
			if got, n, err := readWhole(rec, req); err != nil || n != len(body) || !bytes.Equal(got, body) {
				t.Errorf("read %d of %d bytes: %v", n, len(body), err)
			}
		})
	}
	read()
	// A collection between two reads may empty the pool once; the
	// pool keeps its chunks across one collection, so the best of
	// three reads finds them.
	best := read()
	for i := 0; i < 2; i++ {
		best = min(best, read())
	}
	if best > uint64(len(body))+64<<10 && !raceEnabled {
		t.Errorf("reading a %d-byte body allocated %d bytes", len(body), best)
	}

	st := ses.NewStore(ses.WithWorkers(1))
	s := newServer(st, nil, nil, nil, nil)
	s.bodyTimeout = 200 * time.Millisecond
	srv := httptest.NewServer(s.routes())
	defer srv.Close()
	for _, c := range []struct{ path, ctype string }{
		{"/v1/sessions", "application/json"},
		{"/v1/sessions/copy/restore", "application/octet-stream"},
	} {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		var resp []byte
		n := allocated(func() {
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: sesd\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s",
				c.path, c.ctype, cluster.MaxBodyBytes, `{"name":"ab`)
			conn.SetReadDeadline(time.Now().Add(s.bodyTimeout + 5*time.Second))
			resp, err = io.ReadAll(conn)
		})
		conn.Close()
		if !strings.HasPrefix(string(resp), "HTTP/1.1 400") {
			t.Fatalf("%s: answered %.200q (%v), want 400", c.path, resp, err)
		}
		if n >= 1<<20 {
			t.Errorf("%s: a 12-byte body announced as %d bytes allocated %d bytes", c.path, cluster.MaxBodyBytes, n)
		}
	}
}
