package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
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
