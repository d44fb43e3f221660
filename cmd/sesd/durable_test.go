package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ses"
)

// startServe runs the full serve loop (listener, graceful shutdown,
// final checkpoint) on an ephemeral port and returns the base URL, a
// shutdown trigger and the exit channel.
func startServe(t *testing.T, st *ses.Store, durable *ses.DurableStore) (url string, shutdown func(), done chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done = make(chan error, 1)
	pipe := ses.NewPipeline(st, ses.WithResolveWorkers(2))
	go func() { done <- serve(ctx, ln, st, pipe, durable, nil, nil, 2*time.Second) }()
	return "http://" + ln.Addr().String(), cancel, done
}

// TestGracefulShutdownDurable drives the daemon's lifecycle the way
// systemd would: serve durable traffic, SIGTERM (ctx cancel), drain,
// final checkpoint, exit 0 — then a second boot recovers every
// acknowledged session.
func TestGracefulShutdownDurable(t *testing.T) {
	dir := t.TempDir()
	d, err := ses.OpenStore(ses.WithDurability(dir), ses.WithSyncPolicy(ses.SyncNone), ses.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	url, shutdown, done := startServe(t, d.Store, d)

	doc := instanceDoc(t, 51)
	var meta ses.SessionMeta
	do(t, "POST", url+"/v1/sessions", createReq{Name: "fest", K: 4, Instance: doc}, http.StatusCreated, &meta)
	var batch ses.BatchResult
	do(t, "POST", url+"/v1/sessions/fest/batch", batchReq{Mutations: []ses.Mutation{
		ses.UpdateInterestOp(1, 2, 0.8),
		ses.SetKOp(5),
	}}, http.StatusOK, &batch)
	if batch.Delta == nil {
		t.Fatal("batch committed no delta")
	}
	var snapshot strings.Builder
	resp, err := http.Get(url + "/v1/sessions/fest/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := copyBody(&snapshot, resp); err != nil {
		t.Fatal(err)
	}

	// Shut down: serve must return nil (exit 0) and leave a final
	// checkpoint on disk.
	shutdown()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("daemon still accepting requests after shutdown")
	}
	foundCkpt := false
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(path, ".ckpt") {
			foundCkpt = true
		}
		return nil
	})
	if !foundCkpt {
		t.Fatal("graceful shutdown left no checkpoint")
	}

	// Second boot: recovery must serve the same session, and the
	// snapshot must be byte-identical to the pre-shutdown one.
	d2, err := ses.OpenStore(ses.WithDurability(dir), ses.WithSyncPolicy(ses.SyncNone), ses.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	url2, shutdown2, done2 := startServe(t, d2.Store, d2)
	var meta2 ses.SessionMeta
	do(t, "GET", url2+"/v1/sessions/fest", nil, http.StatusOK, &meta2)
	if meta2.K != 5 || meta2.Mutations != meta.Mutations+2 {
		t.Fatalf("recovered meta: %+v (pre-shutdown %+v)", meta2, meta)
	}
	var snapshot2 strings.Builder
	resp2, err := http.Get(url2 + "/v1/sessions/fest/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := copyBody(&snapshot2, resp2); err != nil {
		t.Fatal(err)
	}
	if snapshot.String() != snapshot2.String() {
		t.Fatalf("recovered snapshot diverged:\n got: %s\nwant: %s", snapshot2.String(), snapshot.String())
	}
	shutdown2()
	if err := <-done2; err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestServeMemoryOnlyShutdown covers the durability-less path: serve
// over a plain store still drains and exits cleanly.
func TestServeMemoryOnlyShutdown(t *testing.T) {
	st := ses.NewStore(ses.WithWorkers(1))
	url, shutdown, done := startServe(t, st, nil)
	doc := instanceDoc(t, 52)
	do(t, "POST", url+"/v1/sessions", createReq{Name: "mem", K: 3, Instance: doc}, http.StatusCreated, nil)
	shutdown()
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
}

// TestServeClosesStalledHeaders: a client that sends only part of a
// request line is disconnected within readHeaderTimeout instead of
// holding a connection and a goroutine forever.
func TestServeClosesStalledHeaders(t *testing.T) {
	url, shutdown, done := startServe(t, ses.NewStore(ses.WithWorkers(1)), nil)
	defer func() {
		shutdown()
		<-done
	}()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /v1/sessions HT")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 2*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection still open after %v: %v", time.Since(start).Round(time.Millisecond), err)
	}
}

// TestShutdownCancelsInFlightResolve verifies the drain path: a
// request in flight when shutdown starts is allowed to finish, and
// the daemon exits cleanly afterwards.
func TestShutdownCancelsInFlightResolve(t *testing.T) {
	dir := t.TempDir()
	d, err := ses.OpenStore(ses.WithDurability(dir), ses.WithSyncPolicy(ses.SyncNone), ses.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	url, shutdown, done := startServe(t, d.Store, d)
	doc := instanceDoc(t, 53)
	do(t, "POST", url+"/v1/sessions", createReq{Name: "busy", K: 4, Instance: doc}, http.StatusCreated, nil)

	resolved := make(chan error, 1)
	go func() {
		resp, err := http.Post(url+"/v1/sessions/busy/resolve", "application/json", nil)
		if err == nil {
			resp.Body.Close()
		}
		resolved <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the resolve reach the server
	shutdown()
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	if err := <-resolved; err != nil {
		t.Logf("in-flight resolve surfaced %v (acceptable if it raced shutdown)", err)
	}
}

// copyBody drains an http response into w.
func copyBody(w *strings.Builder, resp *http.Response) (int64, error) {
	defer resp.Body.Close()
	return io.Copy(w, resp.Body)
}

// TestRunRejectsDurabilityFlagsWithoutDataDir: tuning -sync without
// -data-dir must error out, not silently serve memory-only.
func TestRunRejectsDurabilityFlagsWithoutDataDir(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-sync", "none"}); err == nil ||
		!strings.Contains(err.Error(), "-data-dir") {
		t.Errorf("run with stray -sync: %v", err)
	}
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-checkpoint-every", "5"}); err == nil {
		t.Error("run with stray -checkpoint-every accepted")
	}
}
