package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ses/internal/cluster"
)

// TestParsePeers: the -peers spec the router fronts parses to the
// expected membership, and run refuses every malformed spec before it
// opens a listener.
func TestParsePeers(t *testing.T) {
	peers, err := cluster.ParsePeers("n1=http://a:1, n2=http://b:2/")
	if err != nil {
		t.Fatal(err)
	}
	if peers["n1"] != "http://a:1" || peers["n2"] != "http://b:2" {
		t.Errorf("ParsePeers = %v", peers)
	}
	// A cancelled context makes a wrongly accepted spec return at once
	// instead of serving.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, bad := range []string{"", "n1", "n1=", "=u", "a=1,a=2"} {
		if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-peers", bad}); err == nil {
			t.Errorf("run accepted -peers %q", bad)
		}
	}
}

// freeAddr reserves an ephemeral port and releases it for the daemon
// to claim. The tiny window between close and rebind is fine in a
// test process that owns the machine's test run.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRouterDaemonFrontsCluster boots the real daemon main loop over
// two stub nodes and checks it proxies reads, reports status, and
// shuts down cleanly on ctx cancel.
func TestRouterDaemonFrontsCluster(t *testing.T) {
	node := func(id string) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/replication/status", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"id":%q,"ready":true}`, id)
		})
		mux.HandleFunc("/v1/sessions/", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"node":%q}`, id)
		})
		return httptest.NewServer(mux)
	}
	n1 := node("n1")
	defer n1.Close()
	n2 := node("n2")
	defer n2.Close()

	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", addr,
			"-peers", "n1=" + n1.URL + ",n2=" + n2.URL,
			"-health-interval", "10ms",
		})
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("router never shut down")
		}
	})

	url := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/router/status")
		if err == nil {
			var st struct {
				Nodes map[string]string `json:"nodes"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil && st.Nodes["n1"] == "up" && st.Nodes["n2"] == "up" {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("router never reported both nodes up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(url + "/v1/sessions/any-session")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["node"] != "n1" && out["node"] != "n2" {
		t.Errorf("proxied read answered by %v", out["node"])
	}
}

// TestRouterClosesStalledHeaders: a client that sends only part of a
// request line is disconnected within readHeaderTimeout instead of
// holding a connection and a goroutine forever.
func TestRouterClosesStalledHeaders(t *testing.T) {
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", addr, "-peers", "n1=http://127.0.0.1:1"}) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()
	var conn net.Conn
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var err error
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never listened: %v", err)
		}
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /v1/router/status HT")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 2*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection still open after %v: %v", time.Since(start).Round(time.Millisecond), err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), nil); err == nil {
		t.Error("run without -peers accepted")
	}
}
