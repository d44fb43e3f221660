package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ses"
)

// scrapeSeries fetches /metrics and returns every sample keyed by its
// series as printed: the family name plus its label set.
func scrapeSeries(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces (route patterns); the value never does.
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sumFamily adds up every labeled series of one family.
func sumFamily(series map[string]float64, name string) float64 {
	var n float64
	for k, v := range series {
		if strings.HasPrefix(k, name+"{") {
			n += v
		}
	}
	return n
}

// jsonCounters is the counter half of a /v1/metrics document.
type jsonCounters struct {
	Requests, Resolves, Batches, Errors, ErrorsClient, ErrorsServer uint64
}

func countersOf(m metricsResp) jsonCounters {
	return jsonCounters{m.Requests, m.Resolves, m.Batches, m.Errors, m.ErrorsClient, m.ErrorsServer}
}

// TestErrorCountsEveryErrorResponse pins that every 4xx counts in its
// class, whichever layer wrote it: the mux's 404 and 405, the trace
// endpoint's unknown-ID 404, and a handler's store-miss 404.
func TestErrorCountsEveryErrorResponse(t *testing.T) {
	srv, _ := obsTestServer(t)
	do(t, "GET", srv.URL+"/v1/nope", nil, http.StatusNotFound, nil)
	do(t, "PUT", srv.URL+"/v1/sessions", nil, http.StatusMethodNotAllowed, nil)
	do(t, "GET", srv.URL+"/v1/traces/deadbeefdeadbeef", nil, http.StatusNotFound, nil)
	do(t, "GET", srv.URL+"/v1/sessions/absent", nil, http.StatusNotFound, nil)

	var m metricsResp
	do(t, "GET", srv.URL+"/v1/metrics", nil, http.StatusOK, &m)
	if m.ErrorsClient != 4 || m.ErrorsServer != 0 || m.Errors != 4 {
		t.Fatalf("errors = %d (client %d / server %d), want 4 (4/0)", m.Errors, m.ErrorsClient, m.ErrorsServer)
	}
	series := scrapeSeries(t, srv.URL)
	if got := series[`ses_http_errors_total{class="client"}`]; got != 4 {
		t.Errorf(`ses_http_errors_total{class="client"} = %v, want 4`, got)
	}
	if got, ok := series[`ses_http_errors_total{class="server"}`]; !ok || got != 0 {
		t.Errorf(`ses_http_errors_total{class="server"} = %v (present %v), want 0`, got, ok)
	}
}

// mixedTraffic drives create, resolve, two batches, a ?timeout resolve
// (which skips the pipeline), one 404 and one 405.
func mixedTraffic(t *testing.T, base string) {
	t.Helper()
	do(t, "POST", base+"/v1/sessions", createReq{Name: "mix", K: 3, Instance: instanceDoc(t, 13)}, http.StatusCreated, nil)
	do(t, "POST", base+"/v1/sessions/mix/resolve", nil, http.StatusOK, nil)
	for i := 0; i < 2; i++ {
		do(t, "POST", base+"/v1/sessions/mix/batch", batchReq{Mutations: []ses.Mutation{ses.UpdateInterestOp(i, 0, 0.5)}}, http.StatusOK, nil)
	}
	do(t, "POST", base+"/v1/sessions/mix/resolve?timeout=30s", nil, http.StatusOK, nil)
	do(t, "GET", base+"/v1/nope", nil, http.StatusNotFound, nil)
	do(t, "PUT", base+"/v1/sessions", nil, http.StatusMethodNotAllowed, nil)
}

// TestMetricsViewsAgree pins that /v1/metrics and /metrics are one
// source: after mixed traffic every JSON counter equals its series,
// and the same traffic with observability off gives the same JSON.
func TestMetricsViewsAgree(t *testing.T) {
	srv, _ := obsTestServer(t)
	mixedTraffic(t, srv.URL)
	var m metricsResp
	do(t, "GET", srv.URL+"/v1/metrics", nil, http.StatusOK, &m)
	want := jsonCounters{Requests: 7, Resolves: 4, Batches: 2, Errors: 2, ErrorsClient: 2}
	if got := countersOf(m); got != want {
		t.Fatalf("JSON counters = %+v, want %+v", got, want)
	}
	if lat := m.ResolveMs; !(lat["p50"] > 0 && lat["p50"] <= lat["p90"] && lat["p90"] <= lat["p99"] && lat["p99"] <= lat["max"]) {
		t.Errorf("latency percentiles out of order: %+v", lat)
	}

	series := scrapeSeries(t, srv.URL)
	for _, c := range []struct {
		what       string
		json, prom float64
	}{
		// The scrape sees the /v1/metrics call above, not itself.
		{"requests", float64(m.Requests + 1), sumFamily(series, "ses_http_requests_total")},
		{"resolves", float64(m.Resolves), series["ses_resolves_total"]},
		{"resolves (histogram count)", float64(m.Resolves), series["ses_resolve_seconds_count"]},
		{"batches", float64(m.Batches), series["ses_batches_total"]},
		{"errors_client", float64(m.ErrorsClient), series[`ses_http_errors_total{class="client"}`]},
		{"errors_server", float64(m.ErrorsServer), series[`ses_http_errors_total{class="server"}`]},
	} {
		if c.json != c.prom {
			t.Errorf("%s: JSON %v, exposition %v", c.what, c.json, c.prom)
		}
	}

	dark := testServer(t)
	mixedTraffic(t, dark.URL)
	var off metricsResp
	do(t, "GET", dark.URL+"/v1/metrics", nil, http.StatusOK, &off)
	if countersOf(off) != countersOf(m) {
		t.Errorf("-obs=false JSON counters %+v, want %+v", countersOf(off), countersOf(m))
	}
}

// TestMetricsViewsAgreeUnderConcurrency resolves from several
// goroutines while others poll both metrics endpoints; once all stop,
// both views count every request exactly.
func TestMetricsViewsAgreeUnderConcurrency(t *testing.T) {
	srv, _ := obsTestServer(t)
	do(t, "POST", srv.URL+"/v1/sessions", createReq{Name: "busy", K: 3, Instance: instanceDoc(t, 17)}, http.StatusCreated, nil)

	call := func(method, path string) (int, error) {
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	const resolvers, perResolver = 4, 10
	var polls atomic.Uint64
	stop := make(chan struct{})
	var pollers, workers sync.WaitGroup
	for i := 0; i < 2; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/v1/metrics", "/metrics"} {
					if code, err := call("GET", path); err != nil || code != http.StatusOK {
						t.Errorf("GET %s: %d %v", path, code, err)
						return
					}
					polls.Add(1)
				}
			}
		}()
	}
	for i := 0; i < resolvers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for j := 0; j < perResolver; j++ {
				if code, err := call("POST", "/v1/sessions/busy/resolve"); err != nil || code != http.StatusOK {
					t.Errorf("resolve: %d %v", code, err)
					return
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	pollers.Wait()

	var m metricsResp
	do(t, "GET", srv.URL+"/v1/metrics", nil, http.StatusOK, &m)
	const resolves = resolvers * perResolver
	want := jsonCounters{Requests: 1 + resolves + polls.Load(), Resolves: resolves}
	if got := countersOf(m); got != want {
		t.Fatalf("JSON counters = %+v, want %+v", got, want)
	}
	series := scrapeSeries(t, srv.URL)
	if got := sumFamily(series, "ses_http_requests_total"); got != float64(m.Requests+1) {
		t.Errorf("Σ ses_http_requests_total = %v, want %d", got, m.Requests+1)
	}
	for _, name := range []string{"ses_resolves_total", "ses_resolve_seconds_count"} {
		if series[name] != resolves {
			t.Errorf("%s = %v, want %d", name, series[name], resolves)
		}
	}
}

// TestRecoveryGauge: a durable daemon exports how long its store took
// to recover at boot as ses_recovery_seconds, the value the boot line
// prints; a memory daemon has no such series.
func TestRecoveryGauge(t *testing.T) {
	dir := t.TempDir()
	d, err := ses.OpenStore(ses.WithDurability(dir), ses.WithSyncPolicy(ses.SyncNone), ses.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		inst, err := instanceDoc(t, uint64(60+i)).Instance()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Create(fmt.Sprintf("s%d", i), inst, 3); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()

	o := ses.NewObservability(ses.ObservabilityOptions{})
	d, err = ses.OpenStore(ses.WithDurability(dir), ses.WithWorkers(1), ses.WithObservability(o))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Len() != 3 || d.Recovery() <= 0 {
		t.Fatalf("recovered %d sessions in %v", d.Len(), d.Recovery())
	}
	srv := httptest.NewServer(newServer(d.Store, nil, o, d, nil).routes())
	defer srv.Close()
	if got, want := scrapeSeries(t, srv.URL)["ses_recovery_seconds"], d.Recovery().Seconds(); got != want {
		t.Errorf("ses_recovery_seconds = %v, want %v", got, want)
	}

	mem, _ := obsTestServer(t)
	if v, ok := scrapeSeries(t, mem.URL)["ses_recovery_seconds"]; ok {
		t.Errorf("memory daemon exports ses_recovery_seconds = %v", v)
	}
}
