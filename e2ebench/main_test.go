package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ses"
	"ses/internal/core"
	"ses/internal/session"
	"ses/internal/store"
)

// TestChecksFire feeds every output check a response with a wrong
// utility and expects it to fail, and the right one and expects it to
// pass.
func TestChecksFire(t *testing.T) {
	sched := map[int]int{3: 1, 5: 0}
	good := scheduleResp{Utility: 12.5, Assignments: []core.Assignment{{Event: 3, Interval: 1}, {Event: 5, Interval: 0}}}
	if err := checkRead("s", 12.5, sched, good); err != nil {
		t.Fatalf("checkRead on the committed answer: %v", err)
	}
	bad := good
	bad.Utility = 12.25
	if checkRead("s", 12.5, sched, bad) == nil {
		t.Error("checkRead accepted a wrong utility")
	}
	moved := scheduleResp{Utility: 12.5, Assignments: []core.Assignment{{Event: 3, Interval: 2}, {Event: 5, Interval: 0}}}
	if checkRead("s", 12.5, sched, moved) == nil {
		t.Error("checkRead accepted a schedule the write did not commit")
	}

	committed := map[float64]bool{10: true, 12.5: true}
	if err := checkReplicaRead("s", committed, 10); err != nil {
		t.Fatalf("checkReplicaRead on an older committed utility: %v", err)
	}
	if checkReplicaRead("s", committed, 11) == nil {
		t.Error("checkReplicaRead accepted a utility never committed")
	}

	if err := checkFirstResolve("s", 7, 7); err != nil {
		t.Fatalf("checkFirstResolve on the GRD utility: %v", err)
	}
	if checkFirstResolve("s", 7, 7.000001) == nil {
		t.Error("checkFirstResolve accepted a wrong utility")
	}

	m := &model{name: "s", batches: 4}
	if err := checkAcked([]store.Meta{{Name: "s", Batches: 4}}, []*model{m}); err != nil {
		t.Fatalf("checkAcked on a complete list: %v", err)
	}
	if checkAcked([]store.Meta{{Name: "s", Batches: 3}}, []*model{m}) == nil {
		t.Error("checkAcked accepted a lost acknowledged batch")
	}
	if checkAcked(nil, []*model{m}) == nil {
		t.Error("checkAcked accepted a missing session")
	}
}

// TestCheckScratchFires runs the end-of-run from-scratch check on a
// real snapshot.
func TestCheckScratchFires(t *testing.T) {
	ctx := context.Background()
	in, err := makeInputs(ctx, spec{docs: 1, inst: paper(200, 6)}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := session.New(in.docs[0].inst, 6, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ses.NewSnapshot("s", s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ses.EncodeSnapshot(&buf, doc); err != nil {
		t.Fatal(err)
	}
	if err := checkScratch(ctx, "s", buf.Bytes(), d.Utility); err != nil {
		t.Fatalf("checkScratch on the committed utility: %v", err)
	}
	if checkScratch(ctx, "s", buf.Bytes(), d.Utility+1e-9) == nil {
		t.Error("checkScratch accepted a wrong utility")
	}
}

// TestModelStepsValid draws a long step stream and applies it to a
// real session: every mutation must apply, so no step of a run fails
// by construction.
func TestModelStepsValid(t *testing.T) {
	ctx := context.Background()
	in, err := makeInputs(ctx, spec{docs: 1, inst: paper(200, 6)}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := session.New(in.docs[0].inst, 6, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := newModel("s", 9, in.docs[0])
	d, err := s.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m.commitDelta(d)
	ops := map[store.Op]int{}
	for i := 0; i < 400; i++ {
		mut := m.next()
		ops[mut.Op]++
		id, err := mut.ApplyTo(s)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, mut.Op, err)
		}
		res := &store.BatchResult{}
		if mut.Op == store.OpAddEvent {
			res.EventIDs = []int{id}
		}
		if res.Delta, err = s.Resolve(ctx); err != nil {
			t.Fatal(err)
		}
		m.commit(mut, res)
		if err := checkRead("s", s.Utility(), m.sched, scheduleResp{Utility: s.Utility(), Assignments: s.Schedule()}); err != nil {
			t.Fatalf("step %d: model diverged from the session: %v", i, err)
		}
	}
	for _, op := range []store.Op{store.OpUpdateInterest, store.OpAddEvent, store.OpAddCompeting, store.OpCancelEvent, store.OpPin, store.OpUnpin} {
		if ops[op] == 0 {
			t.Errorf("400 steps drew no %s", op)
		}
	}
}

// TestChecksResumeAfterFailedWrite runs edit steps against a stub
// daemon whose first write fails and whose later read shows a utility
// no write committed: the failed write resyncs the model from the
// primary, and the wrong read after it must still fail the run.
func TestChecksResumeAfterFailedWrite(t *testing.T) {
	ctx := context.Background()
	in, err := makeInputs(ctx, spec{docs: 1, inst: paper(200, 6)}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var writes, reads int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/batch"):
			writes++
			if writes == 1 {
				http.Error(w, "boom", http.StatusInternalServerError)
				return
			}
			json.NewEncoder(w).Encode(store.BatchResult{Delta: &session.Delta{Utility: 6}})
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/schedule"):
			reads++
			// The resync read answers 5; the read after the next write,
			// which committed 6, answers 7.
			json.NewEncoder(w).Encode(scheduleResp{Utility: float64(3 + 2*reads)})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	dep := &deployment{nodes: []*proc{{url: srv.URL}}, front: srv.URL}
	rd := &round{in: in, dep: dep, recs: make([][]stepRec, 1), models: []*model{newModel("s", 1, in.docs[0])}}
	c := newClient(0, time.Now())
	defer c.close()
	c.counting = true
	rec, err := rd.step(ctx, c, 0, 0)
	if err != nil {
		t.Fatalf("step with the failed write: %v", err)
	}
	m := rd.models[0]
	if rec.writeOK || !rec.readOK || m.stale || m.utility != 5 || !m.committed[5] {
		t.Fatalf("failed write did not resync the model: rec %+v, stale %v, utility %v", rec, m.stale, m.utility)
	}
	if _, err := rd.step(ctx, c, 1, 1); err == nil || !strings.Contains(err.Error(), "read utility 7") {
		t.Fatalf("wrong read after a resync: got %v, want a check failure", err)
	}
	if c.attempted != 4 || c.failed != 1 {
		t.Errorf("attempted %d, failed %d; want 4 and 1", c.attempted, c.failed)
	}
}

// TestBenchmarkJSON checks that the result line carries exactly the
// metrics BENCHMARK.json lists, and that the workloads match.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if i < len(specs) && w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, specs[i].name)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		names  []string
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.listed) != len(c.names) {
			t.Errorf("BENCHMARK.json lists %d metrics, the result line carries %d", len(c.listed), len(c.names))
			continue
		}
		for i, m := range c.listed {
			if m.Name != c.names[i] {
				t.Errorf("metric %d is %q in BENCHMARK.json, %q here", i, m.Name, c.names[i])
			}
		}
	}
}

// TestWorkloadsReport runs every workload for a few steps, untraced and
// traced, against freshly built daemons and checks that every metric
// is reported with its unit.
func TestWorkloadsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemons")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "ses/cmd/sesd", "ses/cmd/sesrouter")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the daemons: %v\n%s", err, out)
	}
	units := benchmarkUnits(t)
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			t.Run(sp.name+map[bool]string{false: "", true: "-trace"}[trace], func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
				defer cancel()
				cfg := config{workload: sp.name, seed: 5, seconds: 1, trace: trace, bin: bin, work: t.TempDir(),
					commit: "test", steps: 12, rounds: 2}
				var out bytes.Buffer
				if err := run(ctx, cfg, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				names := endToEnd
				if trace {
					names = perLayer
				}
				if len(res.Metrics) != len(names) {
					t.Errorf("result carries %d metrics, want %d", len(res.Metrics), len(names))
				}
				for _, n := range names {
					m, ok := res.Metrics[n]
					if !ok || m.Unit == "" {
						t.Errorf("metric %s missing or without unit: %+v", n, m)
						continue
					}
					if want := units[n]; m.Unit != want {
						t.Errorf("metric %s unit %q, want %q", n, m.Unit, want)
					}
				}
				// The report before the result line names every metric
				// with its unit and sample count, the ungated ones included.
				var rep report
				end := slices.Index(lines, "}")
				if end < 0 {
					t.Fatal("no report before the result line")
				}
				body := strings.Join(lines[:end+1], "\n")
				if err := json.Unmarshal([]byte(body), &rep); err != nil {
					t.Fatalf("report: %v", err)
				}
				want := append([]string(nil), names...)
				if !trace {
					want = append(want, "error_share", "write_p99_ms", "read_p50_ms", "read_p90_ms", "read_p99_ms", "cpu_ms_per_op")
				}
				for _, n := range want {
					if m, ok := rep.Metrics[n]; !ok || m.Unit == "" || (m.Value != nil && m.Samples == 0 && !trace) {
						t.Errorf("report lacks %s with unit and sample count: %+v", n, m)
					}
				}
				if rep.Meta.NProc < 1 || rep.Meta.GoVersion == "" || rep.Meta.Seed != 5 || len(rep.Meta.Daemons["sesd"]) == 0 {
					t.Errorf("run metadata incomplete: %+v", rep.Meta)
				}
				if sp.create && rep.Meta.PoolSize != sp.docs {
					t.Errorf("pool size %d, want %d", rep.Meta.PoolSize, sp.docs)
				}
			})
		}
	}
}

// benchmarkUnits maps every metric BENCHMARK.json lists to its unit.
func benchmarkUnits(t *testing.T) map[string]string {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(bj.EndToEnd, bj.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return units
}
