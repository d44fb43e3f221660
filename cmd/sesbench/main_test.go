package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The sweeps at -scale small with tiny rep counts keep this fast
// enough for the regular test run while exercising the whole harness
// path end to end.

func TestRunFig1aSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long")
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "1a", "-scale", "small", "-reps", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Fig 1a: Utility vs k",
		"Fig 1b: Time vs k",
		"Scheduled events",
		"grd", "top", "rand",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunCSVOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "1c", "-scale", "small", "-reps", "1", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig1c.csv", "fig1d.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !strings.Contains(string(data), "grd") {
			t.Errorf("%s lacks algorithm columns", f)
		}
	}
}

func TestRunEnginesFig(t *testing.T) {
	if testing.Short() {
		t.Skip("microbenchmarks are seconds-long")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_engine.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "engines", "-scale", "small", "-json", jsonPath}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Score/sparse", "Score/dense", "IntervalUtility/sparse", "ns_per_op", "allocs_per_op"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("BENCH_engine.json missing %q", want)
		}
	}
	if !strings.Contains(out.String(), "wrote "+jsonPath) {
		t.Error("output does not mention the JSON file")
	}
}

func TestRunResolveFig(t *testing.T) {
	if testing.Short() {
		t.Skip("session benchmark is seconds-long")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_resolve.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "resolve", "-scale", "small", "-json", jsonPath}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"update_interest", "add_event", "add_competing", "cancel_event", "pin_event",
		"initial_scores", "\"utility_match\": true",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("BENCH_resolve.json missing %q", want)
		}
	}
	if strings.Contains(string(data), "\"utility_match\": false") {
		t.Error("a scenario's utilities diverged")
	}
	if !strings.Contains(out.String(), "incremental Resolve vs from-scratch") {
		t.Error("output missing the resolve table")
	}
}

func TestRunWALFig(t *testing.T) {
	if testing.Short() {
		t.Skip("fsync benchmark is seconds-long")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_wal.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "wal", "-json", jsonPath}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\"always\"", "\"interval\"", "\"none\"",
		"\"append\"", "\"store_batch\"", "p50_us", "p99_us", "ops_per_sec",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("BENCH_wal.json missing %q", want)
		}
	}
	if !strings.Contains(out.String(), "WAL fsync policies") {
		t.Error("output missing the WAL table")
	}
}

func TestRunScalingFig(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement is seconds-long")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_scaling.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "scaling", "-quick", "-json", jsonPath}, &out); err != nil {
		t.Fatal(err)
	}
	var rep scalingReport
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.HostCPUs <= 0 || !rep.Quick || len(rep.Points) != 4 {
		t.Fatalf("scaling report implausible: %+v", rep)
	}
	for i, procs := range []int{1, 2, 4, 8} {
		pt := rep.Points[i]
		if pt.GoMaxProcs != procs || pt.EngineSolvesPerSec <= 0 || pt.StoreResolvesPerSec <= 0 {
			t.Errorf("point %d implausible: %+v", i, pt)
		}
	}
	if !strings.Contains(out.String(), "Scaling curve") {
		t.Error("output missing the scaling curve table")
	}

	// -verify must accept the artifact it just wrote...
	var vout bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "scaling", "-verify", "-json", jsonPath}, &vout); err != nil {
		t.Fatalf("verify of fresh artifact: %v", err)
	}
	// ...and reject schema-broken ones.
	for name, doc := range map[string]string{
		"no points":     `{"host_cpus": 4, "points": []}`,
		"bad cpus":      `{"host_cpus": 0, "points": []}`,
		"wrong procs":   `{"host_cpus": 4, "points": [{"gomaxprocs":1},{"gomaxprocs":3},{"gomaxprocs":4},{"gomaxprocs":8}]}`,
		"zero figure":   `{"host_cpus": 1, "points": [{"gomaxprocs":1,"engine_solves_per_sec":1,"store_resolves_per_sec":0},{"gomaxprocs":2},{"gomaxprocs":4},{"gomaxprocs":8}]}`,
		"invalid json":  `{`,
		"floor breach":  `{"host_cpus": 8, "points": [{"gomaxprocs":1,"engine_solves_per_sec":1,"store_resolves_per_sec":100},{"gomaxprocs":2,"engine_solves_per_sec":1,"store_resolves_per_sec":100},{"gomaxprocs":4,"engine_solves_per_sec":1,"store_resolves_per_sec":150},{"gomaxprocs":8,"engine_solves_per_sec":1,"store_resolves_per_sec":150}]}`,
		"floor ignored": `{"host_cpus": 1, "points": [{"gomaxprocs":1,"engine_solves_per_sec":1,"store_resolves_per_sec":100},{"gomaxprocs":2,"engine_solves_per_sec":1,"store_resolves_per_sec":100},{"gomaxprocs":4,"engine_solves_per_sec":1,"store_resolves_per_sec":150},{"gomaxprocs":8,"engine_solves_per_sec":1,"store_resolves_per_sec":150}]}`,
		// The store floor binds quick runs too.
		"quick floor breach": `{"host_cpus": 8, "quick": true, "points": [{"gomaxprocs":1,"engine_solves_per_sec":1,"store_resolves_per_sec":100},{"gomaxprocs":2,"engine_solves_per_sec":1,"store_resolves_per_sec":100},{"gomaxprocs":4,"engine_solves_per_sec":1,"store_resolves_per_sec":150},{"gomaxprocs":8,"engine_solves_per_sec":1,"store_resolves_per_sec":150}]}`,
	} {
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(context.Background(), []string{"-fig", "scaling", "-verify", "-json", bad}, &bytes.Buffer{})
		if name == "floor ignored" {
			// Sub-floor curve measured on a 1-CPU host: schema-valid,
			// floor not physical there, so verify passes.
			if err != nil {
				t.Errorf("%s: %v, want accepted", name, err)
			}
		} else if err == nil {
			t.Errorf("%s: accepted, want rejected", name)
		}
	}
}

func TestRunScaleFig(t *testing.T) {
	if testing.Short() {
		t.Skip("scale measurement is seconds-long")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_scale.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "scale", "-quick", "-json", jsonPath}, &out); err != nil {
		t.Fatal(err)
	}
	var rep scaleReport
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.HostCPUs <= 0 || !rep.Quick || len(rep.Points) != 2 {
		t.Fatalf("scale report implausible: %+v", rep)
	}
	for i, pt := range rep.Points {
		if pt.Users <= 0 || pt.CandNNZ <= 0 || pt.Utility <= 0 ||
			pt.SparseColdMs <= 0 || pt.PrunedColdMs <= 0 || pt.SparseWarmMs <= 0 || pt.PrunedWarmMs <= 0 {
			t.Errorf("point %d implausible: %+v", i, pt)
		}
	}
	if !strings.Contains(out.String(), "Resolve latency vs users") {
		t.Error("output missing the latency table")
	}

	// -verify must accept the artifact it just wrote...
	var vout bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "scale", "-verify", "-json", jsonPath}, &vout); err != nil {
		t.Fatalf("verify of fresh artifact: %v", err)
	}
	// ...and reject schema-broken or floor-breaching ones.
	goodPt := `{"users":10000,"cand_nnz":1,"sparse_cold_ms":1,"pruned_cold_ms":1,"sparse_warm_ms":10,"pruned_warm_ms":10,"utility":1}`
	for name, doc := range map[string]string{
		"no points":    `{"host_cpus": 4, "points": []}`,
		"bad cpus":     `{"host_cpus": 0, "points": []}`,
		"one point":    `{"host_cpus": 4, "points": [` + goodPt + `]}`,
		"not sorted":   `{"host_cpus": 4, "quick": true, "points": [` + goodPt + `,` + goodPt + `]}`,
		"zero latency": `{"host_cpus": 4, "quick": true, "points": [` + goodPt + `,{"users":100000,"cand_nnz":1,"sparse_cold_ms":1,"pruned_cold_ms":1,"sparse_warm_ms":0,"pruned_warm_ms":10,"utility":1}]}`,
		"invalid json": `{`,
		"wrong sizes":  `{"host_cpus": 1, "points": [` + goodPt + `,{"users":100000,"cand_nnz":1,"sparse_cold_ms":1,"pruned_cold_ms":1,"sparse_warm_ms":1,"pruned_warm_ms":1,"utility":1}]}`,
		// Full-size artifact from an 8-CPU host whose pruned warm
		// latency grew linearly with users: sublinearity floor breach.
		"superlinear": `{"host_cpus": 8, "points": [` + goodPt + `,
			{"users":100000,"cand_nnz":1,"sparse_cold_ms":1,"pruned_cold_ms":1,"sparse_warm_ms":100,"pruned_warm_ms":100,"utility":1},
			{"users":1000000,"cand_nnz":1,"sparse_cold_ms":1,"pruned_cold_ms":1,"sparse_warm_ms":1500,"pruned_warm_ms":1000,"utility":1}]}`,
		// Same shape, but measured on a 1-CPU host: floor not enforced.
		"floor ignored": `{"host_cpus": 1, "points": [` + goodPt + `,
			{"users":100000,"cand_nnz":1,"sparse_cold_ms":1,"pruned_cold_ms":1,"sparse_warm_ms":100,"pruned_warm_ms":100,"utility":1},
			{"users":1000000,"cand_nnz":1,"sparse_cold_ms":1,"pruned_cold_ms":1,"sparse_warm_ms":1500,"pruned_warm_ms":1000,"utility":1}]}`,
		// Same shape from an 8-CPU host, but a quick run: floors do not
		// bind quick scale artifacts.
		"quick superlinear": `{"host_cpus": 8, "quick": true, "points": [` + goodPt + `,
			{"users":100000,"cand_nnz":1,"sparse_cold_ms":1,"pruned_cold_ms":1,"sparse_warm_ms":100,"pruned_warm_ms":100,"utility":1},
			{"users":1000000,"cand_nnz":1,"sparse_cold_ms":1,"pruned_cold_ms":1,"sparse_warm_ms":1500,"pruned_warm_ms":1000,"utility":1}]}`,
	} {
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(context.Background(), []string{"-fig", "scale", "-verify", "-json", bad}, &bytes.Buffer{})
		if name == "floor ignored" || name == "quick superlinear" {
			if err != nil {
				t.Errorf("%s: %v, want accepted", name, err)
			}
		} else if err == nil {
			t.Errorf("%s: accepted, want rejected", name)
		}
	}
}

func TestRunParallelFlagsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long")
	}
	// -workers and -par must leave the utility tables unchanged.
	var serial, parallel bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "1a", "-scale", "small", "-reps", "1", "-workers", "1", "-par", "1"}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-fig", "1a", "-scale", "small", "-reps", "1", "-workers", "4", "-par", "3"}, &parallel); err != nil {
		t.Fatal(err)
	}
	// Compare the utility table block: find it by title, then take
	// rows until the blank line.
	extract := func(s string) string {
		idx := strings.Index(s, "Fig 1a: Utility vs k")
		if idx < 0 {
			return ""
		}
		rest := s[idx:]
		if end := strings.Index(rest, "\n\n"); end >= 0 {
			rest = rest[:end]
		}
		return rest
	}
	a, b := extract(serial.String()), extract(parallel.String())
	if a == "" || a != b {
		t.Errorf("utility tables differ between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-fig", "9z"},
		{"-scale", "galactic"},
		{"-algos", "none"},
		{"-wat"},
		{"-fig", "1a", "-json", "x.json"},
		{"-fig", "sens", "-verify"},
		{"-fig", "resolve", "-quick"},
		{"-fig", "engines", "-json", filepath.Join("no-such-dir", "x.json")},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
