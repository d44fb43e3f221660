package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	err := run([]string{
		"-sessions", "6", "-duration", "300ms",
		"-users", "20", "-events", "8", "-intervals", "4", "-json", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"6 sessions", "ops/sec", "mutate", "resolve", "batch", "snapshot", "report written"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 6 || rep.TotalOps == 0 || rep.OpsPerSec <= 0 {
		t.Fatalf("report implausible: %+v", rep)
	}
	for _, class := range []string{"mutate", "resolve", "batch", "snapshot"} {
		s, ok := rep.Ops[class]
		if !ok || s.Count == 0 {
			t.Errorf("class %s missing from report: %+v", class, rep.Ops)
			continue
		}
		if s.P50us <= 0 || s.P99us < s.P50us || s.MaxUs < s.P99us {
			t.Errorf("class %s latency summary inconsistent: %+v", class, s)
		}
	}
	if rep.ResolvedUtil <= 0 {
		t.Errorf("mean final utility %v, want > 0", rep.ResolvedUtil)
	}
	// Warm-up is reported separately and must never pollute the
	// steady-state classes: every driver contributes exactly one
	// warm-up resolve.
	if rep.Warmup.Count != 6 {
		t.Errorf("warmup count %d, want 6", rep.Warmup.Count)
	}
	if rep.WarmupSec <= 0 {
		t.Errorf("warmup_sec %v, want > 0", rep.WarmupSec)
	}
	if rep.Warmup.MaxUs <= 0 || rep.Warmup.MaxUs < rep.Warmup.P50us {
		t.Errorf("warmup summary inconsistent: %+v", rep.Warmup)
	}
}

// TestRunThroughPipeline drives the same workload with resolves and
// batches routed through a ses.Pipeline worker pool.
func TestRunThroughPipeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	err := run([]string{
		"-sessions", "4", "-duration", "150ms", "-resolve-workers", "2",
		"-users", "15", "-events", "6", "-intervals", "3", "-json", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ResolveWorkers != 2 || rep.TotalOps == 0 || rep.ResolvedUtil <= 0 {
		t.Fatalf("pipeline report implausible: %+v", rep)
	}
}

// TestRunDurableGroupCommit exercises the durable path under -sync
// always: concurrent drivers fsync every write and the run must still
// close cleanly with a final checkpoint.
func TestRunDurableGroupCommit(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{
		"-sessions", "4", "-duration", "150ms",
		"-users", "15", "-events", "6", "-intervals", "3",
		"-durable", dir, "-sync", "always",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "warm-up") {
		t.Errorf("output missing warm-up line:\n%s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-sessions", "0"}, &bytes.Buffer{}); err == nil {
		t.Fatal("zero sessions accepted")
	}
	if err := run([]string{"-bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunRejectsSyncWithoutDurable(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-sessions", "1", "-duration", "10ms", "-sync", "none"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-durable") {
		t.Errorf("stray -sync: %v", err)
	}
}
