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

func TestRunObsFig(t *testing.T) {
	if testing.Short() {
		t.Skip("obs measurement runs the pipelined workload twice per round")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_obs.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "obs", "-quick", "-json", jsonPath}, &out); err != nil {
		t.Fatalf("obs fig: %v\n%s", err, out.String())
	}
	var rep obsReport
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.HostCPUs <= 0 || !rep.Quick {
		t.Fatalf("obs report implausible: %+v", rep)
	}
	tp := rep.Throughput
	if tp.OffOpsPerSec <= 0 || tp.OnOpsPerSec <= 0 || tp.Sessions != 4 || tp.Ops != 30 {
		t.Errorf("throughput section implausible: %+v", tp)
	}
	tr := rep.TraceRing
	if tr.Spans != 20_000 || tr.NsPerSpan <= 0 || tr.SpansPerSec <= 0 || tr.RingLen <= 0 || tr.RingLen > 512 {
		t.Errorf("trace-ring section implausible: %+v", tr)
	}
	fo := rep.Fanout
	if fo.Subscribers != 8 || fo.Events != 2_000 || fo.EventsPerSec <= 0 || fo.Delivered == 0 || fo.Evicted == 0 {
		t.Errorf("fan-out section implausible: %+v", fo)
	}
	if !strings.Contains(out.String(), "throughput: off") || !strings.Contains(out.String(), "trace ring:") {
		t.Errorf("output missing measurement lines:\n%s", out.String())
	}

	// -verify must accept the artifact it just wrote...
	var vout bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "obs", "-verify", "-json", jsonPath}, &vout); err != nil {
		t.Fatalf("verify of fresh artifact: %v\n%s", err, vout.String())
	}

	// ...and reject broken ones. The overhead floor applies only to
	// non-quick artifacts measured on >= obsFloorCores CPUs: the same
	// 12% curve passes stamped 1-CPU ("floor ignored") or quick, and
	// fails stamped as a deliberate 8-CPU measurement.
	goodTP := `"throughput":{"sessions":4,"ops":30,"off_ops_per_sec":100,"on_ops_per_sec":88,"overhead_pct":12}`
	goodTR := `"trace_ring":{"spans":100,"ns_per_span":500,"spans_per_sec":2000000,"ring_len":512}`
	goodFO := `"fanout":{"subscribers":8,"events":100,"events_per_sec":1000,"delivered":800,"evicted":1}`
	for name, doc := range map[string]string{
		"invalid json":  `{`,
		"bad cpus":      `{"host_cpus":0,` + goodTP + `,` + goodTR + `,` + goodFO + `}`,
		"no throughput": `{"host_cpus":1,` + goodTR + `,` + goodFO + `}`,
		"no trace ring": `{"host_cpus":1,` + goodTP + `,` + goodFO + `}`,
		"no fan-out":    `{"host_cpus":1,` + goodTP + `,` + goodTR + `}`,
		"never evicted": `{"host_cpus":1,` + goodTP + `,` + goodTR + `,"fanout":{"events_per_sec":1000,"delivered":800,"evicted":0}}`,
		// The fan-out numbers committed before every subscriber was
		// kept live: 16 subscribers all evicted after their 1024-event
		// buffers filled, so most of the 20000 events reached nobody.
		"fan-out short":  `{"host_cpus":1,` + goodTP + `,` + goodTR + `,"fanout":{"subscribers":8,"events":100,"events_per_sec":1000,"delivered":700,"evicted":1}}`,
		"extra eviction": `{"host_cpus":1,` + goodTP + `,` + goodTR + `,"fanout":{"subscribers":8,"events":100,"events_per_sec":1000,"delivered":800,"evicted":2}}`,
		"all evicted":    `{"host_cpus":1,` + goodTP + `,` + goodTR + `,"fanout":{"subscribers":16,"events":20000,"events_per_sec":11658993.106037376,"delivered":16384,"evicted":17}}`,
		"floor breach":   `{"host_cpus":8,` + goodTP + `,` + goodTR + `,` + goodFO + `}`,
		"floor ignored":  `{"host_cpus":1,` + goodTP + `,` + goodTR + `,` + goodFO + `}`,
		"quick skips":    `{"host_cpus":8,"quick":true,` + goodTP + `,` + goodTR + `,` + goodFO + `}`,
	} {
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(context.Background(), []string{"-fig", "obs", "-verify", "-json", bad}, &bytes.Buffer{})
		switch name {
		case "floor ignored", "quick skips":
			if err != nil {
				t.Errorf("%s: %v, want accepted", name, err)
			}
		default:
			if err == nil {
				t.Errorf("%s: accepted, want rejected", name)
			}
		}
	}
}
