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

func TestRunClusterFig(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster measurement boots replicated nodes and is seconds-long")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_cluster.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "cluster", "-quick", "-json", jsonPath}, &out); err != nil {
		t.Fatalf("cluster fig: %v\n%s", err, out.String())
	}
	var rep clusterReport
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.HostCPUs <= 0 || !rep.Quick || len(rep.Throughput) != 3 {
		t.Fatalf("cluster report implausible: %+v", rep)
	}
	for i, nodes := range []int{1, 2, 3} {
		pt := rep.Throughput[i]
		if pt.Nodes != nodes || pt.OpsPerSec <= 0 || pt.SpeedupX <= 0 {
			t.Errorf("throughput point %d implausible: %+v", i, pt)
		}
	}
	fo := rep.Failover
	if !fo.AckedPreserved || fo.AdoptedSessions <= 0 || fo.KillToPromotedMS <= 0 ||
		fo.KillToDownMS <= 0 || fo.KillToWriteMS < fo.KillToPromotedMS {
		t.Errorf("failover timeline implausible: %+v", fo)
	}
	sa := rep.SyncAck
	if sa.AsyncOpsPerSec <= 0 || sa.SyncOpsPerSec <= 0 || sa.CostX <= 0 ||
		sa.AckWaitP99MS < sa.AckWaitP50MS || sa.AckTimeouts != 0 {
		t.Errorf("sync-ack section implausible: %+v", sa)
	}
	if !strings.Contains(out.String(), "Cluster throughput") {
		t.Error("output missing the cluster throughput table")
	}

	// -verify must accept the artifact it just wrote...
	var vout bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "cluster", "-verify", "-json", jsonPath}, &vout); err != nil {
		t.Fatalf("verify of fresh artifact: %v\n%s", err, vout.String())
	}

	// ...and reject broken ones. The floor-ignored doc is schema-valid
	// but sub-floor, measured on a 1-CPU host where the floor is not
	// physical, so it passes; the floor-breach doc is the same curve
	// stamped with an 8-CPU host and must fail.
	goodFO := `"failover":{"kill_to_down_ms":30,"kill_to_promoted_ms":35,"kill_to_first_write_ms":36,"adopted_sessions":3,"acked_preserved":true}`
	goodSA := `"sync_ack":{"sessions":4,"ops":10,"async_ops_per_sec":100,"sync_ops_per_sec":80,"cost_x":1.25,"ack_wait_p50_ms":2,"ack_wait_p99_ms":8,"ack_timeouts":0}`
	flatTP := `"throughput":[{"nodes":1,"sessions":6,"ops_per_sec":100,"speedup_x":1},{"nodes":2,"sessions":6,"ops_per_sec":100,"speedup_x":1},{"nodes":3,"sessions":6,"ops_per_sec":110,"speedup_x":1.1}]`
	for name, doc := range map[string]string{
		"invalid json":  `{`,
		"bad cpus":      `{"host_cpus":0,` + flatTP + `,` + goodSA + `,` + goodFO + `}`,
		"missing point": `{"host_cpus":1,"throughput":[{"nodes":1,"ops_per_sec":1,"speedup_x":1}],` + goodSA + `,` + goodFO + `}`,
		"wrong nodes":   `{"host_cpus":1,"throughput":[{"nodes":1,"ops_per_sec":1},{"nodes":2,"ops_per_sec":1},{"nodes":4,"ops_per_sec":1}],` + goodSA + `,` + goodFO + `}`,
		"acked lost":    `{"host_cpus":1,` + flatTP + `,` + goodSA + `,"failover":{"kill_to_down_ms":30,"kill_to_promoted_ms":35,"kill_to_first_write_ms":36,"adopted_sessions":3,"acked_preserved":false}}`,
		"no promotion":  `{"host_cpus":1,` + flatTP + `,` + goodSA + `,"failover":{"adopted_sessions":0,"acked_preserved":true}}`,
		"no sync ack":   `{"host_cpus":1,` + flatTP + `,` + goodFO + `}`,
		"ack timed out": `{"host_cpus":1,` + flatTP + `,"sync_ack":{"async_ops_per_sec":100,"sync_ops_per_sec":80,"ack_timeouts":2},` + goodFO + `}`,
		"floor breach":  `{"host_cpus":8,` + flatTP + `,` + goodSA + `,` + goodFO + `}`,
		"floor ignored": `{"host_cpus":1,` + flatTP + `,` + goodSA + `,` + goodFO + `}`,
		// The throughput floor binds quick runs too.
		"quick floor breach": `{"host_cpus":8,"quick":true,` + flatTP + `,` + goodSA + `,` + goodFO + `}`,
	} {
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(context.Background(), []string{"-fig", "cluster", "-verify", "-json", bad}, &bytes.Buffer{})
		if name == "floor ignored" {
			if err != nil {
				t.Errorf("%s: %v, want accepted", name, err)
			}
		} else if err == nil {
			t.Errorf("%s: accepted, want rejected", name)
		}
	}
}

func TestClusterQuickVerifyFlagGuards(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "wal", "-quick"}, &out); err == nil {
		t.Error("-quick with -fig wal accepted")
	}
	if err := run(context.Background(), []string{"-fig", "objectives", "-verify", "-json", "../../BENCH_objective.json"}, &out); err != nil {
		t.Errorf("-verify with -fig objectives: %v", err)
	}
}
