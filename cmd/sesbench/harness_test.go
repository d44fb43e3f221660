package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedArtifactsVerify: every BENCH_*.json that sesbench
// writes, as committed at the repository root, passes -verify.
func TestCommittedArtifactsVerify(t *testing.T) {
	for _, f := range figures {
		path := filepath.Join("..", "..", f.artifact)
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-fig", f.name, "-verify", "-json", path}, &out); err != nil {
			t.Errorf("-fig %s -verify %s: %v\n%s", f.name, path, err, out.String())
		}
	}
}

// TestVerifyRejectsBrokenArtifacts covers the checks of the figures
// whose tests only measure: objectives, resolve and wal.
func TestVerifyRejectsBrokenArtifacts(t *testing.T) {
	rows := func(labels ...string) string {
		var rs []string
		for _, l := range labels {
			for _, op := range microOps {
				rs = append(rs, fmt.Sprintf(`{"name":%q,"ns_per_op":10}`, op+"/"+l))
			}
		}
		return `{"benchmarks":[` + strings.Join(rs, ",") + `]}`
	}
	scenario := func(match bool, inc, scratch int) string {
		return fmt.Sprintf(`{"scenarios":[{"name":"update_interest","utility_match":%v,`+
			`"incremental":{"initial_scores":%d,"utility":5},"scratch":{"initial_scores":%d,"utility":5}}]}`, match, inc, scratch)
	}
	policy := func(sync string) string {
		return `{"sync":"` + sync + `","append":{"count":4},"store_batch":{"count":4}}`
	}
	for _, tc := range []struct {
		name, fig, doc string
		ok             bool
	}{
		{"objectives ok", "objectives", rows("omega", "attendance:0.5", "fairness:0.5"), true},
		{"objectives invalid json", "objectives", `{`, false},
		{"objectives missing fairness", "objectives", rows("omega", "attendance:0.5"), false},
		{"objectives zero ns/op", "objectives", strings.Replace(rows("omega", "attendance:0.5", "fairness:0.5"), `"ns_per_op":10`, `"ns_per_op":0`, 1), false},
		{"resolve ok", "resolve", scenario(true, 75, 7500), true},
		{"resolve no scenarios", "resolve", `{"scenarios":[]}`, false},
		{"resolve diverged", "resolve", scenario(false, 75, 7500), false},
		{"resolve no saving", "resolve", scenario(true, 7500, 7500), false},
		{"wal ok", "wal", `{"policies":[` + policy("always") + `,` + policy("interval") + `,` + policy("none") + `]}`, true},
		{"wal missing none", "wal", `{"policies":[` + policy("always") + `,` + policy("interval") + `]}`, false},
		{"wal always unmeasured", "wal", `{"policies":[` + strings.Replace(policy("always"), `"count":4`, `"count":0`, 1) + `,` + policy("interval") + `,` + policy("none") + `]}`, false},
	} {
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(context.Background(), []string{"-fig", tc.fig, "-verify", "-json", path}, &bytes.Buffer{})
		if tc.ok && err != nil {
			t.Errorf("%s: %v, want accepted", tc.name, err)
		} else if !tc.ok && err == nil {
			t.Errorf("%s: accepted, want rejected", tc.name)
		}
	}
}
