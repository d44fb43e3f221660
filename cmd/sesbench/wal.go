package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"ses"
	"ses/internal/sestest"
	"ses/internal/stats"
	"ses/internal/tablefmt"
	"ses/internal/wal"
)

// latencies is the JSON shape of one measured op class.
type latencies struct {
	Count     int     `json:"count"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
	MaxUs     float64 `json:"max_us"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// summarizeLat folds per-op latencies (seconds) into the reported
// shape; throughput is sum-of-latencies based, i.e. serial ops/sec.
// An empty sample set yields the zero summary — percentiles of
// nothing are not a panic (stats.Percentile's contract) and 0/0 is
// not a NaN that would poison the JSON encoding.
func summarizeLat(lat []float64) latencies {
	if len(lat) == 0 {
		return latencies{}
	}
	sort.Float64s(lat)
	var total float64
	for _, l := range lat {
		total += l
	}
	return latencies{
		Count:     len(lat),
		P50us:     stats.PercentileSorted(lat, 50) * 1e6,
		P99us:     stats.PercentileSorted(lat, 99) * 1e6,
		MaxUs:     lat[len(lat)-1] * 1e6,
		OpsPerSec: float64(len(lat)) / total,
	}
}

// walPolicy is one sync policy's raw append and durable batch cost.
type walPolicy struct {
	Sync   string    `json:"sync"`
	Append latencies `json:"append"`
	Store  latencies `json:"store_batch"`
}

// walReport is the BENCH_wal.json document.
type walReport struct {
	Appends      int         `json:"appends"`
	PayloadBytes int         `json:"payload_bytes"`
	Batches      int         `json:"batches"`
	Policies     []walPolicy `json:"policies"`
}

// walPolicies are the sync policies the figure prices.
var walPolicies = []ses.SyncPolicy{ses.SyncAlways, ses.SyncInterval, ses.SyncNone}

// benchWAL prices the write-ahead log's fsync policies at two levels:
//
//   - raw wal.Log appends (fixed-size payloads) — what one record
//     costs at each policy, isolating fsync from solving;
//   - durable-store ApplyBatch round trips (mutation + incremental
//     resolve + logged commit stamp) — what a served write costs.
func benchWAL(ctx context.Context, out io.Writer, e env) (*walReport, error) {
	const (
		appends      = 256
		payloadBytes = 256
		batches      = 256
	)
	rep := &walReport{Appends: appends, PayloadBytes: payloadBytes, Batches: batches}

	fmt.Fprintf(out, "\n== WAL fsync policies (%d raw appends of %dB, %d durable batches) ==\n\n",
		appends, payloadBytes, batches)
	tab := &tablefmt.Table{
		Title: "Write-ahead log: what each sync policy costs",
		Header: []string{"sync", "append p50", "append p99", "append/s",
			"batch p50", "batch p99", "batch/s"},
	}

	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	inst := sestest.Random(sestest.Config{Users: 200, Events: 24, Intervals: 6, Competing: 3, Seed: e.seed})

	for _, pol := range walPolicies {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res := walPolicy{Sync: pol.String()}

		// Raw append cost.
		lat, err := appendLoad(wal.Options{Sync: pol}, appends, payload)
		if err != nil {
			return nil, err
		}
		res.Append = summarizeLat(lat)

		// Durable-store round trips.
		storeDir, err := os.MkdirTemp("", "sesbench-walstore-*")
		if err != nil {
			return nil, err
		}
		st, err := ses.OpenStore(ses.WithDurability(storeDir), ses.WithSyncPolicy(pol), ses.WithWorkers(1))
		if err != nil {
			return nil, err
		}
		if err := st.Create("bench", inst, 8); err != nil {
			return nil, err
		}
		if _, err := st.Resolve(ctx, "bench"); err != nil {
			return nil, err
		}
		lat = make([]float64, 0, batches)
		for i := 0; i < batches; i++ {
			mut := ses.UpdateInterestOp(i%inst.NumUsers, i%inst.NumEvents(), 0.1+0.8*float64(i%7)/7)
			t0 := time.Now()
			if _, err := st.ApplyBatch(ctx, "bench", []ses.Mutation{mut}); err != nil {
				return nil, err
			}
			lat = append(lat, time.Since(t0).Seconds())
		}
		st.Close()
		os.RemoveAll(storeDir)
		res.Store = summarizeLat(lat)

		rep.Policies = append(rep.Policies, res)
		tab.AddRow(res.Sync,
			fmt.Sprintf("%.1fµs", res.Append.P50us),
			fmt.Sprintf("%.1fµs", res.Append.P99us),
			fmt.Sprintf("%.0f", res.Append.OpsPerSec),
			fmt.Sprintf("%.1fµs", res.Store.P50us),
			fmt.Sprintf("%.1fµs", res.Store.P99us),
			fmt.Sprintf("%.0f", res.Store.OpsPerSec))
	}
	if err := tab.Render(out); err != nil {
		return nil, err
	}

	return rep, nil
}

// appendLoad opens a fresh log with opts, appends payload n times
// back to back and returns every append's latency in seconds.
func appendLoad(opts wal.Options, n int, payload []byte) ([]float64, error) {
	dir, err := os.MkdirTemp("", "sesbench-wal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := l.Append(payload); err != nil {
			return nil, err
		}
		lat = append(lat, time.Since(t0).Seconds())
	}
	return lat, nil
}

// checkWAL requires a measured row for every sync policy.
func checkWAL(_ io.Writer, rep *walReport) error {
	for _, pol := range walPolicies {
		found := false
		for _, p := range rep.Policies {
			if p.Sync == pol.String() {
				found = p.Append.Count > 0 && p.Store.Count > 0
			}
		}
		if !found {
			return fmt.Errorf("wal artifact: sync policy %q not measured", pol)
		}
	}
	return nil
}
