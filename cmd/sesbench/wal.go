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

// walGroupCommit is the group-commit section under SyncAlways.
type walGroupCommit struct {
	Appenders        int       `json:"appenders"`
	AppendsPer       int       `json:"appends_per_appender"`
	Lone             latencies `json:"lone_append"`
	ConcurrentSingle latencies `json:"concurrent_single_append"`
	ConcurrentGroup  latencies `json:"concurrent_group_append"`
	RecordsPerFsync  float64   `json:"records_per_fsync"`
	SpeedupX         float64   `json:"speedup_x"`
}

// walReport is the BENCH_wal.json document.
type walReport struct {
	Appends      int            `json:"appends"`
	PayloadBytes int            `json:"payload_bytes"`
	Batches      int            `json:"batches"`
	Policies     []walPolicy    `json:"policies"`
	GroupCommit  walGroupCommit `json:"group_commit"`
}

// walPolicies are the sync policies the figure prices.
var walPolicies = []ses.SyncPolicy{ses.SyncAlways, ses.SyncInterval, ses.SyncNone}

// benchWAL prices the write-ahead log's fsync policies. Three levels:
//
//   - raw wal.Log appends (fixed-size payloads) — what one record
//     costs at each policy, isolating fsync from solving;
//   - durable-store ApplyBatch round trips (mutation + incremental
//     resolve + logged commit stamp) — what a served write costs;
//   - group commit under SyncAlways — a lone appender (must keep
//     single-append latency) and concurrent appenders with and
//     without group commit (amortized fsyncs must multiply
//     throughput).
func benchWAL(ctx context.Context, out io.Writer, e env) (*walReport, error) {
	const (
		appends      = 256
		payloadBytes = 256
		batches      = 256
		gcAppenders  = 8
		gcPerAppend  = 128
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
		lat, _, _, err := appendLoad(wal.Options{Sync: pol}, 1, appends, payload)
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

	// Group commit under SyncAlways: a lone appender must keep
	// single-append latency, and concurrent appenders must amortize
	// fsyncs. Concurrent throughput is wall-clock based (per-op
	// latencies overlap across appenders).
	gc := &rep.GroupCommit
	gc.Appenders, gc.AppendsPer = gcAppenders, gcPerAppend
	grouped := wal.Options{Sync: ses.SyncAlways, GroupCommit: wal.GroupCommit{Enabled: true}}
	lat, _, _, err := appendLoad(grouped, 1, appends, payload)
	if err != nil {
		return nil, err
	}
	gc.Lone = summarizeLat(lat)

	concurrent := func(opts wal.Options) (latencies, wal.Stats, error) {
		lat, wall, st, err := appendLoad(opts, gcAppenders, gcPerAppend, payload)
		if err != nil {
			return latencies{}, st, err
		}
		res := summarizeLat(lat)
		res.OpsPerSec = float64(len(lat)) / wall
		return res, st, nil
	}
	var gcStats wal.Stats
	if gc.ConcurrentSingle, _, err = concurrent(wal.Options{Sync: ses.SyncAlways}); err != nil {
		return nil, err
	}
	if gc.ConcurrentGroup, gcStats, err = concurrent(grouped); err != nil {
		return nil, err
	}
	gc.RecordsPerFsync = gcStats.RecordsPerFsync()
	if gc.ConcurrentSingle.OpsPerSec > 0 {
		gc.SpeedupX = gc.ConcurrentGroup.OpsPerSec / gc.ConcurrentSingle.OpsPerSec
	}

	fmt.Fprintf(out, "\n== group commit (sync=always, %d appenders × %d appends) ==\n\n", gcAppenders, gcPerAppend)
	fmt.Fprintf(out, "  lone appender      p50 %8.1fµs  p99 %8.1fµs (single-append latency preserved)\n",
		gc.Lone.P50us, gc.Lone.P99us)
	fmt.Fprintf(out, "  concurrent single  %8.0f appends/s\n", gc.ConcurrentSingle.OpsPerSec)
	fmt.Fprintf(out, "  concurrent grouped %8.0f appends/s  (%.1f× , %.1f records/fsync)\n",
		gc.ConcurrentGroup.OpsPerSec, gc.SpeedupX, gc.RecordsPerFsync)
	return rep, nil
}

// checkWAL requires a measured row for every sync policy and a
// measured group-commit section.
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
	gc := rep.GroupCommit
	if gc.Appenders <= 0 || gc.Lone.Count == 0 || gc.ConcurrentSingle.OpsPerSec <= 0 ||
		gc.ConcurrentGroup.OpsPerSec <= 0 || gc.RecordsPerFsync <= 0 {
		return fmt.Errorf("wal artifact: group-commit section not measured (%+v)", gc)
	}
	return nil
}
