// Command seswal inspects the write-ahead log a durable session
// store (ses.OpenStore, sesd -data-dir) leaves on disk — offline,
// read-only, without starting a daemon.
//
// Usage:
//
//	seswal ls     DIR            list shards: checkpoint, segments, record counts
//	seswal verify DIR            parse everything; report torn tails and corruption
//	seswal dump   [-full] DIR    print records as JSON lines (-full embeds snapshots)
//	seswal stats  [-metrics URL] DIR
//	                             aggregate record/segment/byte accounting; with
//	                             -metrics, the live daemon's append/fsync counters
//	                             (records per fsync) and, when the daemon
//	                             replicates, the replication section (records
//	                             shipped/applied, follower lag)
//	seswal tail   [-shard N] [-from SEQ:OFF] [-n N] [-full] DIR
//	                             follow the log live, printing records as they
//	                             commit (the same stream a cluster follower
//	                             applies); -from resumes a shard from a cursor,
//	                             -n exits after N records
//
// DIR is the store's data directory (the one holding shard-NN
// subdirectories). Exit status: 0 when every record parses (torn
// tails at segment ends are reported but are legitimate crash
// artifacts, not corruption), 1 when a record or checkpoint fails to
// decode.
//
// Fsync counts are process-lifetime counters, not on-disk state (the
// log's bytes are the same under every sync policy), so seswal stats
// reports the on-disk shape offline and fetches the live fsync
// counters from a running sesd's /v1/metrics when -metrics is given.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ses/internal/cluster"
	"ses/internal/store"
	"ses/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "seswal:", err)
		os.Exit(1)
	}
}

var shardDirRe = regexp.MustCompile(`^shard-(\d\d)$`)

// shardLogs finds the shard log directories under a data dir, sorted
// by shard index.
func shardLogs(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var shards []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m := shardDirRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		shards = append(shards, n)
	}
	sort.Ints(shards)
	if len(shards) == 0 {
		return nil, fmt.Errorf("no shard-NN directories under %s (is this a sesd -data-dir?)", dir)
	}
	return shards, nil
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: seswal <ls|verify|dump> [flags] DIR")
	}
	verb, rest := args[0], args[1:]
	fs := flag.NewFlagSet("seswal "+verb, flag.ContinueOnError)
	full := fs.Bool("full", false, "dump/tail: embed full session snapshots instead of summaries")
	metricsURL := fs.String("metrics", "", "stats: fetch live append/fsync counters from this sesd base URL or /v1/metrics endpoint")
	tailShard := fs.Int("shard", -1, "tail: follow only this shard (default: all shards)")
	tailFrom := fs.String("from", "", "tail: resume cursor SEQ:OFF (requires -shard)")
	tailCount := fs.Int("n", 0, "tail: exit after N records (0 = follow forever)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: seswal %s [flags] DIR", verb)
	}
	dir := fs.Arg(0)
	switch verb {
	case "ls":
		return runLs(dir, out)
	case "verify":
		return runVerify(dir, out)
	case "dump":
		return runDump(dir, *full, out)
	case "stats":
		return runStats(dir, *metricsURL, out)
	case "tail":
		return runTail(dir, *tailShard, *tailFrom, *tailCount, *full, out)
	default:
		return fmt.Errorf("unknown command %q (want ls, verify, dump, stats or tail)", verb)
	}
}

// openShard opens one shard's log read-only.
func openShard(dir string, shard int) (*wal.Log, error) {
	return wal.Open(filepath.Join(dir, fmt.Sprintf("shard-%02d", shard)), wal.Options{})
}

func runLs(dir string, out io.Writer) error {
	shards, err := shardLogs(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-8s %-26s %-10s %-10s %s\n", "shard", "checkpoint", "segments", "records", "log bytes")
	var totalRecords, totalSessions int
	for _, s := range shards {
		l, err := openShard(dir, s)
		if err != nil {
			return err
		}
		ckpt := "-"
		if data := l.Checkpoint(); data != nil {
			entries, err := store.DecodeWALCheckpoint(data)
			if err != nil {
				ckpt = fmt.Sprintf("INVALID (%v)", err)
			} else {
				ckpt = fmt.Sprintf("seq %d, %d sessions", l.CheckpointSeq(), len(entries))
				totalSessions += len(entries)
			}
		}
		var bytes int64
		segs := l.Segments()
		for _, sg := range segs {
			bytes += sg.Bytes
		}
		records := 0
		rep, err := l.Replay(func(wal.Record) error { records++; return nil })
		if err != nil {
			l.Close()
			return err
		}
		totalRecords += records
		note := ""
		if len(rep.Truncations) > 0 {
			note = fmt.Sprintf("  (torn tail at seg %d offset %d)", rep.Truncations[0].Seq, rep.Truncations[0].Offset)
		}
		fmt.Fprintf(out, "%-8d %-26s %-10d %-10d %d%s\n", s, ckpt, len(segs), records, bytes, note)
		l.Close()
	}
	fmt.Fprintf(out, "total: %d shard logs, %d checkpointed sessions, %d records to replay\n",
		len(shards), totalSessions, totalRecords)
	return nil
}

func runVerify(dir string, out io.Writer) error {
	shards, err := shardLogs(dir)
	if err != nil {
		return err
	}
	var records, torn, bad int
	for _, s := range shards {
		l, err := openShard(dir, s)
		if err != nil {
			// A corrupt checkpoint refuses to open; that is corruption.
			fmt.Fprintf(out, "shard %02d: %v\n", s, err)
			bad++
			continue
		}
		if data := l.Checkpoint(); data != nil {
			if entries, err := store.DecodeWALCheckpoint(data); err != nil {
				fmt.Fprintf(out, "shard %02d: checkpoint payload corrupt: %v\n", s, err)
				bad++
			} else {
				for _, e := range entries {
					if _, err := e.Snapshot.State(); err != nil {
						fmt.Fprintf(out, "shard %02d: checkpoint session %q invalid: %v\n", s, e.Name, err)
						bad++
					}
				}
			}
		}
		rep, err := l.Replay(func(r wal.Record) error {
			records++
			if _, derr := store.DecodeWALRecord(r.Payload); derr != nil {
				fmt.Fprintf(out, "shard %02d: seg %d offset %d: CRC-clean record fails to decode: %v\n",
					s, r.Seq, r.Offset, derr)
				bad++
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(out, "shard %02d: %v\n", s, err)
			bad++
			l.Close()
			continue
		}
		for _, tr := range rep.Truncations {
			fmt.Fprintf(out, "shard %02d: seg %d truncated at offset %d (%s) — torn tail, records beyond it were never acknowledged\n",
				s, tr.Seq, tr.Offset, tr.Reason)
			torn++
		}
		l.Close()
	}
	fmt.Fprintf(out, "verified %d records across %d shards: %d torn tail(s), %d corrupt\n",
		records, len(shards), torn, bad)
	if bad > 0 {
		return fmt.Errorf("%d corrupt record(s)/checkpoint(s)", bad)
	}
	return nil
}

// runStats aggregates the on-disk shape of the log (records by kind,
// segments, bytes, checkpoint weight) and, when metricsURL names a
// running sesd, the live append/fsync counters.
func runStats(dir, metricsURL string, out io.Writer) error {
	shards, err := shardLogs(dir)
	if err != nil {
		return err
	}
	var (
		totSegs, totRecords, activeShards, ckptSessions int
		totBytes, ckptBytes                             int64
		kinds                                           = map[string]int{}
	)
	for _, s := range shards {
		l, err := openShard(dir, s)
		if err != nil {
			return err
		}
		segs := l.Segments()
		for _, sg := range segs {
			totBytes += sg.Bytes
		}
		totSegs += len(segs)
		if data := l.Checkpoint(); data != nil {
			ckptBytes += int64(len(data))
			if entries, err := store.DecodeWALCheckpoint(data); err == nil {
				ckptSessions += len(entries)
			}
		}
		records := 0
		_, rerr := l.Replay(func(r wal.Record) error {
			records++
			if rec, err := store.DecodeWALRecord(r.Payload); err == nil {
				kinds[rec.Kind]++
			}
			return nil
		})
		l.Close()
		if rerr != nil {
			return fmt.Errorf("shard %02d: %w", s, rerr)
		}
		totRecords += records
		if records > 0 {
			activeShards++
		}
	}
	fmt.Fprintf(out, "shards:       %d (%d with records to replay)\n", len(shards), activeShards)
	fmt.Fprintf(out, "segments:     %d, %d bytes\n", totSegs, totBytes)
	fmt.Fprintf(out, "checkpoints:  %d sessions, %d bytes\n", ckptSessions, ckptBytes)
	fmt.Fprintf(out, "records:      %d", totRecords)
	if totRecords > 0 {
		fmt.Fprintf(out, " (%.0f bytes/record)", float64(totBytes)/float64(totRecords))
	}
	fmt.Fprintln(out)
	for _, kind := range sortedKeys(kinds) {
		fmt.Fprintf(out, "  %-11s %d\n", kind, kinds[kind])
	}

	if metricsURL == "" {
		fmt.Fprintln(out, "fsyncs:       process-lifetime counters, not on-disk state; point -metrics at a running sesd for records-per-fsync")
		return nil
	}
	ws, rep, err := fetchWALMetrics(metricsURL)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "live appends: %d over %d fsyncs (%.1f records/fsync)\n",
		ws.Appends, ws.Fsyncs, ws.RecordsPerFsync)
	if rep != nil {
		fmt.Fprintf(out, "replication:  node %s following %s; %d streams out\n",
			rep.NodeID, strings.Join(rep.Peers, ","), rep.ActiveStreams)
		fmt.Fprintf(out, "  shipped:    %d records, %d bytes\n", rep.RecordsShipped, rep.BytesShipped)
		fmt.Fprintf(out, "  applied:    %d records, %d bytes\n", rep.RecordsApplied, rep.BytesApplied)
		fmt.Fprintf(out, "  lag:        %d records, %d bytes behind the primaries\n",
			rep.FollowerLagRecords, rep.FollowerLagBytes)
		if rep.LastFailoverUnixMS > 0 {
			fmt.Fprintf(out, "  failover:   promoted %d sessions, last at unix ms %d\n",
				rep.PromotedSessions, rep.LastFailoverUnixMS)
		}
	}
	return nil
}

// liveWALMetrics is the wal section of sesd's /v1/metrics.
type liveWALMetrics struct {
	Appends         uint64  `json:"appends"`
	Fsyncs          uint64  `json:"fsyncs"`
	RecordsPerFsync float64 `json:"records_per_fsync"`
}

// fetchWALMetrics pulls the wal counters — and the replication
// section, when the daemon is clustered — from a sesd metrics
// endpoint; url may be the daemon base URL or the full /v1/metrics
// path.
func fetchWALMetrics(url string) (*liveWALMetrics, *cluster.Metrics, error) {
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, "/v1/metrics") {
		url = strings.TrimSuffix(url, "/") + "/v1/metrics"
	}
	resp, err := http.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var doc struct {
		WAL         *liveWALMetrics  `json:"wal"`
		Replication *cluster.Metrics `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if doc.WAL == nil {
		return nil, nil, fmt.Errorf("GET %s: no wal section (daemon running without -data-dir?)", url)
	}
	return doc.WAL, doc.Replication, nil
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runTail follows the log live: one wal.Tailer per shard delivers
// records as their appends land, exactly the stream a cluster
// follower consumes, printed as dump-format JSON lines with the
// record's post-apply cursor attached. Ctrl-C (or -n) ends the tail.
func runTail(dir string, shard int, from string, count int, full bool, out io.Writer) error {
	shards, err := shardLogs(dir)
	if err != nil {
		return err
	}
	if shard >= 0 {
		if shard >= store.NumShards {
			return fmt.Errorf("shard %d out of range [0,%d)", shard, store.NumShards)
		}
		shards = []int{shard}
	}
	var cur wal.Cursor
	if from != "" {
		if shard < 0 {
			return fmt.Errorf("-from needs -shard: a cursor names a position in one shard's log")
		}
		if cur, err = wal.ParseCursor(from); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	enc := json.NewEncoder(out)
	var mu sync.Mutex
	emitted := 0
	emit := func(line dumpLine) error {
		mu.Lock()
		defer mu.Unlock()
		if count > 0 && emitted >= count {
			return nil
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
		emitted++
		if count > 0 && emitted >= count {
			cancel()
		}
		return nil
	}

	errs := make(chan error, len(shards))
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s int, from wal.Cursor) {
			defer wg.Done()
			t := wal.NewTailer(filepath.Join(dir, fmt.Sprintf("shard-%02d", s)), from, wal.TailerOptions{})
			defer t.Close()
			for {
				r, err := t.Next(ctx)
				if err != nil {
					if ctx.Err() == nil {
						errs <- fmt.Errorf("shard %02d: %w", s, err)
						cancel()
					}
					return
				}
				rec, err := store.DecodeWALRecord(r.Payload)
				if err != nil {
					errs <- fmt.Errorf("shard %02d seg %d offset %d: %w", s, r.Seq, r.Offset, err)
					cancel()
					return
				}
				line := dumpLine{Shard: s, Seq: r.Seq, Offset: r.Offset, Kind: rec.Kind, Name: rec.Name, Replace: rec.Replace, Cursor: wal.Cursor{Seq: r.Seq, Off: r.End}.String()}
				if full {
					line.Record = rec
				} else if rec.Snapshot != nil {
					line.K = rec.Snapshot.K
					line.Objective = rec.Snapshot.Objective
					line.Events = len(rec.Snapshot.Instance.Events)
				}
				if err := emit(line); err != nil {
					errs <- err
					cancel()
					return
				}
			}
		}(s, cur)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// dumpLine is one JSON line of seswal dump.
type dumpLine struct {
	Shard  int    `json:"shard"`
	Seq    uint64 `json:"seq,omitempty"`
	Offset int64  `json:"offset,omitempty"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	// Cursor is the record's post-apply cursor ("seq:off"), printed by
	// tail — the resume point for -from and the position a replication
	// follower holds after applying this record.
	Cursor string `json:"cursor,omitempty"`
	// Compact summaries (default mode).
	K         int     `json:"k,omitempty"`
	Objective string  `json:"objective,omitempty"`
	Events    int     `json:"events,omitempty"`
	Muts      int     `json:"muts,omitempty"`
	Ops       string  `json:"ops,omitempty"`
	Committed bool    `json:"committed,omitempty"`
	Scheduled int     `json:"scheduled,omitempty"`
	Utility   float64 `json:"utility,omitempty"`
	Stopped   string  `json:"stopped,omitempty"`
	Replace   bool    `json:"replace,omitempty"`
	// Full mode payloads.
	Record     *store.WALRecord          `json:"record,omitempty"`
	Checkpoint *store.WALCheckpointEntry `json:"checkpoint,omitempty"`
}

func runDump(dir string, full bool, out io.Writer) error {
	shards, err := shardLogs(dir)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	for _, s := range shards {
		l, err := openShard(dir, s)
		if err != nil {
			return err
		}
		if data := l.Checkpoint(); data != nil {
			entries, err := store.DecodeWALCheckpoint(data)
			if err != nil {
				l.Close()
				return fmt.Errorf("shard %02d checkpoint: %w", s, err)
			}
			for i := range entries {
				e := &entries[i]
				line := dumpLine{Shard: s, Kind: "checkpoint", Name: e.Name}
				if full {
					line.Checkpoint = e
				} else {
					line.K = e.Snapshot.K
					line.Objective = e.Snapshot.Objective
					line.Events = len(e.Snapshot.Instance.Events)
					line.Scheduled = len(e.Snapshot.Schedule)
					line.Utility = e.Snapshot.Utility
				}
				if err := enc.Encode(line); err != nil {
					l.Close()
					return err
				}
			}
		}
		_, rerr := l.Replay(func(r wal.Record) error {
			rec, err := store.DecodeWALRecord(r.Payload)
			if err != nil {
				return fmt.Errorf("seg %d offset %d: %w", r.Seq, r.Offset, err)
			}
			line := dumpLine{Shard: s, Seq: r.Seq, Offset: r.Offset, Kind: rec.Kind, Name: rec.Name, Replace: rec.Replace}
			if full {
				line.Record = rec
			} else {
				if rec.Snapshot != nil {
					line.K = rec.Snapshot.K
					line.Objective = rec.Snapshot.Objective
					line.Events = len(rec.Snapshot.Instance.Events)
				}
				if len(rec.Muts) > 0 {
					line.Muts = len(rec.Muts)
					ops := ""
					for i, m := range rec.Muts {
						if i > 0 {
							ops += ","
						}
						ops += string(m.Op)
					}
					line.Ops = ops
				}
				if rec.Commit != nil {
					line.Committed = true
					line.Scheduled = len(rec.Commit.Schedule)
					line.Utility = rec.Commit.Utility
					line.Stopped = rec.Commit.Stopped
				}
			}
			return enc.Encode(line)
		})
		l.Close()
		if rerr != nil {
			return fmt.Errorf("shard %02d: %w", s, rerr)
		}
	}
	return nil
}
