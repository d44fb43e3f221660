package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ses"
	"ses/internal/sestest"
	"ses/internal/wal"
)

// buildLog creates a durable store with a little traffic, closes it
// cleanly (writing the final checkpoint) and returns its data dir.
func buildLog(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := ses.OpenStore(ses.WithDurability(dir), ses.WithSyncPolicy(ses.SyncNone), ses.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	inst := sestest.Random(sestest.Config{Users: 20, Events: 8, Intervals: 3, Competing: 2, Seed: 5})
	ctx := context.Background()
	if err := st.Create("walk", inst, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyBatch(ctx, "walk", []ses.Mutation{
		ses.UpdateInterestOp(0, 1, 0.7),
		ses.SetKOp(4),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Resolve(ctx, "walk"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSeswalUsageErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"frobnicate", t.TempDir()}, &out); err == nil {
		t.Error("unknown verb accepted")
	}
	if err := run([]string{"ls", t.TempDir()}, &out); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestSeswalLsVerifyDump(t *testing.T) {
	dir := buildLog(t)
	var out strings.Builder
	if err := run([]string{"ls", dir}, &out); err != nil {
		t.Fatalf("ls: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1 sessions") {
		t.Errorf("ls output missing checkpoint summary:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"verify", dir}, &out); err != nil {
		t.Fatalf("verify: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 corrupt") {
		t.Errorf("verify output:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"dump", dir}, &out); err != nil {
		t.Fatalf("dump: %v\n%s", err, out.String())
	}
	// A cleanly closed store dumps its checkpoint entry.
	var sawCheckpoint bool
	sc := bufio.NewScanner(strings.NewReader(out.String()))
	for sc.Scan() {
		var line dumpLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("dump line %q: %v", sc.Text(), err)
		}
		if line.Kind == "checkpoint" && line.Name == "walk" && line.K == 4 {
			sawCheckpoint = true
		}
	}
	if !sawCheckpoint {
		t.Errorf("dump missing the checkpoint entry:\n%s", out.String())
	}
}

func TestSeswalDumpRecordsAndTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := ses.OpenStore(ses.WithDurability(dir), ses.WithSyncPolicy(ses.SyncNone),
		ses.WithCheckpointEvery(-1), ses.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	inst := sestest.Random(sestest.Config{Users: 20, Events: 8, Intervals: 3, Competing: 2, Seed: 6})
	if err := st.Create("torn", inst, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyBatch(context.Background(), "torn", []ses.Mutation{
		ses.UpdateInterestOp(1, 1, 0.4),
	}); err != nil {
		t.Fatal(err)
	}
	// Freeze the log before Close checkpoints it away.
	img := t.TempDir()
	if err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(img, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(img, rel), data, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	var out strings.Builder
	if err := run([]string{"dump", img}, &out); err != nil {
		t.Fatalf("dump: %v\n%s", err, out.String())
	}
	var kinds []string
	sc := bufio.NewScanner(strings.NewReader(out.String()))
	var segPath string
	for sc.Scan() {
		var line dumpLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, line.Kind)
		if line.Kind == "batch" && (!line.Committed || line.Ops != "update_interest") {
			t.Errorf("batch line wrong: %+v", line)
		}
	}
	if len(kinds) != 2 || kinds[0] != "create" || kinds[1] != "batch" {
		t.Fatalf("dump kinds = %v, want [create batch]", kinds)
	}

	// Tear the tail: verify must report it but still exit 0.
	if err := filepath.Walk(img, func(path string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(path, ".wal") {
			segPath = path
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, info.Size()-2); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"verify", img}, &out); err != nil {
		t.Fatalf("verify after tear: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "torn tail") || !strings.Contains(out.String(), "1 torn tail(s), 0 corrupt") {
		t.Errorf("verify after tear:\n%s", out.String())
	}

	// Full dump embeds the snapshot.
	out.Reset()
	if err := run([]string{"dump", "-full", img}, &out); err != nil {
		t.Fatalf("dump -full: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "\"record\"") || !strings.Contains(out.String(), "\"instance\"") {
		t.Errorf("full dump missing embedded snapshot:\n%s", out.String())
	}
}

// TestSeswalStats covers the stats verb: offline record/segment/byte
// accounting on a frozen data dir, and the live amortization fetch
// from a (mock) sesd /v1/metrics endpoint.
func TestSeswalStats(t *testing.T) {
	dir := t.TempDir()
	st, err := ses.OpenStore(ses.WithDurability(dir), ses.WithSyncPolicy(ses.SyncNone),
		ses.WithCheckpointEvery(-1), ses.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	inst := sestest.Random(sestest.Config{Users: 20, Events: 8, Intervals: 3, Competing: 2, Seed: 7})
	if err := st.Create("stats", inst, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyBatch(context.Background(), "stats", []ses.Mutation{
		ses.UpdateInterestOp(1, 1, 0.4),
	}); err != nil {
		t.Fatal(err)
	}
	// Freeze the log before Close checkpoints the records away.
	img := t.TempDir()
	if err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(img, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(img, rel), data, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	var out strings.Builder
	if err := run([]string{"stats", img}, &out); err != nil {
		t.Fatalf("stats: %v\n%s", err, out.String())
	}
	for _, want := range []string{"records:      2", "create", "batch", "segments:", "checkpoints:", "point -metrics"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, out.String())
		}
	}

	// Live counters from a mock daemon.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/metrics" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, `{"wal":{"appends":80,"fsyncs":80,"records_per_fsync":1}}`)
	}))
	defer srv.Close()
	out.Reset()
	if err := run([]string{"stats", "-metrics", srv.URL, img}, &out); err != nil {
		t.Fatalf("stats -metrics: %v\n%s", err, out.String())
	}
	for _, want := range []string{"80 over 80 fsyncs", "1.0 records/fsync"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats -metrics output missing %q:\n%s", want, out.String())
		}
	}

	// A daemon serving no wal section (memory-only) is an error, not a
	// silent zero report.
	bare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"sessions":1}`)
	}))
	defer bare.Close()
	if err := run([]string{"stats", "-metrics", bare.URL, img}, &strings.Builder{}); err == nil ||
		!strings.Contains(err.Error(), "no wal section") {
		t.Errorf("stats against memory-only daemon: %v", err)
	}
}

// TestSeswalVerifyFlagsCorruption plants a CRC-clean record that is
// not a valid store record: verify must flag it and exit non-zero.
func TestSeswalVerifyFlagsCorruption(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "shard-00")
	l, err := wal.Open(shard, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Replay(func(wal.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte{0x7f, 'b', 'o', 'g', 'u', 's'}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	var out strings.Builder
	if err := run([]string{"verify", dir}, &out); err == nil {
		t.Fatalf("verify accepted a bogus record:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "fails to decode") {
		t.Errorf("verify output:\n%s", out.String())
	}
	// ls and dump surface it too (dump errors out).
	out.Reset()
	if err := run([]string{"ls", dir}, &out); err != nil {
		t.Fatalf("ls: %v", err)
	}
	out.Reset()
	if err := run([]string{"dump", dir}, &out); err == nil {
		t.Error("dump accepted a bogus record")
	}
}

// buildOpenLog creates a durable store with traffic and leaves it
// un-checkpointed (no Close), so every record is still in the log.
func buildOpenLog(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := ses.OpenStore(ses.WithDurability(dir), ses.WithSyncPolicy(ses.SyncNone), ses.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	inst := sestest.Random(sestest.Config{Users: 20, Events: 8, Intervals: 3, Competing: 2, Seed: 5})
	ctx := context.Background()
	if err := st.Create("tailed", inst, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyBatch(ctx, "tailed", []ses.Mutation{ses.SetKOp(4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Resolve(ctx, "tailed"); err != nil {
		t.Fatal(err)
	}
	return dir, "tailed"
}

func TestSeswalTail(t *testing.T) {
	dir, name := buildOpenLog(t)

	// -n bounds the tail, so it terminates once the log's three
	// records (create, batch, resolve) are delivered.
	var out strings.Builder
	if err := run([]string{"tail", "-n", "3", dir}, &out); err != nil {
		t.Fatalf("tail: %v\noutput: %s", err, out.String())
	}
	var kinds []string
	var cursors []string
	sc := bufio.NewScanner(strings.NewReader(out.String()))
	for sc.Scan() {
		var line dumpLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad tail line %q: %v", sc.Text(), err)
		}
		if line.Name != name {
			t.Errorf("tail line names %q, want %q", line.Name, name)
		}
		if line.Cursor == "" {
			t.Errorf("tail line has no cursor: %q", sc.Text())
		}
		kinds = append(kinds, line.Kind)
		cursors = append(cursors, line.Cursor)
	}
	if want := []string{"create", "batch", "resolve"}; strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("tail kinds = %v, want %v", kinds, want)
	}

	// Resuming -from the first record's cursor replays only the rest.
	shard := 0
	for s := 0; s < 64; s++ {
		if _, err := os.Stat(filepath.Join(dir, "shard-"+twoDigits(s))); err == nil {
			shard = s
			break
		}
	}
	out.Reset()
	if err := run([]string{"tail", "-shard", itoa(shard), "-from", cursors[0], "-n", "2", dir}, &out); err != nil {
		t.Fatalf("tail -from: %v", err)
	}
	var resumed []string
	sc = bufio.NewScanner(strings.NewReader(out.String()))
	for sc.Scan() {
		var line dumpLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		resumed = append(resumed, line.Kind)
	}
	if want := []string{"batch", "resolve"}; strings.Join(resumed, ",") != strings.Join(want, ",") {
		t.Fatalf("resumed kinds = %v, want %v", resumed, want)
	}

	// -from without -shard is a usage error.
	if err := run([]string{"tail", "-from", "1:7", dir}, io.Discard); err == nil {
		t.Error("tail -from without -shard accepted")
	}
}

func twoDigits(n int) string {
	return string([]byte{'0' + byte(n/10), '0' + byte(n%10)})
}

func itoa(n int) string {
	return twoDigits(n)
}
