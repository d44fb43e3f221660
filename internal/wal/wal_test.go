package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// replayAll opens dir and collects every recovered record payload.
func replayAll(t *testing.T, dir string) (ckpt []byte, payloads [][]byte, rep ReplayReport) {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	rep, err = l.Replay(func(r Record) error {
		payloads = append(payloads, append([]byte(nil), r.Payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return l.Checkpoint(), payloads, rep
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("one"), {}, []byte("three, somewhat longer payload"), {0, 1, 2, 255}}
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, rep := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
	if len(rep.Truncations) != 0 {
		t.Errorf("unexpected truncations: %+v", rep.Truncations)
	}
	if rep.Records != len(want) || rep.Segments != 1 {
		t.Errorf("report = %+v", rep)
	}
}

func TestOpenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	for gen := 0; gen < 3; gen++ {
		l, err := Open(dir, Options{Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Replay(func(Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte(fmt.Sprintf("gen-%d", gen))); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	_, got, rep := replayAll(t, dir)
	if len(got) != 3 || rep.Segments != 3 {
		t.Fatalf("got %d records over %d segments, want 3 over 3", len(got), rep.Segments)
	}
	for i, p := range got {
		if string(p) != fmt.Sprintf("gen-%d", i) {
			t.Errorf("record %d = %q", i, p)
		}
	}
}

func TestSegmentRotationBySize(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone, SegmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	payload := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < n; i++ {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if segs := l.Segments(); len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	l.Close()
	_, got, _ := replayAll(t, dir)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
}

// TestReplayAllocatesOnce checks that a replay allocates its read
// buffer at most once: a 16-segment log replays in under 256 KiB of
// allocations, its 4 KiB payload buffer included, and a log with no
// segment, which every empty shard of a store has, in under 16 KiB.
func TestReplayAllocatesOnce(t *testing.T) {
	for _, c := range []struct {
		records int
		limit   uint64
	}{{16, 256 << 10}, {0, 16 << 10}} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: SyncNone, SegmentMaxBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte("x"), 100) // one record per segment
		for i := 0; i < c.records; i++ {
			if err := l.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := l.Replay(func(Record) error { return nil })
		runtime.ReadMemStats(&after)
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Segments != c.records || rep.Records != c.records {
			t.Fatalf("replayed %d records from %d segments, want %d from %d", rep.Records, rep.Segments, c.records, c.records)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= c.limit {
			t.Fatalf("replaying %d segments allocated %d bytes, want under %d", rep.Segments, got, c.limit)
		}
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint([]byte("state-after-10")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	ckpt, got, rep := replayAll(t, dir)
	if string(ckpt) != "state-after-10" {
		t.Fatalf("checkpoint = %q", ckpt)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3 (pre-checkpoint ones truncated)", len(got))
	}
	for i, p := range got {
		if string(p) != fmt.Sprintf("post-%d", i) {
			t.Errorf("record %d = %q", i, p)
		}
	}
	if rep.CheckpointSeq == 0 {
		t.Error("report lost the checkpoint seq")
	}
	// Only one checkpoint file and no pre-checkpoint segments remain.
	ents, _ := os.ReadDir(dir)
	var ckpts, segs int
	for _, e := range ents {
		switch filepath.Ext(e.Name()) {
		case ckptSuffix:
			ckpts++
		case segSuffix:
			segs++
		}
	}
	if ckpts != 1 {
		t.Errorf("%d checkpoint files on disk, want 1", ckpts)
	}
	if segs != 1 {
		t.Errorf("%d segments on disk, want 1 (the post-checkpoint one)", segs)
	}
}

func TestCheckpointWithNoRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint([]byte("empty-state")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	ckpt, got, _ := replayAll(t, dir)
	if string(ckpt) != "empty-state" || len(got) != 0 {
		t.Fatalf("ckpt=%q records=%d", ckpt, len(got))
	}
}

// TestTornTailMatrix is the wal-level crash matrix: a log of known
// records truncated at every byte offset must always recover exactly
// a prefix of the records — never a corrupted or merged one.
func TestTornTailMatrix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	var ends []int64 // file offset after each record
	for i := 0; i < 8; i++ {
		p := bytes.Repeat([]byte{byte('a' + i)}, 3+5*i)
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) != 1 {
		t.Fatalf("expected a single segment, got %d", len(segs))
	}
	l.Close()
	full, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute record boundaries from a replay pass.
	if _, err := func() (ReplayReport, error) {
		l2, err := Open(dir, Options{})
		if err != nil {
			return ReplayReport{}, err
		}
		defer l2.Close()
		return l2.Replay(func(r Record) error {
			ends = append(ends, r.End)
			return nil
		})
	}(); err != nil {
		t.Fatal(err)
	}
	if len(ends) != len(want) {
		t.Fatalf("boundary scan found %d records, want %d", len(ends), len(want))
	}

	// expected number of surviving records for a cut at byte n.
	expectAt := func(n int64) int {
		k := 0
		for _, e := range ends {
			if e <= n {
				k++
			}
		}
		return k
	}

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(segs[0].Path)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, got, rep := replayAll(t, cutDir)
		wantN := expectAt(cut)
		if len(got) != wantN {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(got), wantN)
		}
		for i := 0; i < wantN; i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut at %d: record %d corrupted", cut, i)
			}
		}
		// A mid-record cut must be reported as a truncation.
		midRecord := cut < int64(len(full)) && (wantN == len(ends) || cut != seekStart(ends, wantN))
		if midRecord && len(rep.Truncations) == 0 {
			t.Fatalf("cut at %d: torn tail not reported", cut)
		}
	}
}

// seekStart returns the start offset of record i (the end of record
// i-1, or the header size for i == 0).
func seekStart(ends []int64, i int) int64 {
	if i == 0 {
		return int64(len(segMagic) + 1)
	}
	return ends[i-1]
}

func TestBitFlipDropsSuffixNeverPanics(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%d-payload", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	l.Close()
	full, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(full); pos += 7 {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x40
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(segs[0].Path)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		// Any prefix that does come back must consist of genuine
		// records (a flip in record i must not corrupt records < i).
		_, got, _ := replayAll(t, cutDir)
		for i, p := range got {
			if i < len(got)-1 && string(p) != fmt.Sprintf("record-%d-payload", i) {
				t.Fatalf("flip at %d: non-final record %d altered to %q", pos, i, p)
			}
		}
	}
}

func TestCorruptCheckpointRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint([]byte("good-state")); err != nil {
		t.Fatal(err)
	}
	seq := l.CheckpointSeq()
	l.Close()
	path := filepath.Join(dir, fmt.Sprintf("ckpt-%016x%s", seq, ckptSuffix))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt checkpoint")
	}
}

func TestUnknownVersionRejected(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, fmt.Sprintf("seg-%016x%s", 1, segSuffix))
	if err := os.WriteFile(seg, append([]byte(segMagic), 99), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Replay(func(Record) error { return nil }); err == nil {
		t.Fatal("replay accepted an unknown segment version")
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Sync: pol})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]byte("hello")); err != nil {
				t.Fatal(err)
			}
			if pol == SyncAlways && l.NeedsSync() {
				t.Error("SyncAlways left the log dirty")
			}
			if pol != SyncAlways && !l.NeedsSync() {
				t.Error("append did not mark the log dirty")
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if l.NeedsSync() {
				t.Error("Sync left the log dirty")
			}
			l.Close()
			_, got, _ := replayAll(t, dir)
			if len(got) != 1 || string(got[0]) != "hello" {
				t.Fatalf("replay = %q", got)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for spec, want := range map[string]SyncPolicy{
		"": SyncAlways, "always": SyncAlways, "interval": SyncInterval, "none": SyncNone,
	} {
		got, err := ParseSyncPolicy(spec)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", spec, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
}

func TestFlusher(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f := NewFlusher(5*time.Millisecond, []*Log{l, nil})
	if err := l.Append([]byte("flush-me")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.NeedsSync() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if l.NeedsSync() {
		t.Error("flusher never synced the log")
	}
	f.Stop()
}

func TestReplayTwiceAndAfterAppendOrdering(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Replay(func(Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Replay(func(Record) error { return nil }); err != ErrReplayed {
		t.Fatalf("second replay: %v, want ErrReplayed", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	huge := make([]byte, MaxRecordBytes+1)
	if err := l.Append(huge); err == nil {
		t.Fatal("oversize append accepted")
	}
}

func TestClosedLogErrors(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Append([]byte("x")); err != ErrClosed {
		t.Errorf("Append on closed log: %v", err)
	}
	if err := l.WriteCheckpoint([]byte("x")); err != ErrClosed {
		t.Errorf("WriteCheckpoint on closed log: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

// TestCrashBetweenCheckpointAndTruncate simulates the crash window
// where the new checkpoint is installed but the covered segments were
// not yet deleted: recovery must use the checkpoint and ignore (then
// sweep) the stale segments.
func TestCrashBetweenCheckpointAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("old")); err != nil {
		t.Fatal(err)
	}
	seg := l.Segments()[0]
	stale, err := os.ReadFile(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint([]byte("covers-old")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Resurrect the covered segment, as if the delete never happened.
	if err := os.WriteFile(seg.Path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt, got, _ := replayAll(t, dir)
	if string(ckpt) != "covers-old" {
		t.Fatalf("checkpoint = %q", ckpt)
	}
	if len(got) != 0 {
		t.Fatalf("stale segment replayed: %q", got)
	}
	// The next checkpoint sweeps it.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Replay(func(Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := l2.WriteCheckpoint([]byte("covers-old-2")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if _, err := os.Stat(seg.Path); !os.IsNotExist(err) {
		t.Error("stale segment survived the next checkpoint")
	}
}

// TestStaleCheckpointSwept plants an untracked older checkpoint file
// (as a crash between installing a new checkpoint and deleting the
// old one would) and verifies the next WriteCheckpoint removes it.
func TestStaleCheckpointSwept(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	// An append forces the checkpoint boundary past segment 1, so a
	// stale ckpt-1 below is genuinely older than the current one.
	if err := l.Append([]byte("work")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint([]byte("current")); err != nil {
		t.Fatal(err)
	}
	cur := l.CheckpointSeq()
	l.Close()
	// Resurrect an older-generation checkpoint beside the current one.
	older := filepath.Join(dir, fmt.Sprintf("ckpt-%016x%s", 0x1, ckptSuffix))
	if cur == 1 {
		t.Fatal("test assumes the current checkpoint seq is not 1")
	}
	if err := os.WriteFile(older, []byte("garbage from an old generation"), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatalf("Open with a stale older checkpoint: %v", err)
	}
	if string(l2.Checkpoint()) != "current" {
		t.Fatalf("recovered checkpoint %q, want the newest", l2.Checkpoint())
	}
	if _, err := l2.Replay(func(Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := l2.WriteCheckpoint([]byte("next")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	ents, _ := os.ReadDir(dir)
	ckpts := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ckptSuffix) {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Fatalf("%d checkpoint files remain, want exactly 1", ckpts)
	}
}
