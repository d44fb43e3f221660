package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// replayPayloads collects every recovered payload of a fresh Open
// (the replayAll helper in wal_test.go, minus the checkpoint).
func replayPayloads(t *testing.T, dir string) [][]byte {
	t.Helper()
	_, payloads, _ := replayAll(t, dir)
	return payloads
}

// TestGroupCommitConcurrentAppenders drives N appenders through one
// SyncAlways log at once under -race and checks the single-append
// contract: every record recovered, each appender's program order
// preserved on disk, and one fsync per record (the log mutex spans
// the write and its fsync, so no fsync covers two appends).
func TestGroupCommitConcurrentAppenders(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const appenders, perAppender = 8, 50
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				if err := l.Append(fmt.Appendf(nil, "a%02d-%04d", a, i)); err != nil {
					t.Errorf("appender %d record %d: %v", a, i, err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	st := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if st.Appends != appenders*perAppender {
		t.Fatalf("stats report %d appends, want %d", st.Appends, appenders*perAppender)
	}
	if st.Fsyncs < st.Appends {
		t.Fatalf("%d fsyncs for %d appends: some append was acknowledged without its own fsync", st.Fsyncs, st.Appends)
	}

	recovered := replayPayloads(t, dir)
	if len(recovered) != appenders*perAppender {
		t.Fatalf("recovered %d records, want %d", len(recovered), appenders*perAppender)
	}
	// Per-appender program order must be the on-disk order.
	next := make([]int, appenders)
	for _, p := range recovered {
		var a, i int
		if _, err := fmt.Sscanf(string(p), "a%02d-%04d", &a, &i); err != nil {
			t.Fatalf("unparseable record %q", p)
		}
		if i != next[a] {
			t.Fatalf("appender %d: record %d recovered before %d", a, i, next[a])
		}
		next[a]++
	}
}

// TestGroupCommitFaultInjectedSync fails every fsync under N
// concurrent appenders and checks each of them observes the error —
// no record a failed fsync covered may be acknowledged — and that the
// log is not latched afterwards: the next append with a healthy disk
// succeeds.
func TestGroupCommitFaultInjectedSync(t *testing.T) {
	dir := t.TempDir()
	syncErr := errors.New("injected fsync failure")
	var failing atomic.Bool
	failing.Store(true)
	opts := Options{
		Sync: SyncAlways,
		syncFile: func(f *os.File) error {
			if failing.Load() {
				return syncErr
			}
			return f.Sync()
		},
	}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const appenders = 8
	errs := make([]error, appenders)
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			errs[a] = l.Append(fmt.Appendf(nil, "doomed-%d", a))
		}(a)
	}
	wg.Wait()
	for a, err := range errs {
		if !errors.Is(err, syncErr) {
			t.Fatalf("appender %d: got %v, want the injected sync error", a, err)
		}
	}

	// Heal the disk: the log is usable again (poisoning is the durable
	// store's job, not the log's).
	failing.Store(false)
	if err := l.Append([]byte("healed")); err != nil {
		t.Fatalf("append after healed sync: %v", err)
	}
}

// TestCloseDuringFlusherRace closes logs while a background Flusher
// is mid-flight over them (satellite: the flusher must tolerate a log
// closing under it — Sync on a closed log reports ErrClosed and the
// flusher treats it as best-effort). Run with -race.
func TestCloseDuringFlusherRace(t *testing.T) {
	logs := make([]*Log, 4)
	for i := range logs {
		l, err := Open(t.TempDir(), Options{Sync: SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}
	f := NewFlusher(time.Millisecond, logs)
	var wg sync.WaitGroup
	for _, l := range logs {
		wg.Add(1)
		go func(l *Log) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := l.Append([]byte("spin")); err != nil {
					return // closed under us: expected
				}
			}
		}(l)
	}
	// Close the logs while the flusher ticks and the appenders spin.
	var cg sync.WaitGroup
	for _, l := range logs {
		cg.Add(1)
		go func(l *Log) {
			defer cg.Done()
			time.Sleep(time.Duration(1+len(l.dir)%3) * time.Millisecond)
			l.Close()
		}(l)
	}
	cg.Wait()
	wg.Wait()
	f.Stop() // final pass over closed logs must not panic
	for _, l := range logs {
		if err := l.Sync(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Sync after close: got %v, want ErrClosed", err)
		}
	}
}

// TestSyncIntervalClosesFlushed pins what the crash matrix only
// implies: a SyncInterval log with pending unsynced bytes issues a
// real segment fsync on Close, so a clean shutdown loses nothing even
// if the flusher never ran.
func TestSyncIntervalClosesFlushed(t *testing.T) {
	dir := t.TempDir()
	var fsyncs atomic.Int64
	l, err := Open(dir, Options{
		Sync: SyncInterval,
		syncFile: func(f *os.File) error {
			fsyncs.Add(1)
			return f.Sync()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("pending")); err != nil {
			t.Fatal(err)
		}
	}
	if !l.NeedsSync() {
		t.Fatal("appends under SyncInterval should be pending a flush")
	}
	// Rotation of the fresh segment synced nothing yet beyond itself;
	// record the count, close, and require at least one more fsync —
	// the close-time flush of the pending bytes.
	before := fsyncs.Load()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if fsyncs.Load() <= before {
		t.Fatalf("Close issued no fsync over %d pending appends", 3)
	}
	if got := replayPayloads(t, dir); len(got) != 3 {
		t.Fatalf("recovered %d records after close, want 3", len(got))
	}
}

// TestAppendCursorMatchesPosition checks AppendCursor with serial and
// concurrent appenders: every returned cursor is distinct, strictly
// increasing in Before order per appender, and the last (serial) or
// largest (concurrent) cursor equals Position().
func TestAppendCursorMatchesPosition(t *testing.T) {
	t.Run("direct", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{Sync: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var prev Cursor
		for i := 0; i < 20; i++ {
			cur, err := l.AppendCursor(fmt.Appendf(nil, "rec-%03d", i))
			if err != nil {
				t.Fatal(err)
			}
			if cur.IsZero() || !prev.Before(cur) {
				t.Fatalf("append %d: cursor %v not after %v", i, cur, prev)
			}
			prev = cur
		}
		if pos := l.Position(); pos != prev {
			t.Fatalf("Position() = %v, last AppendCursor = %v", pos, prev)
		}
	})
	t.Run("grouped", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{Sync: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		const appenders, perAppender = 8, 25
		cursors := make([][]Cursor, appenders)
		var wg sync.WaitGroup
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for i := 0; i < perAppender; i++ {
					cur, err := l.AppendCursor(fmt.Appendf(nil, "a%02d-%04d", a, i))
					if err != nil {
						t.Errorf("appender %d: %v", a, err)
						return
					}
					cursors[a] = append(cursors[a], cur)
				}
			}(a)
		}
		wg.Wait()
		seen := map[Cursor]bool{}
		var max Cursor
		for a := range cursors {
			var prev Cursor
			for _, cur := range cursors[a] {
				if cur.IsZero() || seen[cur] {
					t.Fatalf("cursor %v zero or duplicated", cur)
				}
				seen[cur] = true
				if !prev.Before(cur) {
					t.Fatalf("appender %d cursors out of order: %v then %v", a, prev, cur)
				}
				prev = cur
				if max.Before(cur) {
					max = cur
				}
			}
		}
		if len(seen) != appenders*perAppender {
			t.Fatalf("got %d distinct cursors, want %d", len(seen), appenders*perAppender)
		}
		if pos := l.Position(); pos != max {
			t.Fatalf("Position() = %v, max AppendCursor = %v", pos, max)
		}
	})
}
