package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ses/internal/core"
	"ses/internal/session"
	"ses/internal/sestest"
	"ses/internal/snap"
	"ses/internal/wal"
)

// canonicalState returns the byte-exact canonical encoding of one
// session's state plus its store-level meta counters — the identity
// the durability contract promises to preserve.
func canonicalState(t *testing.T, s interface {
	Snapshot(string) (*session.State, error)
	Meta(string) (Meta, error)
}, name string) []byte {
	t.Helper()
	st, err := s.Snapshot(name)
	if err != nil {
		t.Fatalf("Snapshot(%s): %v", name, err)
	}
	doc, err := snap.FromState(name, st)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := snap.EncodeJSON(&b, doc); err != nil {
		t.Fatal(err)
	}
	m, err := s.Meta(name)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "meta resolves=%d mutations=%d batches=%d utility=%x scheduled=%d stopped=%q objective=%s\n",
		m.Resolves, m.Mutations, m.Batches, m.Utility, m.Scheduled, m.Stopped, m.Objective)
	return b.Bytes()
}

func openDurable(t *testing.T, dir string, opts DurableOptions) *Durable {
	t.Helper()
	if opts.Session.Workers == 0 {
		opts.Session.Workers = 1
	}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	return d
}

func TestDurableRoundtripAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d := openDurable(t, dir, DurableOptions{Sync: wal.SyncNone})
	if err := d.Create("alpha", testInstance(1), 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Create("beta", testInstance(2), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Resolve(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch(ctx, "alpha", []Mutation{
		AddEvent(core.Event{Location: 1, Required: 1, Name: "late"}, map[int]float64{0: 0.9, 3: 0.4}),
		UpdateInterest(2, 1, 0.7),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch(ctx, "beta", []Mutation{SetK(5)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Create("gone", testInstance(3), 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	wantAlpha := canonicalState(t, d, "alpha")
	wantBeta := canonicalState(t, d, "beta")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir, DurableOptions{Sync: wal.SyncNone})
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("recovered %d sessions, want 2", re.Len())
	}
	if got := canonicalState(t, re, "alpha"); !bytes.Equal(got, wantAlpha) {
		t.Errorf("alpha diverged after restart:\n got: %s\nwant: %s", got, wantAlpha)
	}
	if got := canonicalState(t, re, "beta"); !bytes.Equal(got, wantBeta) {
		t.Errorf("beta diverged after restart:\n got: %s\nwant: %s", got, wantBeta)
	}
	if _, err := re.Meta("gone"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted session resurrected: %v", err)
	}

	// The recovered store keeps working durably.
	if _, err := re.ApplyBatch(ctx, "beta", []Mutation{UpdateInterest(1, 0, 0.3)}); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRecoveryWithoutClose simulates a crash: the store is
// abandoned (no Close, no final checkpoint) and a new one recovers
// purely from the log.
func TestDurableRecoveryWithoutClose(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d := openDurable(t, dir, DurableOptions{Sync: wal.SyncNone})
	if err := d.Create("crashy", testInstance(7), 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := d.ApplyBatch(ctx, "crashy", []Mutation{
			UpdateInterest(i%5, i%3, 0.1*float64(i+1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := canonicalState(t, d, "crashy")
	// Abandon d without Close: copy the log dir first so d's eventual
	// cleanup cannot interfere.
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	d.Close()

	re := openDurable(t, crashDir, DurableOptions{Sync: wal.SyncNone})
	defer re.Close()
	if got := canonicalState(t, re, "crashy"); !bytes.Equal(got, want) {
		t.Errorf("crash recovery diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestDurableStagedBatchSurvives covers the staged-mutation record: a
// batch whose resolve fails (cancelled context) leaves its mutations
// applied but uncommitted, and recovery reproduces exactly that.
func TestDurableStagedBatchSurvives(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d := openDurable(t, dir, DurableOptions{Sync: wal.SyncNone})
	if err := d.Create("staged", testInstance(9), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Resolve(ctx, "staged"); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := d.ApplyBatch(cancelled, "staged", []Mutation{
		UpdateInterest(0, 0, 0.9),
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: %v", err)
	}
	// A failing mutation mid-batch stages the valid prefix.
	if _, err := d.ApplyBatch(ctx, "staged", []Mutation{
		UpdateInterest(1, 1, 0.8),
		UpdateInterest(-1, 0, 0.5), // invalid user
	}); err == nil {
		t.Fatal("invalid mutation accepted")
	}
	want := canonicalState(t, d, "staged")
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	// The staged mutations commit with the next resolve; run it on the
	// live store so the crash image can be compared move for move.
	liveDelta, err := d.Resolve(ctx, "staged")
	if err != nil {
		t.Fatal(err)
	}
	liveSched, _ := d.Snapshot("staged")
	d.Close()

	re := openDurable(t, crashDir, DurableOptions{Sync: wal.SyncNone})
	defer re.Close()
	if got := canonicalState(t, re, "staged"); !bytes.Equal(got, want) {
		t.Errorf("staged state diverged:\n got: %s\nwant: %s", got, want)
	}
	// The next resolve commits the same staged work on both stores.
	// Cumulative counters legitimately differ here — the recovered
	// session's score cache is cold, so its first live resolve
	// re-scores fully — but schedule, utility and delta must match.
	reDelta, err := re.Resolve(ctx, "staged")
	if err != nil {
		t.Fatal(err)
	}
	reSched, _ := re.Snapshot("staged")
	if !reflect.DeepEqual(reSched.Schedule, liveSched.Schedule) || reSched.Utility != liveSched.Utility {
		t.Errorf("post-recovery resolve schedule diverged: %+v (Ω=%v) vs %+v (Ω=%v)",
			reSched.Schedule, reSched.Utility, liveSched.Schedule, liveSched.Utility)
	}
	if !reflect.DeepEqual(reDelta.Added, liveDelta.Added) ||
		!reflect.DeepEqual(reDelta.Removed, liveDelta.Removed) ||
		!reflect.DeepEqual(reDelta.Moved, liveDelta.Moved) ||
		reDelta.Utility != liveDelta.Utility {
		t.Errorf("post-recovery delta diverged: %+v vs %+v", reDelta, liveDelta)
	}
}

// TestDurableCheckpointTruncatesLog verifies a checkpoint bounds
// recovery: after Checkpoint, the shard replays zero records and the
// state still matches.
func TestDurableCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d := openDurable(t, dir, DurableOptions{Sync: wal.SyncNone})
	if err := d.Create("ck", testInstance(11), 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := d.ApplyBatch(ctx, "ck", []Mutation{UpdateInterest(i, 0, 0.5)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic lands in the fresh segment.
	if _, err := d.ApplyBatch(ctx, "ck", []Mutation{UpdateInterest(0, 1, 0.4)}); err != nil {
		t.Fatal(err)
	}
	want := canonicalState(t, d, "ck")
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	d.Close()

	re := openDurable(t, crashDir, DurableOptions{Sync: wal.SyncNone})
	defer re.Close()
	if got := canonicalState(t, re, "ck"); !bytes.Equal(got, want) {
		t.Errorf("post-checkpoint recovery diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestDurableAutoCheckpoint drives enough records through one shard
// to trip the background checkpointer and verifies the log shrank and
// recovery still matches.
func TestDurableAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d := openDurable(t, dir, DurableOptions{Sync: wal.SyncNone, CheckpointEvery: 8})
	if err := d.Create("auto", testInstance(13), 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := d.ApplyBatch(ctx, "auto", []Mutation{UpdateInterest(i%10, i%4, 0.3)}); err != nil {
			t.Fatal(err)
		}
	}
	// The background worker runs asynchronously; give it a moment.
	shard := shardIndex("auto")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if d.log.logs[shard].CheckpointSeq() > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d.log.logs[shard].CheckpointSeq() == 0 {
		t.Fatal("background checkpoint never ran")
	}
	want := canonicalState(t, d, "auto")
	crashDir := t.TempDir()
	// Later checkpoints may still be running. The worker holds the
	// shard's op lock for a whole checkpoint, so copying under it
	// crashes between two operations, never mid-checkpoint.
	func() {
		d.shards[shard].op.Lock()
		defer d.shards[shard].op.Unlock()
		copyTree(t, dir, crashDir)
	}()
	d.Close()

	re := openDurable(t, crashDir, DurableOptions{Sync: wal.SyncNone})
	defer re.Close()
	if got := canonicalState(t, re, "auto"); !bytes.Equal(got, want) {
		t.Errorf("auto-checkpoint recovery diverged")
	}
}

// TestDurableRestoreRecord covers the restore path end to end: a
// snapshot restored into a durable store survives a restart.
func TestDurableRestoreRecord(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d := openDurable(t, dir, DurableOptions{Sync: wal.SyncNone})
	if err := d.Create("orig", testInstance(21), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Resolve(ctx, "orig"); err != nil {
		t.Fatal(err)
	}
	st, err := d.Snapshot("orig")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Restore("copy", st, false); err != nil {
		t.Fatal(err)
	}
	if err := d.Restore("copy", st, false); !errors.Is(err, ErrExists) {
		t.Fatalf("replace=false collision: %v", err)
	}
	if err := d.Restore("copy", st, true); err != nil {
		t.Fatal(err)
	}
	want := canonicalState(t, d, "copy")
	d.Close()

	re := openDurable(t, dir, DurableOptions{Sync: wal.SyncNone})
	defer re.Close()
	if got := canonicalState(t, re, "copy"); !bytes.Equal(got, want) {
		t.Errorf("restored session diverged after restart")
	}
}

// deadlineAfter reports DeadlineExceeded once its Err has been checked
// a fixed number of times: a deadline that expires at a chosen point
// of a resolve, however fast the machine is.
type deadlineAfter struct {
	context.Context
	checks int
}

func (c *deadlineAfter) Err() error {
	if c.checks <= 0 {
		return context.DeadlineExceeded
	}
	c.checks--
	return nil
}

// TestDurableDeadlineStopInstallsVerbatim forces a deadline-stopped
// resolve (whose schedule a replayed solver could not reproduce) and
// checks recovery installs the stamped outcome bit-for-bit.
func TestDurableDeadlineStopInstallsVerbatim(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d := openDurable(t, dir, DurableOptions{Sync: wal.SyncNone})
	inst := sestest.Random(sestest.Config{Users: 300, Events: 48, Intervals: 8, Competing: 4, Seed: 31})
	if err := d.Create("dl", inst, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Resolve(ctx, "dl"); err != nil {
		t.Fatal(err)
	}
	// Let the deadline expire after more and more context checks until
	// one lands mid-selection with events scheduled (committing a
	// stopped best-so-far) rather than during scoring.
	var stopped bool
	for i := 0; i < 400 && !stopped; i++ {
		if _, err := d.ApplyBatch(ctx, "dl", []Mutation{UpdateInterest(i%300, i%48, 0.6)}); err != nil {
			t.Fatal(err)
		}
		delta, err := d.Resolve(&deadlineAfter{Context: ctx, checks: i}, "dl")
		if err != nil {
			continue // deadline hit one-shot scoring; nothing committed
		}
		m, err := d.Meta("dl")
		if err != nil {
			t.Fatal(err)
		}
		stopped = delta.Stopped != "" && m.Scheduled > 0
	}
	if !stopped {
		t.Fatal("no deadline landed mid-selection")
	}
	want := canonicalState(t, d, "dl")
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	d.Close()

	re := openDurable(t, crashDir, DurableOptions{Sync: wal.SyncNone})
	defer re.Close()
	if got := canonicalState(t, re, "dl"); !bytes.Equal(got, want) {
		t.Errorf("deadline-stopped commit diverged:\n got: %s\nwant: %s", got, want)
	}
}

func TestDurableClosedErrors(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{Sync: wal.SyncNone})
	if err := d.Create("x", testInstance(1), 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := d.Create("y", testInstance(2), 2); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Create after close: %v", err)
	}
	if _, err := d.Resolve(context.Background(), "x"); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Resolve after close: %v", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Checkpoint after close: %v", err)
	}
}

// TestDurableConcurrentStress hammers a durable store from many
// goroutines (sessions spread over shards, mixed ops, background
// checkpoints) and then proves a restart reproduces every session
// byte-for-byte. Run with -race in CI.
func TestDurableConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d := openDurable(t, dir, DurableOptions{Sync: wal.SyncNone, CheckpointEvery: 16})
	const sessions = 12
	names := make([]string, sessions)
	for i := range names {
		names[i] = fmt.Sprintf("stress-%d", i)
		if err := d.Create(names[i], testInstance(uint64(40+i)), 4); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			for op := 0; op < 30; op++ {
				var err error
				switch op % 4 {
				case 0, 1:
					_, err = d.ApplyBatch(ctx, name, []Mutation{
						UpdateInterest((op*7+i)%25, op%10, 0.05*float64(op%19)),
					})
				case 2:
					_, err = d.Resolve(ctx, name)
				default:
					_, err = d.ApplyBatch(ctx, name, []Mutation{
						AddCompeting(core.CompetingEvent{Interval: op % 4}, map[int]float64{op % 25: 0.5}),
						SetK(3 + op%3),
					})
				}
				if err != nil {
					errCh <- fmt.Errorf("%s op %d: %w", name, op, err)
					return
				}
			}
		}(i, name)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	want := make(map[string][]byte, sessions)
	for _, name := range names {
		want[name] = canonicalState(t, d, name)
	}
	// Quiesce the background checkpointer before copying the live dir:
	// a trigger queued by the last appends could otherwise truncate
	// segments mid-copy. A forced checkpoint resets every shard's
	// record count under its op mutex, turning queued triggers into
	// no-ops.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	for _, src := range []string{crashDir, dir} { // crash image and clean-close image
		re := openDurable(t, src, DurableOptions{Sync: wal.SyncNone})
		if re.Len() != sessions {
			t.Fatalf("%s: recovered %d sessions, want %d", src, re.Len(), sessions)
		}
		for _, name := range names {
			if got := canonicalState(t, re, name); !bytes.Equal(got, want[name]) {
				t.Errorf("%s: session %s diverged after recovery", src, name)
			}
		}
		re.Close()
	}
}

// copyTree copies a directory tree (the shard logs) byte-for-byte.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, info.Mode())
	})
	if err != nil {
		t.Fatalf("copyTree: %v", err)
	}
}

// unserializableActivity is a σ model the dataset codec has no wire
// form for, so snapshot encoding of an instance carrying it fails.
type unserializableActivity struct{}

func (unserializableActivity) Prob(user, interval int) float64 { return 0.5 }

// TestDurableRestoreEncodeFailureLeavesStoreUntouched covers the
// replace=true hole: when the restore record cannot be encoded, the
// pre-existing session must survive untouched (an apply-then-undo
// would have deleted it).
func TestDurableRestoreEncodeFailureLeavesStoreUntouched(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{Sync: wal.SyncNone})
	defer d.Close()
	if err := d.Create("keep", testInstance(61), 3); err != nil {
		t.Fatal(err)
	}
	want := canonicalState(t, d, "keep")

	st, err := d.Snapshot("keep")
	if err != nil {
		t.Fatal(err)
	}
	st.Inst.Activity = unserializableActivity{}
	if err := d.Restore("keep", st, true); err == nil {
		t.Fatal("unserializable restore accepted")
	}
	if got := canonicalState(t, d, "keep"); !bytes.Equal(got, want) {
		t.Errorf("failed restore mutated the session:\n got: %s\nwant: %s", got, want)
	}
	// The store is not poisoned: nothing reached memory or log.
	if _, err := d.ApplyBatch(context.Background(), "keep", []Mutation{SetK(4)}); err != nil {
		t.Errorf("store unusable after failed restore: %v", err)
	}
}

// TestDurablePoisonBlocksCheckpoints latches a poison error and
// asserts Checkpoint refuses: after an append failure the in-memory
// state may be ahead of the log, and a checkpoint would persist
// unacknowledged work.
func TestDurablePoisonBlocksCheckpoints(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{Sync: wal.SyncNone})
	defer d.Close()
	if err := d.Create("p", testInstance(62), 3); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	d.log.poison.Store(&boom)
	if err := d.Checkpoint(); err == nil {
		t.Error("Checkpoint ran on a poisoned store")
	}
	if err := d.Create("q", testInstance(63), 3); err == nil {
		t.Error("Create ran on a poisoned store")
	}
	// Close must not write a final checkpoint either (guarded inside).
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, dir, DurableOptions{Sync: wal.SyncNone})
	defer re.Close()
	// Recovery still sees the pre-poison log (the create record).
	if re.Len() != 1 {
		t.Errorf("recovered %d sessions, want 1", re.Len())
	}
}

// TestDurableCommitSignal pins the store-wide commit signal: an append
// with no waiter publishes nothing; waiters share one channel; a
// commit closes it only once ShardCommitted shows the append; and a
// closed channel is never handed out again.
func TestDurableCommitSignal(t *testing.T) {
	ctx := context.Background()
	d := openDurable(t, t.TempDir(), DurableOptions{Sync: wal.SyncAlways})
	defer d.Close()
	if err := d.Create("sig", testInstance(1), 3); err != nil {
		t.Fatal(err)
	}
	if d.log.commits.Load() != nil {
		t.Fatal("an append with no waiter created a commit signal")
	}
	ch := d.Commits()
	if d.Commits() != ch {
		t.Fatal("two waiters of one commit got different channels")
	}
	select {
	case <-ch:
		t.Fatal("signal closed before any commit")
	default:
	}
	shard := ShardOf("sig")
	before := d.ShardCommitted(shard)
	if _, err := d.ApplyBatch(ctx, "sig", []Mutation{SetK(2)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("a commit did not close the signal")
	}
	if !before.Before(d.ShardCommitted(shard)) {
		t.Fatal("the signal fired but the watermark did not move")
	}
	if d.Commits() == ch {
		t.Fatal("a closed signal was handed out again")
	}
}

// TestDurableCommitSignalLosesNoWake runs the waiter protocol (take
// the channel, then read the watermark, then wait) against concurrent
// appenders on several shards: every waiter must see its shard's final
// watermark, which a lost wake-up would turn into a stall.
func TestDurableCommitSignalLosesNoWake(t *testing.T) {
	ctx := context.Background()
	d := openDurable(t, t.TempDir(), DurableOptions{Sync: wal.SyncNone})
	defer d.Close()
	const writers, batches = 4, 20
	names := make([]string, writers)
	final := make([]atomic.Pointer[wal.Cursor], writers)
	for i := range names {
		names[i] = fmt.Sprintf("wake-%d", i)
		if err := d.Create(names[i], testInstance(uint64(i)+1), 3); err != nil {
			t.Fatal(err)
		}
	}
	var waiters sync.WaitGroup
	for i := range names {
		waiters.Add(1)
		go func(i int) {
			defer waiters.Done()
			shard := ShardOf(names[i])
			for {
				ch := d.Commits()
				w := d.ShardCommitted(shard)
				if f := final[i].Load(); f != nil && !w.Before(*f) {
					return
				}
				select {
				case <-ch:
				case <-time.After(5 * time.Second):
					t.Errorf("waiter on shard %d stalled at %s: a commit wake was lost", shard, w)
					return
				}
			}
		}(i)
	}
	var appenders sync.WaitGroup
	for i := range names {
		appenders.Add(1)
		go func(i int) {
			defer appenders.Done()
			for b := 0; b < batches; b++ {
				if _, err := d.ApplyBatch(ctx, names[i], []Mutation{UpdateInterest(b%20, b%3, 0.5)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	appenders.Wait()
	for i := range names {
		c := d.ShardCommitted(ShardOf(names[i]))
		final[i].Store(&c)
	}
	// One more commit wakes every waiter parked before the finals were
	// published.
	if _, err := d.ApplyBatch(ctx, names[0], []Mutation{SetK(2)}); err != nil {
		t.Fatal(err)
	}
	waiters.Wait()
}

// TestDurableWatermarkSeededAtOpen pins the open-time watermark: after
// a crash it is the end of the last recovered record (even with a torn
// tail behind it, where the log's raw position is not a record
// boundary), after a clean restart it is the checkpoint boundary, and
// a shard with no history stays zero.
func TestDurableWatermarkSeededAtOpen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	opts := DurableOptions{Sync: wal.SyncNone, CheckpointEvery: -1}
	d := openDurable(t, dir, opts)
	if err := d.Create("seed", testInstance(3), 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.ApplyBatch(ctx, "seed", []Mutation{UpdateInterest(i, i%3, 0.3)}); err != nil {
			t.Fatal(err)
		}
	}
	shard := ShardOf("seed")
	want := d.ShardCommitted(shard)
	crashDir, tornDir := t.TempDir(), t.TempDir()
	copyTree(t, dir, crashDir)
	copyTree(t, dir, tornDir)
	d.Close()

	re := openDurable(t, crashDir, opts)
	if got := re.ShardCommitted(shard); got != want {
		t.Errorf("after a crash, ShardCommitted = %s, want the last record's end %s", got, want)
	}
	other := (shard + 1) % NumShards
	if got := re.ShardCommitted(other); !got.IsZero() {
		t.Errorf("untouched shard %d has watermark %s, want zero", other, got)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	clean := openDurable(t, crashDir, opts)
	defer clean.Close()
	if got := clean.ShardCommitted(shard); got.Off != 0 || !want.Before(got) {
		t.Errorf("after a clean restart, ShardCommitted = %s, want the checkpoint boundary past %s", got, want)
	}

	segs, err := filepath.Glob(filepath.Join(ShardDir(tornDir, shard), "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in the torn copy: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	torn := openDurable(t, tornDir, opts)
	defer torn.Close()
	if got := torn.ShardCommitted(shard); got != want {
		t.Errorf("with a torn tail, ShardCommitted = %s, want the last record's end %s", got, want)
	}
	if pos := torn.ShardPosition(shard); !want.Before(pos) {
		t.Errorf("ShardPosition %s should count the torn bytes past %s", pos, want)
	}
}
