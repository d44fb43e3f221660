package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ses/internal/session"
	"ses/internal/wal"
)

// ErrStoreClosed reports an operation on a closed durable store.
var ErrStoreClosed = errors.New("store: durable store is closed")

// DurableOptions configures OpenDurable; the zero value is usable
// (SyncAlways, 64 MiB segments, checkpoint every 1024 records).
type DurableOptions struct {
	// Session configures every session the store creates or restores,
	// exactly like New's options.
	Session session.Options
	// Sync is the WAL append durability policy (see wal.SyncPolicy).
	Sync wal.SyncPolicy
	// SyncInterval is the flush period under wal.SyncInterval
	// (0 = 50ms).
	SyncInterval time.Duration
	// CheckpointEvery triggers a background checkpoint of a shard once
	// that many records accumulated in its log since the last one
	// (0 = 1024; negative disables automatic checkpoints — Close and
	// Checkpoint still write them).
	CheckpointEvery int
	// SegmentMaxBytes rotates log segments beyond this size
	// (0 = 64 MiB).
	SegmentMaxBytes int64
	// Sink, when set, is installed before recovery so recovered
	// sessions stream progress too (see Store.SetSink).
	Sink Sink
}

func (o DurableOptions) checkpointEvery() int {
	if o.CheckpointEvery == 0 {
		return 1024
	}
	return o.CheckpointEvery
}

// Durable is a Store whose every acknowledged state change is
// recorded in a per-shard write-ahead log before the call returns,
// and which recovers the acknowledged state exactly after a crash.
// Its Store methods are the memory store's: the embedded Store points
// at the shard logs, and its one write path appends to them (see the
// package doc). Durable itself adds only what concerns the logs:
// opening and recovery, checkpoints, Close, the replication
// watermarks, the commit signal and the append counters.
//
// Layout: the data directory holds one wal.Log per registry shard
// (shard-00 … shard-63); a session's records always land in the log
// of the shard its name hashes to. Every write holds its shard's op
// lock across its append and, depending on the sync policy, the
// fsync, so a shard's log has one writer at a time and no operation
// on the shard sees state that is not yet durable. A create, restore,
// adopt or delete appends its record before it changes the registry;
// a batch or resolve appends the applied mutations plus a physical
// commit stamp after it ran. A background worker checkpoints a shard
// (full binary snapshots of its sessions, via the snap codec) after
// CheckpointEvery records and truncates the segments the checkpoint
// covers; Close writes a final checkpoint so clean restarts replay
// nothing.
//
// Recovery (in OpenDurable) loads each shard's newest checkpoint and
// replays the records after it: mutations are re-applied and the
// recorded commit outcome is installed verbatim, so the recovered
// session State — schedule, utility, objective, counters — is
// byte-identical to the acknowledged one, torn log tails lose only
// unacknowledged work, and a record never applies twice.
//
// Durability covers the Store surface: Create, Delete, Restore,
// Adopt, ApplyBatch, Resolve. Mutating a session directly through Get
// bypasses the log (exactly as it bypasses the store's counters) and
// such changes are reconstructed at the next logged commit's stamp
// only in so far as they are visible in it; served traffic should go
// through ApplyBatch.
type Durable struct {
	*Store
	dir string

	flusher *wal.Flusher
	done    chan struct{}
	wg      sync.WaitGroup

	// recovery is how long OpenDurable took to open the shard logs and
	// recover every session.
	recovery time.Duration
}

// shardLogs is a durable store's write-ahead side: one log per shard
// and the state its appends keep. The store's write path reaches it
// through Store.log.
type shardLogs struct {
	logs [numShards]*wal.Log
	// every is the checkpoint trigger (DurableOptions.CheckpointEvery).
	every int
	// since counts records appended to a shard since its last
	// checkpoint; guarded by the shard's op lock.
	since [numShards]int
	// committed holds each shard's cursor just past its last append —
	// the replication watermark ShardCommitted serves without taking
	// the log mutex.
	committed [numShards]atomic.Pointer[wal.Cursor]
	// commits is the store-wide commit signal Commits hands out: nil
	// until a waiter asks, then closed (and cleared) by the next
	// append. Appends never touch it otherwise, so the store does not
	// depend on anyone waiting.
	commits atomic.Pointer[chan struct{}]
	ckptCh  chan int

	closed atomic.Bool
	// poison latches the first WAL append failure: once the log and
	// the in-memory state can disagree, every later durable op fails
	// fast instead of widening the divergence.
	poison atomic.Pointer[error]
}

// OpenDurable opens (creating or recovering) a durable store rooted
// at dir. Recovery replays every shard's checkpoint and log before
// the store is returned, so the result is ready to serve.
func OpenDurable(dir string, opts DurableOptions) (*Durable, error) {
	start := time.Now()
	d := &Durable{
		Store: New(opts.Session),
		dir:   dir,
		done:  make(chan struct{}),
	}
	l := &shardLogs{every: opts.checkpointEvery(), ckptCh: make(chan int, numShards)}
	d.Store.log = l
	if opts.Sink != nil {
		d.Store.SetSink(opts.Sink)
	}
	walOpts := wal.Options{Sync: opts.Sync, SegmentMaxBytes: opts.SegmentMaxBytes}
	for i := range l.logs {
		wl, err := wal.Open(d.shardDir(i), walOpts)
		if err != nil {
			return nil, err
		}
		l.logs[i] = wl
	}
	for i := range l.logs {
		if err := d.recoverShard(i); err != nil {
			return nil, fmt.Errorf("store: recovering %s: %w", d.shardDir(i), err)
		}
	}
	d.recovery = time.Since(start)
	if opts.Sync == wal.SyncInterval {
		d.flusher = wal.NewFlusher(opts.SyncInterval, l.logs[:])
	}
	d.wg.Add(1)
	go d.checkpointWorker()
	return d, nil
}

// shardDir names a shard's log directory.
func (d *Durable) shardDir(i int) string {
	return filepath.Join(d.dir, fmt.Sprintf("shard-%02d", i))
}

// Dir returns the store's data directory.
func (d *Durable) Dir() string { return d.dir }

// Recovery returns how long OpenDurable took to open the shard logs
// and recover every session from its checkpoint and records.
func (d *Durable) Recovery() time.Duration { return d.recovery }

// WALStats sums the append-path counters of every shard log: appends
// and fsyncs (see wal.Stats.RecordsPerFsync).
func (d *Durable) WALStats() wal.Stats {
	var total wal.Stats
	for _, l := range d.log.logs {
		total.Add(l.Stats())
	}
	return total
}

// recoverShard rebuilds one shard from its checkpoint and log.
func (d *Durable) recoverShard(i int) error {
	l := d.log.logs[i]
	if data := l.Checkpoint(); data != nil {
		entries, err := DecodeWALCheckpoint(data)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := d.Store.ApplyCheckpointEntry(e); err != nil {
				return err
			}
		}
	}
	// The watermark starts at the recovered log end: the checkpoint
	// boundary, then the end of each replayed record. (Not
	// Log.Position, which past a torn tail names a cursor no record
	// reaches.) Records from before a restart thus ship without
	// waiting for the shard's next append.
	end := wal.Cursor{Seq: l.CheckpointSeq()}
	rep, err := l.Replay(func(r wal.Record) error {
		rec, err := DecodeWALRecord(r.Payload)
		if err != nil {
			return fmt.Errorf("segment %x offset %d: %w", r.Seq, r.Offset, err)
		}
		end = wal.Cursor{Seq: r.Seq, Off: r.End}
		return d.Store.ApplyWALRecord(rec)
	})
	if err != nil {
		return err
	}
	if !end.IsZero() {
		d.log.committed[i].Store(&end)
	}
	d.log.since[i] = rep.Records
	return nil
}

// err surfaces the closed flag or the latched append failure.
func (l *shardLogs) err() error {
	if l.closed.Load() {
		return ErrStoreClosed
	}
	if p := l.poison.Load(); p != nil {
		return fmt.Errorf("store: durable store failed earlier: %w", *p)
	}
	return nil
}

// append writes one record to shard i's log (the caller holds the
// shard's op lock, which spans the fsync; different shards fsync
// their own files in parallel) and schedules a background checkpoint
// when the shard's record budget is spent.
func (l *shardLogs) append(i int, payload []byte) error {
	pos, err := l.logs[i].AppendCursor(payload)
	if err != nil {
		l.poison.CompareAndSwap(nil, &err)
		return fmt.Errorf("store: WAL append failed (store is now read-only): %w", err)
	}
	l.committed[i].Store(&pos)
	if ch := l.commits.Load(); ch != nil && l.commits.CompareAndSwap(ch, nil) {
		close(*ch)
	}
	l.since[i]++
	if l.every > 0 && l.since[i] >= l.every {
		select {
		case l.ckptCh <- i:
		default: // a checkpoint is already queued; it will cover this too
		}
	}
	return nil
}

// checkpointWorker runs background shard checkpoints.
func (d *Durable) checkpointWorker() {
	defer d.wg.Done()
	for {
		select {
		case <-d.done:
			return
		case i := <-d.log.ckptCh:
			sh := &d.shards[i]
			sh.op.Lock()
			// Re-check under the lock: a manual Checkpoint may have
			// run between the trigger and now. Never checkpoint a
			// poisoned store — after an append failure the in-memory
			// state can be ahead of the log, and persisting it would
			// turn unacknowledged work into recovered state.
			if d.log.every > 0 && d.log.since[i] >= d.log.every && d.log.poison.Load() == nil {
				d.checkpointShardLocked(i) // best effort; Close retries
			}
			sh.op.Unlock()
		}
	}
}

// checkpointShardLocked installs shard i's export as the shard log's
// checkpoint, truncating the covered segments. Caller holds the
// shard's op lock, which is what makes the snapshot consistent with
// the log position.
func (d *Durable) checkpointShardLocked(i int) error {
	entries, err := d.exportShardLocked(i)
	if err != nil {
		return err
	}
	data, err := encodeCheckpoint(entries)
	if err != nil {
		return err
	}
	if err := d.log.logs[i].WriteCheckpoint(data); err != nil {
		return err
	}
	d.log.since[i] = 0
	return nil
}

// Checkpoint forces a checkpoint of every shard that holds data,
// truncating their logs. It is what Close runs as its final act; call
// it directly to bound recovery time without restarting. Like every
// durable operation it refuses to run on a poisoned store: after an
// append failure the in-memory state may be ahead of the log, and a
// checkpoint would persist work that was never acknowledged.
func (d *Durable) Checkpoint() error {
	if err := d.log.err(); err != nil {
		return err
	}
	var firstErr error
	for i, l := range d.log.logs {
		sh := &d.shards[i]
		sh.op.Lock()
		if l.HasData() {
			if err := d.checkpointShardLocked(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sh.op.Unlock()
	}
	return firstErr
}

// Close checkpoints every dirty shard and closes the logs. The store
// must not be used afterwards. A clean Close means the next
// OpenDurable replays no records at all.
func (d *Durable) Close() error {
	if d.log.closed.Swap(true) {
		return nil
	}
	close(d.done)
	d.wg.Wait()
	if d.flusher != nil {
		d.flusher.Stop()
	}
	var firstErr error
	for i, l := range d.log.logs {
		sh := &d.shards[i]
		sh.op.Lock()
		if l.HasData() && d.log.poison.Load() == nil {
			if err := d.checkpointShardLocked(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		sh.op.Unlock()
	}
	return firstErr
}
