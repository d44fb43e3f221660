package store

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/obs"
	"ses/internal/session"
	"ses/internal/snap"
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
//
// Layout: the data directory holds one wal.Log per registry shard
// (shard-00 … shard-63); a session's records always land in the log
// of the shard its name hashes to. Mutating operations append a
// record — the logical mutations plus a physical commit stamp — and,
// depending on the sync policy, fsync before acknowledging. A
// background worker checkpoints a shard (full binary snapshots of its
// sessions, via the snap codec) after CheckpointEvery records and
// truncates the segments the checkpoint covers; Close writes a final
// checkpoint so clean restarts replay nothing.
//
// Recovery (in OpenDurable) loads each shard's newest checkpoint and
// replays the records after it: mutations are re-applied and the
// recorded commit outcome is installed verbatim, so the recovered
// session State — schedule, utility, objective, counters — is
// byte-identical to the acknowledged one, torn log tails lose only
// unacknowledged work, and a record never applies twice.
//
// Durability covers the Store surface: Create, Delete, Restore,
// ApplyBatch, Resolve. Mutating a session directly through Get
// bypasses the log (exactly as it bypasses the store's counters) and
// such changes are reconstructed at the next logged commit's stamp
// only in so far as they are visible in it; served traffic should go
// through ApplyBatch.
type Durable struct {
	*Store
	dir  string
	opts DurableOptions

	logs    [numShards]*wal.Log
	shardMu [numShards]sync.Mutex
	// since counts records appended to a shard since its last
	// checkpoint; guarded by the shard's op mutex.
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

	flusher *wal.Flusher
	ckptCh  chan int
	done    chan struct{}
	wg      sync.WaitGroup

	// recovery is how long OpenDurable took to open the shard logs and
	// recover every session.
	recovery time.Duration

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
		Store:  New(opts.Session),
		dir:    dir,
		opts:   opts,
		ckptCh: make(chan int, numShards),
		done:   make(chan struct{}),
	}
	if opts.Sink != nil {
		d.Store.SetSink(opts.Sink)
	}
	walOpts := wal.Options{Sync: opts.Sync, SegmentMaxBytes: opts.SegmentMaxBytes}
	for i := range d.logs {
		l, err := wal.Open(d.shardDir(i), walOpts)
		if err != nil {
			return nil, err
		}
		d.logs[i] = l
	}
	for i := range d.logs {
		if err := d.recoverShard(i); err != nil {
			return nil, fmt.Errorf("store: recovering %s: %w", d.shardDir(i), err)
		}
	}
	d.recovery = time.Since(start)
	if opts.Sync == wal.SyncInterval {
		d.flusher = wal.NewFlusher(opts.SyncInterval, d.logs[:])
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
	for _, l := range d.logs {
		total.Add(l.Stats())
	}
	return total
}

// recoverShard rebuilds one shard from its checkpoint and log.
func (d *Durable) recoverShard(i int) error {
	l := d.logs[i]
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
		d.committed[i].Store(&end)
	}
	d.since[i] = rep.Records
	return nil
}

// err surfaces the closed flag or the latched append failure.
func (d *Durable) err() error {
	if d.closed.Load() {
		return ErrStoreClosed
	}
	if p := d.poison.Load(); p != nil {
		return fmt.Errorf("store: durable store failed earlier: %w", *p)
	}
	return nil
}

// append writes one record to shard i's log (the caller holds the
// shard's op mutex) and schedules a background checkpoint when the
// shard's record budget is spent. The op mutex spans the fsync, so a
// shard's log has one writer at a time and no other operation on the
// shard sees state that is not yet durable; different shards fsync
// their own files in parallel.
func (d *Durable) append(i int, payload []byte) error {
	pos, err := d.logs[i].AppendCursor(payload)
	if err != nil {
		d.poison.CompareAndSwap(nil, &err)
		return fmt.Errorf("store: WAL append failed (store is now read-only): %w", err)
	}
	d.committed[i].Store(&pos)
	if ch := d.commits.Load(); ch != nil && d.commits.CompareAndSwap(ch, nil) {
		close(*ch)
	}
	d.since[i]++
	if every := d.opts.checkpointEvery(); every > 0 && d.since[i] >= every {
		select {
		case d.ckptCh <- i:
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
		case i := <-d.ckptCh:
			d.shardMu[i].Lock()
			// Re-check under the lock: a manual Checkpoint may have
			// run between the trigger and now. Never checkpoint a
			// poisoned store — after an append failure the in-memory
			// state can be ahead of the log, and persisting it would
			// turn unacknowledged work into recovered state.
			if every := d.opts.checkpointEvery(); every > 0 && d.since[i] >= every && d.poison.Load() == nil {
				d.checkpointShardLocked(i) // best effort; Close retries
			}
			d.shardMu[i].Unlock()
		}
	}
}

// checkpointShardLocked snapshots every session in shard i and
// installs the result as the shard log's checkpoint, truncating the
// covered segments. Caller holds the shard's op mutex, which is what
// makes the snapshot consistent with the log position.
func (d *Durable) checkpointShardLocked(i int) error {
	handles := d.Store.handlesInShard(i)
	entries := make([]WALCheckpointEntry, 0, len(handles))
	for _, h := range handles {
		doc, err := snap.FromState(h.name, h.sched.ExportState())
		if err != nil {
			return err
		}
		entries = append(entries, WALCheckpointEntry{
			Name:      h.name,
			Resolves:  h.resolves.Load(),
			Mutations: h.mutations.Load(),
			Batches:   h.batches.Load(),
			Epoch:     d.Store.Epoch(),
			Snapshot:  doc,
		})
	}
	data, err := encodeCheckpoint(entries)
	if err != nil {
		return err
	}
	if err := d.logs[i].WriteCheckpoint(data); err != nil {
		return err
	}
	d.since[i] = 0
	return nil
}

// Checkpoint forces a checkpoint of every shard that holds data,
// truncating their logs. It is what Close runs as its final act; call
// it directly to bound recovery time without restarting. Like every
// durable operation it refuses to run on a poisoned store: after an
// append failure the in-memory state may be ahead of the log, and a
// checkpoint would persist work that was never acknowledged.
func (d *Durable) Checkpoint() error {
	if err := d.err(); err != nil {
		return err
	}
	var firstErr error
	for i := range d.logs {
		d.shardMu[i].Lock()
		if d.logs[i].HasData() {
			if err := d.checkpointShardLocked(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		d.shardMu[i].Unlock()
	}
	return firstErr
}

// Close checkpoints every dirty shard and closes the logs. The store
// must not be used afterwards. A clean Close means the next
// OpenDurable replays no records at all.
func (d *Durable) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	close(d.done)
	d.wg.Wait()
	if d.flusher != nil {
		d.flusher.Stop()
	}
	var firstErr error
	for i := range d.logs {
		d.shardMu[i].Lock()
		if d.logs[i].HasData() && d.poison.Load() == nil {
			if err := d.checkpointShardLocked(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := d.logs[i].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		d.shardMu[i].Unlock()
	}
	return firstErr
}

// Create registers a new durable session; see Store.Create.
func (d *Durable) Create(name string, inst *core.Instance, k int) error {
	return d.CreateWithObjective(name, inst, k, nil)
}

// CreateWithObjective is Create with a per-session objective; the
// create record (a full snapshot of the fresh session) reaches the
// log before the call acknowledges.
func (d *Durable) CreateWithObjective(name string, inst *core.Instance, k int, obj choice.Objective) error {
	if err := d.err(); err != nil {
		return err
	}
	i := shardIndex(name)
	d.shardMu[i].Lock()
	defer d.shardMu[i].Unlock()
	if err := d.Store.CreateWithObjective(name, inst, k, obj); err != nil {
		return err
	}
	h, err := d.Store.lookup(name)
	if err != nil {
		return err
	}
	payload, err := encodeCreateRecord(name, h.sched.ExportState())
	if err != nil {
		// The record cannot be built, so the create cannot be made
		// durable; undo it rather than acknowledge a phantom.
		d.Store.Delete(name)
		return err
	}
	if err := d.append(i, payload); err != nil {
		d.Store.Delete(name)
		return err
	}
	return nil
}

// Restore installs a session from a snapshot state; see
// Store.Restore. The restore record carries the full state.
func (d *Durable) Restore(name string, st *session.State, replace bool) error {
	if err := d.err(); err != nil {
		return err
	}
	i := shardIndex(name)
	d.shardMu[i].Lock()
	defer d.shardMu[i].Unlock()
	// Encode before applying: if the state cannot be made durable the
	// in-memory store must stay untouched (with replace=true an
	// apply-then-undo would destroy the pre-existing session).
	payload, err := encodeRestoreRecord(name, st, replace)
	if err != nil {
		return err
	}
	if err := d.Store.Restore(name, st, replace); err != nil {
		return err
	}
	return d.append(i, payload)
}

// Adopt installs a session taken over from a dead peer's replica: a
// replacing restore whose record also carries the session's meta
// counters, so the promoted copy — and any copy recovered or
// replicated from its record — is indistinguishable from the
// acknowledged original, Meta included. epoch is the promotion epoch
// the takeover happened under; it is logged with the record and
// raises the store's observed epoch, fencing stale primaries.
func (d *Durable) Adopt(name string, st *session.State, resolves, mutations, batches, epoch uint64) error {
	if err := d.err(); err != nil {
		return err
	}
	i := shardIndex(name)
	d.shardMu[i].Lock()
	defer d.shardMu[i].Unlock()
	d.bumpEpoch(epoch)
	payload, err := encodeAdoptRecord(name, st, resolves, mutations, batches, epoch)
	if err != nil {
		return err
	}
	if err := d.Store.Restore(name, st, true); err != nil {
		return err
	}
	h, err := d.Store.lookup(name)
	if err != nil {
		return err
	}
	h.resolves.Store(resolves)
	h.mutations.Store(mutations)
	h.batches.Store(batches)
	d.Store.refresh(h)
	return d.append(i, payload)
}

// Delete removes a session; see Store.Delete.
func (d *Durable) Delete(name string) error {
	if err := d.err(); err != nil {
		return err
	}
	i := shardIndex(name)
	d.shardMu[i].Lock()
	defer d.shardMu[i].Unlock()
	if err := d.Store.Delete(name); err != nil {
		return err
	}
	return d.append(i, encodeDeleteRecord(name))
}

// Resolve re-solves one session incrementally and logs the committed
// outcome before acknowledging; see Store.Resolve.
func (d *Durable) Resolve(ctx context.Context, name string) (*session.Delta, error) {
	if err := d.err(); err != nil {
		return nil, err
	}
	i := shardIndex(name)
	d.shardMu[i].Lock()
	defer d.shardMu[i].Unlock()
	h, err := d.Store.lookup(name)
	if err != nil {
		return nil, err
	}
	delta, err := h.sched.Resolve(ctx)
	if err != nil {
		// Nothing committed, nothing to log.
		return nil, err
	}
	payload, encErr := encodeResolveRecord(resolveRec{Name: name, Commit: *stampOf(h.sched), Trace: obs.TraceID(ctx)})
	if encErr != nil {
		// The commit is already in memory but cannot be logged: the
		// state is ahead of the log, so latch the poison exactly like
		// an append failure. (Session-level validation makes this
		// near-unreachable; it is the same defense append has.)
		d.poison.CompareAndSwap(nil, &encErr)
		return nil, encErr
	}
	_, fsp := obs.StartSpan(ctx, obs.SpanWALFsync, obs.A("shard", i), obs.A("bytes", len(payload)))
	err = d.append(i, payload)
	fsp.End()
	if err != nil {
		return nil, err
	}
	h.resolves.Add(1)
	d.Store.refresh(h)
	d.Store.emitCommit(h, delta)
	return delta, nil
}

// ApplyBatch applies a mutation group and commits it with one
// incremental resolve, exactly like Store.ApplyBatch — plus the
// durability contract: the applied mutations and the commit outcome
// reach the log before the call returns. Following the in-memory
// semantics, a mutation or resolve error leaves the valid mutation
// prefix applied (staged for the next resolve); the record then
// carries that prefix without a commit stamp, so recovery stages
// exactly the same work.
func (d *Durable) ApplyBatch(ctx context.Context, name string, muts []Mutation) (*BatchResult, error) {
	if err := d.err(); err != nil {
		return nil, err
	}
	i := shardIndex(name)
	d.shardMu[i].Lock()
	defer d.shardMu[i].Unlock()
	h, err := d.Store.lookup(name)
	if err != nil {
		return nil, err
	}
	res := &BatchResult{}
	applied := 0
	var opErr error
	for idx, m := range muts {
		id, err := m.ApplyTo(h.sched)
		if err != nil {
			opErr = fmt.Errorf("store: batch mutation %d (%s): %w", idx, m.Op, err)
			break
		}
		h.mutations.Add(1)
		applied++
		switch m.Op {
		case OpAddEvent:
			res.EventIDs = append(res.EventIDs, id)
		case OpAddCompeting:
			res.CompetingIDs = append(res.CompetingIDs, id)
		}
	}
	var stamp *commitStamp
	if opErr == nil {
		delta, rerr := h.sched.Resolve(ctx)
		if rerr != nil {
			opErr = rerr
		} else {
			res.Delta = delta
			stamp = stampOf(h.sched)
		}
	}
	if applied > 0 || stamp != nil {
		payload, encErr := encodeBatchRecord(batchRec{Name: name, Muts: muts[:applied], Commit: stamp, Trace: obs.TraceID(ctx)})
		if encErr != nil {
			// Mutations (and possibly a commit) are in memory but
			// cannot be logged; latch the poison like an append
			// failure so the divergence cannot widen.
			d.poison.CompareAndSwap(nil, &encErr)
			return nil, encErr
		}
		_, fsp := obs.StartSpan(ctx, obs.SpanWALFsync, obs.A("shard", i), obs.A("bytes", len(payload)))
		err := d.append(i, payload)
		fsp.End()
		if err != nil {
			return nil, err
		}
	}
	if opErr != nil {
		return nil, opErr
	}
	h.resolves.Add(1)
	h.batches.Add(1)
	d.Store.refresh(h)
	d.Store.emitCommit(h, res.Delta)
	return res, nil
}
