package store

import (
	"context"
	"fmt"

	"ses/internal/session"
	"ses/internal/wal"
)

// Replication hooks: the cluster layer (ses/internal/cluster) ships a
// primary's per-shard WAL to followers, and followers rebuild the
// primary's sessions in a plain in-memory Store by applying the same
// records recovery replays, through the same write path, so a
// follower that applied records up to a cursor holds exactly the
// state a crashed primary would recover at that cursor.

// NumShards is the registry stripe width: a durable store keeps one
// WAL per shard, and the replication stream is multiplexed per shard.
const NumShards = numShards

// ShardOf returns the shard index a session name hashes to (the
// FNV-1a placement every layer of the store shares).
func ShardOf(name string) int { return shardIndex(name) }

// ShardDir names shard i's log directory under a durable store rooted
// at dir, without needing the store open. It must match
// Durable.shardDir.
func ShardDir(dir string, i int) string {
	return (&Durable{dir: dir}).shardDir(i)
}

// ShardPosition returns the append position of shard i's log: the
// cursor a fully-caught-up follower of this store would hold.
func (d *Durable) ShardPosition(i int) wal.Cursor {
	return d.log.logs[i].Position()
}

// ShardCommitted returns the cursor just past the last record
// committed to shard i's log — acknowledged by its Append, so fsynced
// under wal.SyncAlways. It is the replication watermark: a
// synchronous-ack wait compares follower acks against it, and the
// shipper never ships a record past it. Unlike ShardPosition it never
// touches the log mutex (which fsyncs hold), so the serving path can
// read it per request. OpenDurable seeds it with the end of the
// recovered log (the checkpoint boundary when no record follows it);
// it is zero only for a shard with no history at all.
func (d *Durable) ShardCommitted(i int) wal.Cursor {
	if c := d.log.committed[i].Load(); c != nil {
		return *c
	}
	return wal.Cursor{}
}

// Commits returns a channel that is closed by the next append to any
// shard, once that append is committed (after its fsync under
// wal.SyncAlways, after its write otherwise) and ShardCommitted shows
// it. A waiter takes the channel BEFORE reading ShardCommitted, so a
// commit landing between the read and the wait still wakes it. One
// channel covers every shard: a waiter rereads the watermarks it
// cares about after each wake.
func (d *Durable) Commits() <-chan struct{} {
	for {
		if ch := d.log.commits.Load(); ch != nil {
			return *ch
		}
		ch := make(chan struct{})
		if d.log.commits.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// Epoch returns the highest promotion epoch this store has observed:
// the max across adopt records applied (live, replayed or replicated)
// and checkpoint entries installed. 0 means no fenced promotion ever
// touched this store's history.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// bumpEpoch raises the observed epoch to e (monotonic max).
func (s *Store) bumpEpoch(e uint64) {
	for {
		cur := s.epoch.Load()
		if e <= cur || s.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// ExportShardEntries snapshots every session in shard i in the
// checkpoint-entry format, stamped with the store's current epoch.
// The cluster layer serves these to a promoting peer so it can adopt
// the freshest surviving replica of each shard, not just its own. It
// takes the shard's op lock, so each entry is one commit's state.
func (s *Store) ExportShardEntries(i int) ([]WALCheckpointEntry, error) {
	sh := &s.shards[i]
	sh.op.Lock()
	defer sh.op.Unlock()
	return s.exportShardLocked(i)
}

// EncodeWALCheckpoint serializes checkpoint entries into the payload
// format DecodeWALCheckpoint parses; the replication layer uses the
// pair as its shard-state transfer codec.
func EncodeWALCheckpoint(entries []WALCheckpointEntry) ([]byte, error) {
	return encodeCheckpoint(entries)
}

// ApplyWALRecord applies one logged record to the store through the
// write path the live operation took, installing the record's commit
// stamp where the live operation resolved. It is the shared replay
// path: crash recovery feeds it the local log, and cluster followers
// feed it the shipped stream.
func (s *Store) ApplyWALRecord(rec *WALRecord) error {
	switch rec.Kind {
	case "create", "restore", "adopt":
		st, err := rec.Snapshot.State()
		if err != nil {
			return err
		}
		sched, err := session.FromState(st, s.optsFor(rec.Name))
		if err != nil {
			return err
		}
		return s.put(rec.Name, sched, rec.Replace, counts{rec.Resolves, rec.Mutations, rec.Batches}, rec.Epoch, nil)
	case "delete":
		return s.remove(rec.Name, nil)
	case "batch", "resolve":
		_, err := s.commit(context.Background(), rec.Name, rec.Muts, rec.Kind == "batch", rec)
		return err
	default:
		return fmt.Errorf("store: unknown replay kind %q", rec.Kind)
	}
}

// ApplyCheckpointEntry installs one checkpoint entry — a full session
// image plus its counters — replacing any existing session of that
// name.
func (s *Store) ApplyCheckpointEntry(e WALCheckpointEntry) error {
	i := shardIndex(e.Name)
	sh := &s.shards[i]
	sh.op.Lock()
	defer sh.op.Unlock()
	return s.putEntryLocked(i, e)
}

// putEntryLocked installs checkpoint entry e in shard i, whose op lock
// the caller holds.
func (s *Store) putEntryLocked(i int, e WALCheckpointEntry) error {
	st, err := e.Snapshot.State()
	var sched *session.Scheduler
	if err == nil {
		sched, err = session.FromState(st, s.optsFor(e.Name))
	}
	if err == nil {
		err = s.putLocked(i, e.Name, sched, true, counts{e.Resolves, e.Mutations, e.Batches}, e.Epoch, nil)
	}
	if err != nil {
		return fmt.Errorf("checkpoint session %q: %w", e.Name, err)
	}
	return nil
}

// SyncShardToCheckpoint makes shard i's contents exactly the
// checkpoint: every entry is installed and every session the
// checkpoint does not name is deleted, all under the shard's op lock.
// Followers use it to resync a shard after the primary's checkpoint
// truncated records their cursor still needed (wal.ErrTruncated).
func (s *Store) SyncShardToCheckpoint(i int, entries []WALCheckpointEntry) error {
	sh := &s.shards[i]
	sh.op.Lock()
	defer sh.op.Unlock()
	keep := make(map[string]bool, len(entries))
	for _, e := range entries {
		if shardIndex(e.Name) != i {
			return fmt.Errorf("checkpoint session %q does not belong to shard %d", e.Name, i)
		}
		if err := s.putEntryLocked(i, e); err != nil {
			return err
		}
		keep[e.Name] = true
	}
	for _, h := range s.handlesInShard(i) {
		if !keep[h.name] {
			if err := s.removeLocked(i, h.name, nil); err != nil {
				return err
			}
		}
	}
	return nil
}
