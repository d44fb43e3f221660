package store

import (
	"fmt"

	"ses/internal/snap"
	"ses/internal/wal"
)

// Replication hooks: the cluster layer (ses/internal/cluster) ships a
// primary's per-shard WAL to followers, and followers rebuild the
// primary's sessions in a plain in-memory Store by applying the same
// records recovery replays. Everything here is shared with — and
// refactored out of — the Durable recovery path, so a follower that
// applied records up to a cursor holds exactly the state a crashed
// primary would recover at that cursor.

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
	return d.logs[i].Position()
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
	if c := d.committed[i].Load(); c != nil {
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
		if ch := d.commits.Load(); ch != nil {
			return *ch
		}
		ch := make(chan struct{})
		if d.commits.CompareAndSwap(nil, &ch) {
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
// the freshest surviving replica of each shard, not just its own.
func (s *Store) ExportShardEntries(i int) ([]WALCheckpointEntry, error) {
	var entries []WALCheckpointEntry
	epoch := s.Epoch()
	for _, name := range s.Names() {
		if shardIndex(name) != i {
			continue
		}
		st, err := s.Snapshot(name)
		if err != nil {
			continue // deleted mid-export
		}
		m, err := s.Meta(name)
		if err != nil {
			continue
		}
		doc, err := snap.FromState(name, st)
		if err != nil {
			return nil, err
		}
		entries = append(entries, WALCheckpointEntry{
			Name:      name,
			Resolves:  m.Resolves,
			Mutations: m.Mutations,
			Batches:   m.Batches,
			Epoch:     epoch,
			Snapshot:  doc,
		})
	}
	return entries, nil
}

// EncodeWALCheckpoint serializes checkpoint entries into the payload
// format DecodeWALCheckpoint parses; the replication layer uses the
// pair as its shard-state transfer codec.
func EncodeWALCheckpoint(entries []WALCheckpointEntry) ([]byte, error) {
	return encodeCheckpoint(entries)
}

// ApplyWALRecord applies one logged record to the store, mirroring
// exactly what the live operation did before logging it. It is the
// shared replay path: crash recovery feeds it the local log, and
// cluster followers feed it the shipped stream.
func (s *Store) ApplyWALRecord(rec *WALRecord) error {
	switch rec.Kind {
	case "create":
		st, err := rec.Snapshot.State()
		if err != nil {
			return err
		}
		return s.Restore(rec.Name, st, false)
	case "restore":
		st, err := rec.Snapshot.State()
		if err != nil {
			return err
		}
		return s.Restore(rec.Name, st, rec.Replace)
	case "adopt":
		st, err := rec.Snapshot.State()
		if err != nil {
			return err
		}
		s.bumpEpoch(rec.Epoch)
		if err := s.Restore(rec.Name, st, true); err != nil {
			return err
		}
		h, err := s.lookup(rec.Name)
		if err != nil {
			return err
		}
		h.resolves.Store(rec.Resolves)
		h.mutations.Store(rec.Mutations)
		h.batches.Store(rec.Batches)
		s.refresh(h)
		return nil
	case "delete":
		return s.Delete(rec.Name)
	case "batch":
		h, err := s.lookup(rec.Name)
		if err != nil {
			return err
		}
		for i, m := range rec.Muts {
			if _, err := m.ApplyTo(h.sched); err != nil {
				return fmt.Errorf("replaying batch mutation %d (%s): %w", i, m.Op, err)
			}
			h.mutations.Add(1)
		}
		if rec.Commit != nil {
			if err := rec.Commit.install(h.sched); err != nil {
				return err
			}
			h.resolves.Add(1)
			h.batches.Add(1)
			s.refresh(h)
		}
		return nil
	case "resolve":
		h, err := s.lookup(rec.Name)
		if err != nil {
			return err
		}
		if err := rec.Commit.install(h.sched); err != nil {
			return err
		}
		h.resolves.Add(1)
		s.refresh(h)
		return nil
	default:
		return fmt.Errorf("store: unknown replay kind %q", rec.Kind)
	}
}

// ApplyCheckpointEntry installs one checkpoint entry — a full session
// image plus its counters — replacing any existing session of that
// name.
func (s *Store) ApplyCheckpointEntry(e WALCheckpointEntry) error {
	st, err := e.Snapshot.State()
	if err != nil {
		return fmt.Errorf("checkpoint session %q: %w", e.Name, err)
	}
	s.bumpEpoch(e.Epoch)
	if err := s.Restore(e.Name, st, true); err != nil {
		return fmt.Errorf("checkpoint session %q: %w", e.Name, err)
	}
	h, err := s.lookup(e.Name)
	if err != nil {
		return err
	}
	h.resolves.Store(e.Resolves)
	h.mutations.Store(e.Mutations)
	h.batches.Store(e.Batches)
	s.refresh(h)
	return nil
}

// SyncShardToCheckpoint makes shard i's contents exactly the
// checkpoint: every entry is installed and every session the
// checkpoint does not name is deleted. Followers use it to resync a
// shard after the primary's checkpoint truncated records their cursor
// still needed (wal.ErrTruncated).
func (s *Store) SyncShardToCheckpoint(i int, entries []WALCheckpointEntry) error {
	keep := make(map[string]bool, len(entries))
	for _, e := range entries {
		if err := s.ApplyCheckpointEntry(e); err != nil {
			return err
		}
		keep[e.Name] = true
	}
	for _, h := range s.handlesInShard(i) {
		if !keep[h.name] {
			if err := s.Delete(h.name); err != nil && err != ErrNotFound {
				return err
			}
		}
	}
	return nil
}
