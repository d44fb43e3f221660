package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ses/internal/core"
	"ses/internal/session"
	"ses/internal/store"
	"ses/internal/wal"
)

// sameShardNames finds n distinct session names that hash to one
// shard, so their WAL records share a single log and have a total
// order — the property that lets the crash matrix equate "record i
// applied" with "op i acknowledged".
func sameShardNames(t *testing.T, n int) []string {
	t.Helper()
	byShard := map[int][]string{}
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("sess-%d", i)
		s := store.ShardOf(name)
		byShard[s] = append(byShard[s], name)
		if len(byShard[s]) == n {
			return byShard[s]
		}
	}
	t.Fatal("could not find same-shard names")
	return nil
}

// TestPromotedStateEqualsAcknowledgedPrefixAtEveryCursor is the
// cluster's crash-safety acceptance test. It drives a randomized
// workload against a durable primary under SyncAlways,
// snapshotting the canonical acknowledged state after every op, then
// replays the primary's log record by record — each record boundary
// is a replication cursor a follower could hold when the primary is
// kill -9'd — and demands the follower's state at every cursor be
// byte-identical to exactly the acknowledged prefix: nothing lost,
// nothing phantom. It also checks the failover ranking invariant:
// cursor weights are strictly monotone in prefix length, so promoting
// the highest-cursor follower always promotes the longest
// acknowledged prefix.
func TestPromotedStateEqualsAcknowledgedPrefixAtEveryCursor(t *testing.T) {
	ctx := context.Background()
	names := sameShardNames(t, 3)
	shard := store.ShardOf(names[0])
	dir := t.TempDir()
	d, err := store.OpenDurable(dir, store.DurableOptions{
		Session:         session.Options{Workers: 1},
		Sync:            wal.SyncAlways,
		SegmentMaxBytes: 8 * 1024, // force rotations mid-matrix
		CheckpointEvery: -1,       // keep every record on disk for the replay
	})
	if err != nil {
		t.Fatal(err)
	}
	// No Close: the primary is "kill -9'd" at the end; Close would
	// write a checkpoint and truncate the log the matrix replays.

	// Randomized serialized workload. Every op appends exactly one
	// record and is acknowledged only after its fsync, so op i's
	// acknowledged state is the state at record boundary i.
	rng := rand.New(rand.NewSource(41))
	live := map[string]bool{}
	var saved []*session.State // snapshots taken mid-run, for restores
	type ackState map[string][]byte
	snapshotAll := func() ackState {
		st := ackState{}
		for name := range live {
			st[name] = canonical(t, d, name)
		}
		return st
	}
	var acked []ackState
	liveNames := func() []string {
		var out []string
		for n := range live {
			out = append(out, n)
		}
		return out
	}
	const ops = 60
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 2 || len(live) == 0: // create
			name := names[rng.Intn(len(names))]
			if live[name] {
				if err := d.Delete(name); err != nil {
					t.Fatalf("op %d delete: %v", op, err)
				}
				delete(live, name)
				break
			}
			if err := d.Create(name, testInstance(uint64(op)+1), 3+rng.Intn(3)); err != nil {
				t.Fatalf("op %d create: %v", op, err)
			}
			live[name] = true
		case k < 4: // resolve
			name := liveNames()[rng.Intn(len(live))]
			if _, err := d.Resolve(ctx, name); err != nil {
				t.Fatalf("op %d resolve: %v", op, err)
			}
		case k < 7: // batch
			name := liveNames()[rng.Intn(len(live))]
			muts := []store.Mutation{store.UpdateInterest(rng.Intn(20), rng.Intn(3), rng.Float64())}
			if rng.Intn(2) == 0 {
				muts = append(muts, store.AddEvent(
					core.Event{Location: rng.Intn(3), Required: 1, Name: fmt.Sprintf("ev-%d", op)},
					map[int]float64{0: rng.Float64()}))
			}
			if _, err := d.ApplyBatch(ctx, name, muts); err != nil {
				t.Fatalf("op %d batch: %v", op, err)
			}
		case k < 8: // restore an earlier snapshot over a live session
			name := liveNames()[rng.Intn(len(live))]
			if len(saved) == 0 || rng.Intn(2) == 0 {
				st, err := d.Snapshot(name)
				if err != nil {
					t.Fatalf("op %d snapshot: %v", op, err)
				}
				saved = append(saved, st)
				if err := d.Restore(name, st, true); err != nil {
					t.Fatalf("op %d restore: %v", op, err)
				}
			} else {
				if err := d.Restore(name, saved[rng.Intn(len(saved))], true); err != nil {
					t.Fatalf("op %d restore: %v", op, err)
				}
			}
		case k < 9: // adopt (the failover path's record kind)
			name := liveNames()[rng.Intn(len(live))]
			st, err := d.Snapshot(name)
			if err != nil {
				t.Fatalf("op %d snapshot: %v", op, err)
			}
			m, err := d.Meta(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Adopt(name, st, m.Resolves+1, m.Mutations, m.Batches, uint64(op)); err != nil {
				t.Fatalf("op %d adopt: %v", op, err)
			}
		default: // delete
			name := liveNames()[rng.Intn(len(live))]
			if err := d.Delete(name); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			delete(live, name)
		}
		acked = append(acked, snapshotAll())
	}

	// Read every record off the shard log — the log is still open and
	// every acknowledged record is fsynced, so the tailer must deliver
	// exactly ops records.
	tailer := wal.NewTailer(store.ShardDir(dir, shard), wal.Cursor{}, wal.TailerOptions{})
	defer tailer.Close()
	tctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	var records []wal.Record
	for len(records) < ops {
		rec, err := tailer.Next(tctx)
		if err != nil {
			t.Fatalf("tailer died after %d/%d records: %v", len(records), ops, err)
		}
		rec.Payload = append([]byte(nil), rec.Payload...)
		records = append(records, rec)
	}

	// The matrix: one follower per cursor boundary is simulated by a
	// single replica applying one record at a time; after record i its
	// state must equal acknowledged prefix i exactly.
	replica := store.New(session.Options{Workers: 1})
	var lastWeight uint64
	segments := map[uint64]bool{}
	for i, rec := range records {
		decoded, err := store.DecodeWALRecord(rec.Payload)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if err := replica.ApplyWALRecord(decoded); err != nil {
			t.Fatalf("record %d (%s %s): %v", i, decoded.Kind, decoded.Name, err)
		}
		want := acked[i]
		if replica.Len() != len(want) {
			t.Fatalf("cursor %d: replica has %d sessions, acknowledged prefix has %d",
				i, replica.Len(), len(want))
		}
		for name, wantBytes := range want {
			got := canonical(t, replica, name)
			if !bytes.Equal(got, wantBytes) {
				t.Fatalf("cursor %d: session %s diverged from acknowledged prefix\n got: %s\nwant: %s",
					i, name, got, wantBytes)
			}
		}
		// Failover ranking: a longer acknowledged prefix always has a
		// strictly higher cursor weight.
		w := cursorWeight(wal.Cursor{Seq: rec.Seq, Off: rec.End})
		if w <= lastWeight {
			t.Fatalf("cursor weight not monotone at record %d: %d after %d", i, w, lastWeight)
		}
		lastWeight = w
		segments[rec.Seq] = true
	}
	if len(segments) < 2 {
		t.Errorf("workload stayed in %d segment(s); matrix never crossed a rotation", len(segments))
	}
}
