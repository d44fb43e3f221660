package store

import (
	"bytes"
	"reflect"
	"testing"

	"ses/internal/session"
	"ses/internal/snap"
)

func walTestState(t *testing.T, seed uint64) *session.State {
	t.Helper()
	sched, err := session.New(testInstance(seed), 3, session.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sched.ExportState()
}

func TestWALRecordCodecRoundtrips(t *testing.T) {
	st := walTestState(t, 3)

	create, err := encodeCreateRecord("alpha", st)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeWALRecord(create)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "create" || rec.Name != "alpha" || rec.Snapshot == nil {
		t.Fatalf("create decoded to %+v", rec)
	}

	restore, err := encodeRestoreRecord("beta", st, true)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = DecodeWALRecord(restore)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "restore" || rec.Name != "beta" || !rec.Replace || rec.Snapshot == nil {
		t.Fatalf("restore decoded to %+v", rec)
	}

	rec, err = DecodeWALRecord(encodeDeleteRecord("gone"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "delete" || rec.Name != "gone" {
		t.Fatalf("delete decoded to %+v", rec)
	}

	muts := []Mutation{UpdateInterest(1, 2, 0.5), SetK(7)}
	stamp := &commitStamp{
		Schedule: []snap.Assign{{E: 0, T: 1}, {E: 2, T: 0}},
		Utility:  12.375,
		Stopped:  "deadline",
		Counters: snap.Counters{InitialScores: 40, Pops: 3},
	}
	batch, err := encodeBatchRecord(batchRec{Name: "b", Muts: muts, Commit: stamp})
	if err != nil {
		t.Fatal(err)
	}
	rec, err = DecodeWALRecord(batch)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "batch" || rec.Name != "b" || !reflect.DeepEqual(rec.Muts, muts) ||
		!reflect.DeepEqual(rec.Commit, stamp) {
		t.Fatalf("batch decoded to %+v", rec)
	}

	// Staged batch: no commit stamp.
	staged, err := encodeBatchRecord(batchRec{Name: "s", Muts: muts[:1]})
	if err != nil {
		t.Fatal(err)
	}
	rec, err = DecodeWALRecord(staged)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Commit != nil {
		t.Fatalf("staged batch decoded a commit: %+v", rec)
	}

	resolve, err := encodeResolveRecord(resolveRec{Name: "r", Commit: *stamp})
	if err != nil {
		t.Fatal(err)
	}
	rec, err = DecodeWALRecord(resolve)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "resolve" || rec.Name != "r" || !reflect.DeepEqual(rec.Commit, stamp) {
		t.Fatalf("resolve decoded to %+v", rec)
	}
}

func TestWALRecordDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":               nil,
		"unknown kind":        {0x7f, 'x'},
		"create bad snapshot": {recCreate, 1, 2, 3},
		"delete no name":      {recDelete},
		"batch bad json":      append([]byte{recBatch}, "{"...),
		"batch unknown field": append([]byte{recBatch}, `{"name":"x","surprise":1}`...),
		"batch no name":       append([]byte{recBatch}, `{"muts":[]}`...),
		"resolve bad json":    append([]byte{recResolve}, "nope"...),
		"resolve no name":     append([]byte{recResolve}, `{"commit":{"utility":1,"counters":{"initial_scores":0,"score_updates":0,"pops":0,"list_scans":0,"moves":0}}}`...),
		"restore no flag":     {recRestore},
		"restore bad payload": {recRestore, 1, 9, 9},
	}
	for name, payload := range cases {
		if _, err := DecodeWALRecord(payload); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestWALCheckpointCodecRoundtrips(t *testing.T) {
	doc1, err := snap.FromState("one", walTestState(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := snap.FromState("two", walTestState(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	entries := []WALCheckpointEntry{
		{Name: "one", Resolves: 3, Mutations: 17, Batches: 2, Snapshot: doc1},
		{Name: "two", Resolves: 0, Mutations: 0, Batches: 0, Snapshot: doc2},
	}
	data, err := encodeCheckpoint(entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWALCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("checkpoint roundtrip diverged:\n got %+v\nwant %+v", got, entries)
	}

	// Empty checkpoint (a shard whose sessions were all deleted).
	data, err = encodeCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeWALCheckpoint(data); err != nil || len(got) != 0 {
		t.Fatalf("empty checkpoint: %v %v", got, err)
	}
}

func TestWALCheckpointDecodeRejectsGarbage(t *testing.T) {
	doc, err := snap.FromState("one", walTestState(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	valid, err := encodeCheckpoint([]WALCheckpointEntry{{Name: "one", Snapshot: doc}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"too short":       {1, 0},
		"absurd count":    {0xff, 0xff, 0xff, 0xff},
		"truncated entry": valid[:len(valid)/2],
		"trailing bytes":  append(append([]byte(nil), valid...), 1, 2, 3),
		"block overrun":   {1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, data := range cases {
		if _, err := DecodeWALCheckpoint(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Bit-flip sweep over a valid checkpoint: never panic, and a flip
	// in the snapshot payload must not silently pass gob+snap checks
	// into an invalid entry.
	for pos := 0; pos < len(valid); pos += 11 {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x20
		if entries, err := DecodeWALCheckpoint(mut); err == nil {
			for _, e := range entries {
				if e.Snapshot == nil {
					t.Errorf("flip at %d: nil snapshot decoded", pos)
				}
			}
		}
	}
	if !bytes.Equal(valid, valid) {
		t.Fatal("unreachable")
	}
}

// TestSnapshotRecordsRejectEveryTruncation: create, restore and adopt
// records and checkpoints carry the current snapshot layout, are
// sized exactly, and every proper prefix of one is refused without a
// panic. A checkpoint whose count claims more entries than its bytes
// can frame is refused before the entries are allocated.
func TestSnapshotRecordsRejectEveryTruncation(t *testing.T) {
	st := walTestState(t, 5)
	create, err := encodeCreateRecord("alpha", st)
	if err != nil {
		t.Fatal(err)
	}
	restore, err := encodeRestoreRecord("beta", st, false)
	if err != nil {
		t.Fatal(err)
	}
	adopt, err := encodeAdoptRecord("gamma", st, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string][]byte{"create": create, "restore": restore, "adopt": adopt} {
		if cap(rec) != len(rec) {
			t.Errorf("%s record: %d bytes in a buffer of %d", name, len(rec), cap(rec))
		}
		at := bytes.Index(rec, []byte("SESSNAP"))
		if at < 0 || rec[at+len("SESSNAP")] != 0x80|snap.Version {
			t.Fatalf("%s record does not carry the current snapshot layout", name)
		}
		if _, err := DecodeWALRecord(rec); err != nil {
			t.Fatalf("%s record: %v", name, err)
		}
		for n := 0; n < len(rec); n++ {
			if _, err := DecodeWALRecord(rec[:n]); err == nil {
				t.Fatalf("a %d-byte prefix of a %d-byte %s record decoded", n, len(rec), name)
			}
		}
	}

	doc1, err := snap.FromState("one", st)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := snap.FromState("two", walTestState(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := encodeCheckpoint([]WALCheckpointEntry{{Name: "one", Resolves: 2, Snapshot: doc1}, {Name: "two", Epoch: 1, Snapshot: doc2}})
	if err != nil {
		t.Fatal(err)
	}
	if cap(ckpt) != len(ckpt) {
		t.Errorf("checkpoint: %d bytes in a buffer of %d", len(ckpt), cap(ckpt))
	}
	for n := 0; n < len(ckpt); n++ {
		if _, err := DecodeWALCheckpoint(ckpt[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte checkpoint decoded", n, len(ckpt))
		}
	}
	if _, err := DecodeWALCheckpoint([]byte{0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("a checkpoint claiming 2^28 entries in 8 bytes decoded")
	}
	if _, err := encodeCheckpoint([]WALCheckpointEntry{{Name: "none"}}); err == nil {
		t.Fatal("a checkpoint entry without a snapshot encoded")
	}
}
