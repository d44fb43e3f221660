package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"ses/internal/core"
	"ses/internal/randx"
	"ses/internal/wal"
)

// crashJournal drives a randomized mutation workload against one
// durable session and records, after every acknowledged logged
// operation, the canonical state the durability contract must
// reproduce. ackStates[j] is the state after the j-th log record
// (ackStates[0] = before the create record, i.e. no session).
type crashJournal struct {
	name      string
	ackStates [][]byte // nil entry = session must not exist
	mutations int      // total mutations driven through the log
}

// driveCrashWorkload runs the workload: a create followed by batches
// (1–3 mutations each, all kinds), interleaved resolves, and
// occasional staged batches (cancelled resolve / invalid tail
// mutation), until at least minMutations mutations are logged.
// checkpointAt >= 0 checkpoints the store after that many records.
func driveCrashWorkload(t *testing.T, d *Durable, seed uint64, minMutations, checkpointAt int) *crashJournal {
	t.Helper()
	ctx := context.Background()
	j := &crashJournal{name: "crash", ackStates: [][]byte{nil}}
	src := randx.Derive(seed, "crash-matrix")

	ack := func() {
		j.ackStates = append(j.ackStates, canonicalState(t, d, j.name))
		if checkpointAt >= 0 && len(j.ackStates)-1 == checkpointAt {
			if err := d.Checkpoint(); err != nil {
				t.Fatalf("mid-run checkpoint: %v", err)
			}
		}
	}

	inst := testInstance(seed)
	users, intervals := inst.NumUsers, inst.NumIntervals
	events := inst.NumEvents()
	if err := d.Create(j.name, inst, 4); err != nil {
		t.Fatal(err)
	}
	ack()

	pinned := map[int]int{}     // event -> interval+1
	cancelled := map[int]bool{} // withdrawn events
	forbidden := map[[2]int]bool{}
	var added []int

	schedule := func() []core.Assignment {
		st, err := d.Snapshot(j.name)
		if err != nil {
			t.Fatal(err)
		}
		return st.Schedule
	}

	// randomMutation builds one feasible mutation, mirroring the
	// sesload driver's guards, and returns a post-commit bookkeeping
	// hook.
	randomMutation := func() (Mutation, func()) {
		for {
			switch src.IntN(8) {
			case 0, 1:
				return UpdateInterest(src.IntN(users), src.IntN(events), src.Range(0, 1)), func() {}
			case 2:
				return AddCompeting(core.CompetingEvent{Interval: src.IntN(intervals)},
					map[int]float64{src.IntN(users): src.Range(0.1, 1)}), func() {}
			case 3:
				e := events
				return AddEvent(core.Event{Location: src.IntN(3), Required: src.Range(0.5, 2),
						Name: fmt.Sprintf("crash-extra-%d", e)},
						map[int]float64{src.IntN(users): src.Range(0.1, 1)}),
					func() { added = append(added, e); events++ }
			case 4:
				if len(added) == 0 {
					continue
				}
				e := added[src.IntN(len(added))]
				if cancelled[e] {
					continue
				}
				return CancelEvent(e), func() { cancelled[e] = true; delete(pinned, e) }
			case 5:
				cur := schedule()
				if len(cur) == 0 {
					continue
				}
				a := cur[src.IntN(len(cur))]
				if cancelled[a.Event] || forbidden[[2]int{a.Event, a.Interval}] {
					continue
				}
				return Pin(a.Event, a.Interval), func() { pinned[a.Event] = a.Interval + 1 }
			case 6:
				e, tt := src.IntN(events), src.IntN(intervals)
				if pinned[e] == tt+1 || cancelled[e] {
					continue
				}
				return Forbid(e, tt), func() { forbidden[[2]int{e, tt}] = true }
			default:
				e := src.IntN(events)
				return Unpin(e), func() { delete(pinned, e) }
			}
		}
	}

	for j.mutations < minMutations {
		switch r := src.IntN(20); {
		case r < 2: // standalone resolve
			if _, err := d.Resolve(ctx, j.name); err != nil {
				t.Fatalf("resolve after %d records: %v", len(j.ackStates)-1, err)
			}
			ack()
		case r < 4: // staged batch: resolve aborted by a cancelled ctx
			m, hook := randomMutation()
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := d.ApplyBatch(cctx, j.name, []Mutation{m}); !errors.Is(err, context.Canceled) {
				t.Fatalf("staged batch: %v", err)
			}
			hook()
			j.mutations++
			ack()
		case r < 5: // staged batch: invalid tail mutation after a valid one
			m, hook := randomMutation()
			bad := UpdateInterest(-1, 0, 0.5)
			if _, err := d.ApplyBatch(ctx, j.name, []Mutation{m, bad}); err == nil {
				t.Fatal("invalid mutation accepted")
			}
			hook()
			j.mutations++
			ack()
		default: // committed batch of 1–3 mutations
			n := 1 + src.IntN(3)
			muts := make([]Mutation, 0, n)
			hooks := make([]func(), 0, n)
			for len(muts) < n {
				m, hook := randomMutation()
				muts = append(muts, m)
				hooks = append(hooks, hook)
			}
			if _, err := d.ApplyBatch(ctx, j.name, muts); err != nil {
				t.Fatalf("batch after %d records: %v", len(j.ackStates)-1, err)
			}
			for _, h := range hooks {
				h()
			}
			j.mutations += n
			ack()
		}
	}
	return j
}

// crashCut is one truncation point of the final segment.
type crashCut struct {
	offset  int64
	records int // records of that segment that survive the cut
	torn    bool
}

// enumerateCuts parses the (single) live segment of the shard and
// returns every record boundary plus torn offsets inside records.
func enumerateCuts(t *testing.T, shardDir string) (segPath string, cuts []crashCut) {
	t.Helper()
	l, err := wal.Open(shardDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	segs := l.Segments()
	if len(segs) != 1 {
		t.Fatalf("crash matrix expects one live segment, found %d", len(segs))
	}
	segPath = segs[0].Path
	type span struct{ start, end int64 }
	var spans []span
	if _, err := l.Replay(func(r wal.Record) error {
		spans = append(spans, span{r.Offset, r.End})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	headerEnd := int64(0)
	if len(spans) > 0 {
		headerEnd = spans[0].start
	}
	// Cuts inside the segment header leave zero records.
	cuts = append(cuts, crashCut{offset: 0, records: 0, torn: true})
	if headerEnd > 1 {
		cuts = append(cuts, crashCut{offset: headerEnd - 1, records: 0, torn: true})
	}
	cuts = append(cuts, crashCut{offset: headerEnd, records: 0})
	for i, sp := range spans {
		// Every record boundary...
		cuts = append(cuts, crashCut{offset: sp.end, records: i + 1})
		// ...and torn offsets inside the record: mid frame header,
		// first payload byte, last byte short of complete.
		for _, off := range []int64{sp.start + 3, sp.start + 9, sp.end - 1} {
			if off > sp.start && off < sp.end {
				cuts = append(cuts, crashCut{offset: off, records: i, torn: true})
			}
		}
	}
	return segPath, cuts
}

// runCrashMatrix drives the workload, then for every cut restores a
// copy of the data directory truncated at that point and asserts the
// recovered store equals exactly the acknowledged prefix.
func runCrashMatrix(t *testing.T, seed uint64, checkpointAt int) {
	runCrashMatrixOpts(t, seed, checkpointAt, DurableOptions{Sync: wal.SyncNone, CheckpointEvery: -1})
}

func runCrashMatrixOpts(t *testing.T, seed uint64, checkpointAt int, opts DurableOptions) {
	dir := t.TempDir()
	d := openDurable(t, dir, opts)
	j := driveCrashWorkload(t, d, seed, 200, checkpointAt)
	// Freeze the crash image before Close writes its final checkpoint.
	img := t.TempDir()
	copyTree(t, dir, img)
	d.Close()

	shard := fmt.Sprintf("shard-%02d", shardIndex(j.name))
	segPath, cuts := enumerateCuts(t, fmt.Sprintf("%s/%s", img, shard))
	// Records before the live segment (covered by the checkpoint).
	base := 0
	if checkpointAt >= 0 {
		base = checkpointAt
	}
	totalRecords := len(j.ackStates) - 1
	maxRecords := 0
	for _, c := range cuts {
		if c.records > maxRecords {
			maxRecords = c.records
		}
	}
	if base+maxRecords != totalRecords {
		t.Fatalf("segment holds %d records after base %d, journal has %d",
			maxRecords, base, totalRecords)
	}
	t.Logf("crash matrix: %d mutations, %d records, %d cuts (checkpoint at %d)",
		j.mutations, totalRecords, len(cuts), checkpointAt)

	for _, cut := range cuts {
		cutRoot := t.TempDir()
		copyTree(t, img, cutRoot)
		cutSeg := fmt.Sprintf("%s/%s/%s", cutRoot, shard, segPath[len(segPath)-len("seg-0000000000000000.wal"):])
		if err := os.Truncate(cutSeg, cut.offset); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDurable(cutRoot, DurableOptions{Sync: wal.SyncNone, CheckpointEvery: -1,
			Session: d.opts})
		if err != nil {
			t.Fatalf("cut at %d (torn=%v): recovery failed: %v", cut.offset, cut.torn, err)
		}
		want := j.ackStates[base+cut.records]
		if want == nil {
			if re.Len() != 0 {
				t.Fatalf("cut at %d: recovered %d sessions before the create record", cut.offset, re.Len())
			}
		} else {
			got := canonicalState(t, re, j.name)
			if !bytes.Equal(got, want) {
				t.Fatalf("cut at %d (torn=%v, %d records survive): recovered state is not the acknowledged prefix\n got: %s\nwant: %s",
					cut.offset, cut.torn, base+cut.records, got, want)
			}
		}
		re.Close()
	}
}

// TestCrashMatrix is the acceptance property: for every truncation
// point of a 200+-mutation log — record boundaries and torn offsets —
// recovery yields exactly a committed prefix of the acknowledged
// states (schedule, utility, objective, counters and store metadata),
// never a torn or merged state.
func TestCrashMatrix(t *testing.T) {
	runCrashMatrix(t, 1, -1)
}

// TestCrashMatrixWithCheckpoint repeats the matrix with a checkpoint
// mid-run, so cuts land in the post-checkpoint segment and recovery
// composes checkpoint state + log suffix.
func TestCrashMatrixWithCheckpoint(t *testing.T) {
	runCrashMatrix(t, 2, 40)
}

// TestCrashMatrixSyncAlways repeats the matrix under SyncAlways, so
// every record is written and fsynced before its operation returns:
// acknowledged-prefix recovery must hold frame-for-frame exactly as
// under SyncNone.
func TestCrashMatrixSyncAlways(t *testing.T) {
	if testing.Short() {
		t.Skip("SyncAlways matrix is fsync-bound")
	}
	runCrashMatrixOpts(t, 3, -1, DurableOptions{
		Sync:            wal.SyncAlways,
		CheckpointEvery: -1,
	})
}
