package store

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ses/internal/core"
	"ses/internal/randx"
	"ses/internal/session"
	"ses/internal/sestest"
	"ses/internal/wal"
)

func testInstance(seed uint64) *core.Instance {
	return sestest.Random(sestest.Config{Users: 25, Events: 10, Intervals: 4, Competing: 2, Seed: seed})
}

// onEachKind runs f as a subtest on a fresh store of each kind: a
// memory store, and a durable store in a fresh directory that the
// test closes when it ends.
func onEachKind(t *testing.T, f func(t *testing.T, s *Store)) {
	t.Run("memory", func(t *testing.T) { f(t, New(session.Options{Workers: 1})) })
	t.Run("durable", func(t *testing.T) {
		d := openDurable(t, t.TempDir(), DurableOptions{Sync: wal.SyncNone})
		t.Cleanup(func() { d.Close() })
		f(t, d.Store)
	})
}

func TestRegistryLifecycle(t *testing.T) { onEachKind(t, testRegistryLifecycle) }

func testRegistryLifecycle(t *testing.T, s *Store) {
	if err := s.Create("a", testInstance(1), 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("b", testInstance(2), 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("a", testInstance(3), 2); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: got %v, want ErrExists", err)
	}
	if err := s.Create("", testInstance(3), 2); err == nil {
		t.Fatal("empty name accepted")
	}
	if got, want := s.Names(), []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(nope): got %v, want ErrNotFound", err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: got %v, want ErrNotFound", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after delete = %d, want 1", s.Len())
	}
}

func TestMetaTracksCommits(t *testing.T) { onEachKind(t, testMetaTracksCommits) }

func testMetaTracksCommits(t *testing.T, s *Store) {
	inst := testInstance(4)
	if err := s.Create("m", inst, 4); err != nil {
		t.Fatal(err)
	}
	m, err := s.Meta("m")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "m" || m.Users != inst.NumUsers || m.Events != inst.NumEvents() || m.K != 4 {
		t.Fatalf("initial meta wrong: %+v", m)
	}
	if m.Resolves != 0 || m.Scheduled != 0 {
		t.Fatalf("fresh session meta should be empty: %+v", m)
	}
	if _, err := s.Resolve(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	res, err := s.ApplyBatch(context.Background(), "m", []Mutation{
		AddEvent(core.Event{Location: 0, Required: 1, Name: "x"}, map[int]float64{0: 0.5}),
		SetK(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EventIDs) != 1 || res.EventIDs[0] != inst.NumEvents() {
		t.Fatalf("EventIDs = %v, want [%d]", res.EventIDs, inst.NumEvents())
	}
	m, err = s.Meta("m")
	if err != nil {
		t.Fatal(err)
	}
	if m.Resolves != 2 || m.Batches != 1 || m.Mutations != 2 {
		t.Fatalf("meta counters wrong: %+v", m)
	}
	if m.Events != inst.NumEvents()+1 || m.K != 5 {
		t.Fatalf("meta dims not refreshed: %+v", m)
	}
	if m.Scheduled == 0 || m.Utility <= 0 {
		t.Fatalf("meta misses committed schedule: %+v", m)
	}
	metas := s.Metas()
	if len(metas) != 1 || !reflect.DeepEqual(metas[0], m) {
		t.Fatalf("Metas = %+v, want [%+v]", metas, m)
	}
}

// TestSnapshotRestoreAcrossStores restores a memory store's snapshot
// into a store of each kind.
func TestSnapshotRestoreAcrossStores(t *testing.T) { onEachKind(t, testSnapshotRestoreAcrossStores) }

func testSnapshotRestoreAcrossStores(t *testing.T, dst *Store) {
	src := New(session.Options{Workers: 1})
	if err := src.Create("s", testInstance(5), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ApplyBatch(context.Background(), "s", []Mutation{
		AddEvent(core.Event{Location: 1, Required: 1, Name: "late"}, map[int]float64{1: 0.8}),
		Forbid(0, 0),
	}); err != nil {
		t.Fatal(err)
	}
	st, err := src.Snapshot("s")
	if err != nil {
		t.Fatal(err)
	}

	if err := dst.Restore("s", st, false); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore("s", st, false); !errors.Is(err, ErrExists) {
		t.Fatalf("restore over existing without replace: got %v, want ErrExists", err)
	}
	if err := dst.Restore("s", st, true); err != nil {
		t.Fatalf("restore with replace: %v", err)
	}

	// The restored session serves identical state.
	a, err := src.Get("s")
	if err != nil {
		t.Fatal(err)
	}
	b, err := dst.Get("s")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Schedule(), b.Schedule()) || a.Utility() != b.Utility() {
		t.Fatal("restored session state differs")
	}
	// And keeps serving: the same follow-up batch produces the same
	// outcome on both sides.
	muts := []Mutation{UpdateInterest(2, 1, 0.9), SetK(5)}
	ra, err := src.ApplyBatch(context.Background(), "s", muts)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := dst.ApplyBatch(context.Background(), "s", muts)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Delta.Utility != rb.Delta.Utility || !reflect.DeepEqual(a.Schedule(), b.Schedule()) {
		t.Fatal("restored session diverged on identical traffic")
	}
	// Restore metadata reflects the snapshot, not an empty session.
	m, err := dst.Meta("s")
	if err != nil {
		t.Fatal(err)
	}
	if m.Resolves != 1 || m.Scheduled == 0 {
		t.Fatalf("restored meta wrong: %+v", m)
	}
}

func TestBatchMutationErrorAbortsBeforeResolve(t *testing.T) {
	onEachKind(t, testBatchMutationErrorAbortsBeforeResolve)
}

func testBatchMutationErrorAbortsBeforeResolve(t *testing.T, s *Store) {
	if err := s.Create("e", testInstance(6), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background(), "e"); err != nil {
		t.Fatal(err)
	}
	before, _ := s.Meta("e")
	_, err := s.ApplyBatch(context.Background(), "e", []Mutation{
		UpdateInterest(0, 1, 0.5),
		CancelEvent(999), // out of range
	})
	if err == nil {
		t.Fatal("invalid mutation accepted")
	}
	after, _ := s.Meta("e")
	if after.Resolves != before.Resolves {
		t.Fatal("failed batch must not resolve")
	}
	if _, err := s.ApplyBatch(context.Background(), "e", nil); err != nil {
		t.Fatalf("empty batch (bare resolve): %v", err)
	}
}

func TestUnknownOpRejected(t *testing.T) { onEachKind(t, testUnknownOpRejected) }

func testUnknownOpRejected(t *testing.T, s *Store) {
	if err := s.Create("u", testInstance(7), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyBatch(context.Background(), "u", []Mutation{{Op: "frobnicate"}}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// genMutations builds a deterministic, always-valid mutation sequence
// against a session whose committed schedule is sched. It tracks
// enough state (event count, cancellations, pins, forbids) to never
// produce a rejected mutation or an infeasible pin set.
func genMutations(src *randx.Source, inst *core.Instance, sched []core.Assignment, n int) []Mutation {
	nU, nT := inst.NumUsers, inst.NumIntervals
	events := inst.NumEvents()
	cancelled := map[int]bool{}
	pinned := map[int]int{}
	forbidden := map[[2]int]bool{}
	var muts []Mutation
	for len(muts) < n {
		switch src.IntN(9) {
		case 0:
			mu := map[int]float64{}
			for j := 0; j < 1+src.IntN(4); j++ {
				mu[src.IntN(nU)] = src.Range(0.05, 1)
			}
			muts = append(muts, AddEvent(core.Event{
				Location: src.IntN(3),
				Required: src.Range(0.5, 2),
				Name:     fmt.Sprintf("gen-%d", events),
			}, mu))
			events++
		case 1:
			e := src.IntN(events)
			if pinned[e] != 0 || cancelled[e] {
				continue // keep pin targets alive so the pin set stays feasible
			}
			muts = append(muts, CancelEvent(e))
			cancelled[e] = true
		case 2:
			muts = append(muts, UpdateInterest(src.IntN(nU), src.IntN(events), src.Range(0, 1)))
		case 3:
			mu := map[int]float64{src.IntN(nU): src.Range(0.05, 1)}
			muts = append(muts, AddCompeting(core.CompetingEvent{Interval: src.IntN(nT), Name: "comp"}, mu))
		case 4:
			// Pin only committed assignments at their committed
			// interval: they coexisted in one feasible schedule, so any
			// subset of them is a feasible pin set.
			if len(sched) == 0 {
				continue
			}
			a := sched[src.IntN(len(sched))]
			if cancelled[a.Event] || forbidden[[2]int{a.Event, a.Interval}] {
				continue
			}
			muts = append(muts, Pin(a.Event, a.Interval))
			pinned[a.Event] = a.Interval + 1
		case 5:
			e := src.IntN(events)
			muts = append(muts, Unpin(e))
			delete(pinned, e)
		case 6:
			e, tt := src.IntN(events), src.IntN(nT)
			if pinned[e] == tt+1 {
				continue
			}
			muts = append(muts, Forbid(e, tt))
			forbidden[[2]int{e, tt}] = true
		case 7:
			e, tt := src.IntN(events), src.IntN(nT)
			if pinned[e] == tt+1 {
				continue
			}
			muts = append(muts, Allow(e, tt))
			delete(forbidden, [2]int{e, tt})
		case 8:
			muts = append(muts, SetK(src.IntN(events+2)))
		}
	}
	return muts
}

// TestApplyBatchEqualsSequential is the batch-equivalence property:
// for random instances and random mutation groups, ApplyBatch on a
// store of each kind produces exactly the schedule, utility and
// resolve counters of the same mutations applied one-by-one followed
// by a single Resolve.
func TestApplyBatchEqualsSequential(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			onEachKind(t, func(t *testing.T, batched *Store) {
				testApplyBatchEqualsSequential(t, seed, batched)
			})
		})
	}
}

func testApplyBatchEqualsSequential(t *testing.T, seed uint64, batched *Store) {
	inst := sestest.Random(sestest.Config{
		Users: 30, Events: 12, Intervals: 5, Competing: 3, Seed: seed,
	})
	oneByOne := New(session.Options{Workers: 1})
	for _, s := range []*Store{batched, oneByOne} {
		if err := s.Create("x", inst, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Resolve(context.Background(), "x"); err != nil {
			t.Fatal(err)
		}
	}
	base, err := batched.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	muts := genMutations(randx.Derive(seed, "batch-equiv"), inst, base.Schedule(), 20)

	br, err := batched.ApplyBatch(context.Background(), "x", muts)
	if err != nil {
		t.Fatal(err)
	}

	seq, err := oneByOne.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range muts {
		if _, err := m.ApplyTo(seq); err != nil {
			t.Fatalf("sequential mutation %d (%s): %v", i, m.Op, err)
		}
	}
	sd, err := oneByOne.Resolve(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}

	if br.Delta.Utility != sd.Utility {
		t.Errorf("utility: batch %v != sequential %v", br.Delta.Utility, sd.Utility)
	}
	if !reflect.DeepEqual(base.Schedule(), seq.Schedule()) {
		t.Errorf("schedules diverge:\nbatch:      %v\nsequential: %v", base.Schedule(), seq.Schedule())
	}
	if !reflect.DeepEqual(br.Delta.Counters, sd.Counters) {
		t.Errorf("resolve counters diverge: batch %+v != sequential %+v", br.Delta.Counters, sd.Counters)
	}
	if !reflect.DeepEqual(br.Delta.Added, sd.Added) ||
		!reflect.DeepEqual(br.Delta.Removed, sd.Removed) ||
		!reflect.DeepEqual(br.Delta.Moved, sd.Moved) {
		t.Errorf("deltas diverge:\nbatch:      %+v\nsequential: %+v", br.Delta, sd)
	}
}

// TestFailedBatchPublishesMeta: a batch whose second mutation fails
// leaves its first applied, staged and counted. Meta says so at once,
// and the shard export a promoting peer pulls carries the same
// counters. On a durable store a recovery from the log alone and one
// through a checkpoint read the same Meta again.
func TestFailedBatchPublishesMeta(t *testing.T) {
	failBatch := func(t *testing.T, s *Store) Meta {
		ctx := context.Background()
		if err := s.Create("f", testInstance(8), 3); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Resolve(ctx, "f"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBatch(ctx, "f", []Mutation{UpdateInterest(0, 1, 0.5), CancelEvent(999)}); err == nil {
			t.Fatal("out-of-range cancel applied")
		}
		m, err := s.Meta("f")
		if err != nil {
			t.Fatal(err)
		}
		if m.Mutations != 1 || m.Resolves != 1 || m.Batches != 0 {
			t.Fatalf("Meta after the failed batch: %+v, want 1 mutation, 1 resolve, 0 batches", m)
		}
		entries, err := s.ExportShardEntries(ShardOf("f"))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Resolves != m.Resolves || entries[0].Mutations != m.Mutations || entries[0].Batches != m.Batches {
			t.Fatalf("shard export %+v disagrees with Meta %+v", entries, m)
		}
		return m
	}
	t.Run("memory", func(t *testing.T) { failBatch(t, New(session.Options{Workers: 1})) })
	t.Run("durable", func(t *testing.T) {
		dir, logOnly := t.TempDir(), t.TempDir()
		opts := DurableOptions{Sync: wal.SyncNone, CheckpointEvery: -1}
		d := openDurable(t, dir, opts)
		want := failBatch(t, d.Store)
		copyTree(t, dir, logOnly)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{logOnly, dir} {
			re := openDurable(t, src, opts)
			if got, err := re.Meta("f"); err != nil || got != want {
				t.Errorf("recovered from %s: Meta %+v (%v), want %+v", src, got, err, want)
			}
			re.Close()
		}
	})
}

// TestConcurrentBatchesDoNotInterleave races a batch forbidding three
// pairs against one allowing them again, round after round. Batches
// are atomic, so after each round either all three pairs are
// forbidden or none is.
func TestConcurrentBatchesDoNotInterleave(t *testing.T) {
	onEachKind(t, func(t *testing.T, s *Store) {
		ctx := context.Background()
		inst := sestest.Random(sestest.Config{Users: 6, Events: 3, Intervals: 2, Seed: 5})
		if err := s.Create("a", inst, 2); err != nil {
			t.Fatal(err)
		}
		forbid := []Mutation{Forbid(0, 0), Forbid(1, 0), Forbid(2, 0)}
		allow := []Mutation{Allow(0, 0), Allow(1, 0), Allow(2, 0)}
		for round := 0; round < 3000; round++ {
			var wg sync.WaitGroup
			for _, muts := range [][]Mutation{forbid, allow} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := s.ApplyBatch(ctx, "a", muts); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			st, err := s.Snapshot("a")
			if err != nil {
				t.Fatal(err)
			}
			if n := len(st.Forbidden); n != 0 && n != 3 {
				t.Fatalf("round %d: %d of 3 pairs forbidden, which no serial order of the two batches leaves", round, n)
			}
		}
	})
}
