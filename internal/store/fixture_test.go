package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"ses/internal/choice"
	"ses/internal/core"
	"ses/internal/session"
	"ses/internal/sestest"
)

// fixtureState is what testdata/gob_era.expected.json records of a
// store: its promotion epoch, its metas and every session's
// checkpoint entry (the counters and the full snapshot).
type fixtureState struct {
	Epoch   uint64               `json:"epoch"`
	Metas   []Meta               `json:"metas"`
	Entries []WALCheckpointEntry `json:"entries"`
}

// stateOf reads a store's fixtureState, entries sorted by name.
func stateOf(t testing.TB, s *Store) fixtureState {
	t.Helper()
	st := fixtureState{Epoch: s.Epoch(), Metas: s.Metas()}
	for i := 0; i < numShards; i++ {
		entries, err := s.ExportShardEntries(i)
		if err != nil {
			t.Fatal(err)
		}
		st.Entries = append(st.Entries, entries...)
	}
	sort.Slice(st.Entries, func(i, j int) bool { return st.Entries[i].Name < st.Entries[j].Name })
	return st
}

// buildFixtureLog drives d through the history behind
// testdata/gob_era: two sessions of one shard with a batch and a
// resolve, one checkpoint of that shard, then a batch on top of it, a
// staged-only batch, a create and resolve of a third session, a
// restore and an adopt at epoch 3 followed by a batch. The store is
// left open, as a crash would leave it.
func buildFixtureLog(t testing.TB, d *Durable) {
	t.Helper()
	ctx := context.Background()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	inst := func(seed uint64) *core.Instance {
		return sestest.Random(sestest.Config{Users: 24, Events: 8, Intervals: 4, Competing: 2, Seed: seed})
	}
	// beta shares alpha's shard, so the checkpoint is one file.
	beta := ""
	for n := 0; beta == ""; n++ {
		if name := fmt.Sprintf("beta-%d", n); shardIndex(name) == shardIndex("alpha") {
			beta = name
		}
	}
	att, err := choice.NewAttendance(0.3)
	check(err)
	fair, err := choice.NewFairness(0.6)
	check(err)

	check(d.CreateWithObjective("alpha", inst(41), 4, choice.Omega))
	check(d.CreateWithObjective(beta, inst(42), 3, att))
	_, err = d.ApplyBatch(ctx, "alpha", []Mutation{
		AddEvent(core.Event{Location: 1, Required: 2, Name: "late show"}, map[int]float64{0: 0.75, 5: 0.5, 23: 1}),
		UpdateInterest(3, 2, 0.875),
		AddCompeting(core.CompetingEvent{Interval: 2, Name: "rival"}, map[int]float64{1: 0.4}),
	})
	check(err)
	_, err = d.Resolve(ctx, beta)
	check(err)
	check(d.Checkpoint())

	sched, err := d.Get("alpha")
	check(err)
	first := sched.Schedule()[0]
	_, err = d.ApplyBatch(ctx, "alpha", []Mutation{Pin(first.Event, first.Interval), Forbid(0, 1), CancelEvent(2), SetK(5)})
	check(err)
	// A valid prefix, then an out-of-range pin: the prefix is logged
	// without a commit stamp.
	if _, err := d.ApplyBatch(ctx, "alpha", []Mutation{UpdateInterest(7, 1, 0.25), Pin(999, 0)}); err == nil {
		t.Fatal("out-of-range pin applied")
	}
	check(d.CreateWithObjective("gamma", inst(43), 4, fair))
	_, err = d.Resolve(ctx, "gamma")
	check(err)
	st, err := d.Snapshot("alpha")
	check(err)
	check(d.Restore("delta", st, false))
	st, err = d.Snapshot(beta)
	check(err)
	check(d.Adopt("epsilon", st, 7, 11, 2, 3))
	_, err = d.ApplyBatch(ctx, "epsilon", []Mutation{UpdateInterest(2, 1, 0.5), Unpin(0)})
	check(err)
}

// fixtureOptions opens the fixture's store: no automatic checkpoint,
// one scoring worker.
var fixtureOptions = DurableOptions{CheckpointEvery: -1, Session: session.Options{Workers: 1}}

// recoverCopy recovers a copy of the data directory src.
func recoverCopy(t *testing.T, src string) *Durable {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurable(dir, fixtureOptions)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The states the fixture's history recovers to. gobEraState is what
// the build that wrote testdata/gob_era recorded. thisBuildState is
// what this build records through the same history: heap-mode
// selection pops fewer entries, so the resolves' counters.pops differ
// and nothing else does (TestFixtureStatesDifferOnlyInPops).
const (
	gobEraState    = "testdata/gob_era.expected.json"
	thisBuildState = "testdata/this_build.expected.json"
)

// checkFixtureState compares s with the expected state file: every
// field through the file's bytes, and each utility bit for bit.
func checkFixtureState(t *testing.T, what string, s *Store, file string) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	got := stateOf(t, s)
	b, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(b, '\n'), raw) {
		t.Fatalf("%s: state differs from %s:\n%s", what, file, b)
	}
	var want fixtureState
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for i, m := range got.Metas {
		if math.Float64bits(m.Utility) != math.Float64bits(want.Metas[i].Utility) ||
			math.Float64bits(got.Entries[i].Snapshot.Utility) != math.Float64bits(want.Entries[i].Snapshot.Utility) {
			t.Fatalf("%s: %s utility %v, want %v", what, m.Name, m.Utility, want.Metas[i].Utility)
		}
	}
}

// TestGobEraDataDirRecovers: testdata/gob_era is a data directory the
// last build with gob snapshots wrote through buildFixtureLog (create,
// batch, staged batch, resolve, restore and adopt-epoch records, and
// one checkpoint of two sessions), left as a crash leaves it. It
// recovers to the state that build recorded, counters included. The
// live store this build drives through the same history, and the
// directory it writes, recover to the state this build records. After
// a checkpoint in the current layout, each directory recovers once
// more to its own state.
func TestGobEraDataDirRecovers(t *testing.T) {
	gobEra := recoverCopy(t, "testdata/gob_era")
	checkFixtureState(t, "gob-era directory", gobEra.Store, gobEraState)

	fresh := t.TempDir()
	d, err := OpenDurable(fresh, fixtureOptions)
	if err != nil {
		t.Fatal(err)
	}
	buildFixtureLog(t, d)
	checkFixtureState(t, "live store", d.Store, thisBuildState)
	checkFixtureState(t, "this build's directory", recoverCopy(t, fresh).Store, thisBuildState)

	for _, c := range []struct {
		d    *Durable
		file string
	}{{gobEra, gobEraState}, {d, thisBuildState}} {
		if err := c.d.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenDurable(c.d.Dir(), fixtureOptions)
		if err != nil {
			t.Fatal(err)
		}
		checkFixtureState(t, "after a checkpoint", again.Store, c.file)
		if err := again.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFixtureStatesDifferOnlyInPops: the two expected states describe
// one history, so they may differ only in the work counter the
// selection loop changed, counters.pops.
func TestFixtureStatesDifferOnlyInPops(t *testing.T) {
	read := func(file string) fixtureState {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var st fixtureState
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	old, cur := read(gobEraState), read(thisBuildState)
	if len(old.Entries) != len(cur.Entries) {
		t.Fatalf("%d entries against %d", len(old.Entries), len(cur.Entries))
	}
	for i := range cur.Entries {
		cur.Entries[i].Snapshot.Counters.Pops = old.Entries[i].Snapshot.Counters.Pops
	}
	a, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(cur)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s and %s differ beyond counters.pops:\n%s\n%s", gobEraState, thisBuildState, a, b)
	}
}
