package scalegen

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"ses/internal/colstore"
	"ses/internal/core"
	"ses/internal/interest"
	"ses/internal/solver"
)

// TestGenerateDeterministic: the same seed yields byte-identical
// files.
func TestGenerateDeterministic(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Users: 2000, K: 8, Seed: 42}
	a := filepath.Join(dir, "a.sescol")
	b := filepath.Join(dir, "b.sescol")
	if _, err := Generate(a, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(b, cfg); err != nil {
		t.Fatal(err)
	}
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Fatalf("files differ (%d vs %d bytes)", len(ab), len(bb))
	}
}

// TestGenerateShape checks the instance validates and has the
// Meetup-shaped structure: paper-default dimensions and power-law
// audiences (the top-ranked event's row dwarfs the median row).
func TestGenerateShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inst.sescol")
	st, err := Generate(path, Config{Users: 5000, K: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 20 || st.Intervals != 15 {
		t.Fatalf("got |E|=%d |T|=%d, want paper defaults 2k/1.5k", st.Events, st.Intervals)
	}
	if st.Competing == 0 || st.CompNNZ == 0 {
		t.Fatalf("no competition generated: %+v", st)
	}
	store, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	inst := store.Instance()
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, inst.CandInterest.NumEvents())
	maxN := 0
	for e := range sizes {
		sizes[e] = inst.CandInterest.Row(e).Len()
		if sizes[e] > maxN {
			maxN = sizes[e]
		}
	}
	small := 0
	for _, n := range sizes {
		if n*4 < maxN {
			small++
		}
	}
	if small < len(sizes)/2 {
		t.Fatalf("audiences not power-law: max %d, sizes %v", maxN, sizes)
	}
}

// TestGenerateSolves runs GRD over a generated instance, once over the
// mapping and once over a heap copy of its rows, and expects a
// non-empty schedule and identical results.
func TestGenerateSolves(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inst.sescol")
	if _, err := Generate(path, Config{Users: 3000, K: 6, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	store, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	grd := solver.NewGRD(solver.Config{Workers: 1})
	mapped, err := grd.Solve(context.Background(), store.Instance(), 6)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := grd.Solve(context.Background(), heapCopy(store.Instance()), 6)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Utility != heap.Utility || !slices.Equal(mapped.Schedule.Assignments(), heap.Schedule.Assignments()) {
		t.Fatalf("over the mapping: utility %v, %v; over a heap copy: %v, %v",
			mapped.Utility, mapped.Schedule.Assignments(), heap.Utility, heap.Schedule.Assignments())
	}
	if mapped.Schedule.Size() == 0 {
		t.Fatal("empty schedule")
	}
}

// heapCopy returns inst with every interest row copied off the
// mapping onto the heap.
func heapCopy(inst *core.Instance) *core.Instance {
	rows := func(m *interest.Matrix) *interest.Matrix {
		cp := interest.NewMatrix(m.NumUsers, m.NumEvents())
		for e, r := range m.ByEvent {
			cp.SetRow(e, interest.SparseVector{IDs: slices.Clone(r.IDs), Vals: slices.Clone(r.Vals)})
		}
		return cp
	}
	cp := *inst
	cp.CandInterest, cp.CompInterest = rows(inst.CandInterest), rows(inst.CompInterest)
	return &cp
}

// allocBudget is the documented generation allocation budget at 100k
// users: generation must allocate O(rows + largest row), never
// O(users). The EBSN pipeline this generator bypasses materializes
// per-user tag sets and group memberships — tens of megabytes at this
// size, gigabytes at 10^6 users — so any regression toward per-user
// state blows through this immediately.
const allocBudget = 8 << 20

// TestGenerateAllocationBudget pins the streaming claim at 100k
// users: total bytes allocated during generation stay under the
// documented budget, and the file still opens and validates.
func TestGenerateAllocationBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.sescol")
	cfg := Config{Users: 100_000, K: 20, Seed: 11}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := Generate(path, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > allocBudget {
		t.Fatalf("generation allocated %d bytes for %d users, budget %d", spent, cfg.Users, allocBudget)
	}
	if st.CandNNZ == 0 {
		t.Fatalf("no interest generated: %+v", st)
	}
	store, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Instance().Validate(); err != nil {
		t.Fatal(err)
	}
}
