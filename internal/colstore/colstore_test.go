package colstore

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"ses/internal/activity"
	"ses/internal/core"
	"ses/internal/interest"
	"ses/internal/sestest"
	"ses/internal/solver"
)

// roundTrip writes inst and opens it again.
func roundTrip(t *testing.T, inst *core.Instance) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inst.sescol")
	if err := WriteInstance(path, inst); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, path
}

// TestRoundTripExact checks the stored instance reproduces the source
// bit for bit: dimensions, events, competition and every interest row.
func TestRoundTripExact(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 7, Users: 200, Events: 16, Intervals: 6, Competing: 9})
	st, _ := roundTrip(t, inst)
	got := st.Instance()
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.NumUsers != inst.NumUsers || got.NumIntervals != inst.NumIntervals || got.Resources != inst.Resources {
		t.Fatalf("dimensions differ: %+v", got)
	}
	if len(got.Events) != len(inst.Events) || len(got.Competing) != len(inst.Competing) {
		t.Fatalf("event counts differ")
	}
	for i, e := range inst.Events {
		if got.Events[i] != e {
			t.Fatalf("event %d: %+v != %+v", i, got.Events[i], e)
		}
	}
	for _, pair := range []struct {
		name     string
		src, dst *interest.Matrix
	}{
		{"cand", inst.CandInterest, got.CandInterest},
		{"comp", inst.CompInterest, got.CompInterest},
	} {
		if pair.src.NumEvents() != pair.dst.NumEvents() {
			t.Fatalf("%s: row counts differ", pair.name)
		}
		for e := 0; e < pair.src.NumEvents(); e++ {
			s, d := pair.src.Row(e), pair.dst.Row(e)
			if len(s.IDs) != len(d.IDs) {
				t.Fatalf("%s row %d: nnz %d != %d", pair.name, e, len(d.IDs), len(s.IDs))
			}
			for i := range s.IDs {
				if s.IDs[i] != d.IDs[i] || s.Vals[i] != d.Vals[i] {
					t.Fatalf("%s row %d entry %d differs", pair.name, e, i)
				}
			}
		}
	}
	if a, ok := got.Activity.(activity.UniformHash); !ok || a != inst.Activity.(activity.UniformHash) {
		t.Fatalf("activity differs: %#v vs %#v", got.Activity, inst.Activity)
	}
}

// TestSolveOverStore runs GRD over the columnar instance (the engine
// folds straight over the mapping) and over the source, expecting the
// identical schedule and utility.
func TestSolveOverStore(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 3, Users: 150, Events: 12, Intervals: 5, Competing: 7})
	st, _ := roundTrip(t, inst)
	grd := solver.NewGRD(solver.Config{Workers: 1})
	base, err := grd.Solve(context.Background(), inst, 8)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := grd.Solve(context.Background(), st.Instance(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if base.Utility != mapped.Utility {
		t.Fatalf("utility %v over store, %v over source", mapped.Utility, base.Utility)
	}
	ba, ma := base.Schedule.Assignments(), mapped.Schedule.Assignments()
	if len(ba) != len(ma) {
		t.Fatal("schedule sizes differ")
	}
	for i := range ba {
		if ba[i] != ma[i] {
			t.Fatalf("schedules differ at %d", i)
		}
	}
}

// TestZeroCopyViews pins the point of the format: when the file is
// memory-mapped, the instance's interest rows alias the mapping
// rather than heap copies.
func TestZeroCopyViews(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 5, Users: 100, Events: 8, Intervals: 4, Competing: 5})
	st, _ := roundTrip(t, inst)
	if !st.Mapped() {
		t.Skip("mmap unavailable on this host")
	}
	data := st.data
	inRange := func(p uintptr) bool {
		base := uintptr(0)
		if len(data) > 0 {
			base = uintptrOf(&data[0])
		}
		return p >= base && p < base+uintptr(len(data))
	}
	m := st.Instance().CandInterest
	for e := 0; e < m.NumEvents(); e++ {
		r := m.Row(e)
		if len(r.IDs) == 0 {
			continue
		}
		if !inRange(uintptrOf(&r.IDs[0])) || !inRange(uintptrOf(&r.Vals[0])) {
			t.Fatalf("row %d storage is outside the mapping", e)
		}
	}
}

// TestStreamingWriterMatchesWriteInstance builds the same file through
// the row-streaming API and through WriteInstance.
func TestStreamingWriterMatchesWriteInstance(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 11, Users: 80, Events: 10, Intervals: 4, Competing: 6})
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.sescol")
	if err := WriteInstance(whole, inst); err != nil {
		t.Fatal(err)
	}
	streamed := filepath.Join(dir, "streamed.sescol")
	w, err := Create(streamed, Meta{
		NumUsers: inst.NumUsers, NumIntervals: inst.NumIntervals, Resources: inst.Resources,
		Events: inst.Events, Competing: inst.Competing, Activity: inst.Activity,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave cand/comp appends; order within each matrix is what counts.
	for e := 0; e < inst.CandInterest.NumEvents(); e++ {
		r := inst.CandInterest.Row(e)
		if err := w.AppendCand(r.IDs, r.Vals); err != nil {
			t.Fatal(err)
		}
		if e < inst.CompInterest.NumEvents() {
			c := inst.CompInterest.Row(e)
			if err := w.AppendComp(c.IDs, c.Vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("streamed file differs from whole-instance file (%d vs %d bytes)", len(b), len(a))
	}
	// No spooled temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("stray files in %s: %v", dir, entries)
	}
}

// TestWriterRejectsBadRows pins the streaming validation: unsorted
// ids, out-of-range users and out-of-range values all fail on append.
func TestWriterRejectsBadRows(t *testing.T) {
	meta := Meta{
		NumUsers: 10, NumIntervals: 2,
		Events:   []core.Event{{Location: 0}},
		Activity: activity.UniformHash{Seed: 1},
	}
	for name, row := range map[string]struct {
		ids  []int32
		vals []float64
	}{
		"unsorted":    {[]int32{3, 1}, []float64{0.5, 0.5}},
		"duplicate":   {[]int32{3, 3}, []float64{0.5, 0.5}},
		"user-range":  {[]int32{10}, []float64{0.5}},
		"value-zero":  {[]int32{1}, []float64{0}},
		"value-high":  {[]int32{1}, []float64{1.5}},
		"length-skew": {[]int32{1, 2}, []float64{0.5}},
	} {
		w, err := Create(filepath.Join(t.TempDir(), "x.sescol"), meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendCand(row.ids, row.vals); err == nil {
			t.Errorf("%s: append succeeded", name)
		}
		w.Abort()
	}
}

// TestOpenRejectsCorruption covers the structured failure paths: bad
// magic, truncation, foreign endianness and incomplete writers.
func TestOpenRejectsCorruption(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 2, Users: 50, Events: 6, Intervals: 3, Competing: 4})
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.sescol")
	if err := WriteInstance(path, inst); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		b := mutate(append([]byte(nil), good...))
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := Open(p); err == nil {
			st.Close()
			t.Errorf("%s: open succeeded", name)
		}
	}
	check("badmagic", func(b []byte) []byte { b[0] = 'X'; return b })
	check("endian", func(b []byte) []byte {
		// Byte-swap the probe: a foreign-endian writer.
		b[8], b[9], b[10], b[11] = b[11], b[10], b[9], b[8]
		return b
	})
	check("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	check("shortheader", func(b []byte) []byte { return b[:preludeSize+4] })

	w, err := Create(filepath.Join(dir, "partial.sescol"), Meta{
		NumUsers: 5, NumIntervals: 2,
		Events:   []core.Event{{Location: 0}, {Location: 1}},
		Activity: activity.UniformHash{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCand([]int32{1}, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("Close succeeded with a missing row")
	}
}

// TestEmptyMatrices covers instances without competing events and
// events with empty interest rows.
func TestEmptyMatrices(t *testing.T) {
	inst := &core.Instance{
		NumUsers: 4, NumIntervals: 2, Resources: 1,
		Events:       []core.Event{{Location: 0, Required: 1}, {Location: 1, Required: 1}},
		Competing:    nil,
		CandInterest: interest.NewMatrix(4, 2),
		CompInterest: interest.NewMatrix(4, 0),
		Activity:     activity.Constant(0.5),
	}
	row, err := interest.NewSparseVector([]int32{0, 2}, []float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	inst.CandInterest.SetRow(1, row) // row 0 stays empty
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	st, _ := roundTrip(t, inst)
	got := st.Instance()
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.CandInterest.Row(0).Len() != 0 || got.CandInterest.Row(1).Len() != 2 {
		t.Fatalf("rows differ: %+v", got.CandInterest)
	}
	if got.CompInterest.NumEvents() != 0 {
		t.Fatalf("competing matrix not empty")
	}
	if a, ok := got.Activity.(activity.Constant); !ok || float64(a) != 0.5 {
		t.Fatalf("activity differs: %#v", got.Activity)
	}
}

// uintptrOf exposes a pointer's address for the aliasing check.
func uintptrOf[T any](p *T) uintptr {
	return uintptr(unsafe.Pointer(p))
}
