package ses_test

import (
	"context"
	"path/filepath"
	"testing"

	"ses"
	"ses/internal/sestest"
)

// TestColumnarFacadeRoundTrip drives the documented flow end to end:
// write a columnar instance, reopen it, and solve over the mapping —
// matching the in-memory solve exactly.
func TestColumnarFacadeRoundTrip(t *testing.T) {
	inst := sestest.Random(sestest.Config{Seed: 21, Users: 400, Events: 14, Intervals: 5, Competing: 6})
	path := filepath.Join(t.TempDir(), "inst.sescol")
	if err := ses.WriteColumnarInstance(path, inst); err != nil {
		t.Fatal(err)
	}
	st, err := ses.OpenColumnarInstance(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	s, err := ses.New("grd", ses.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Solve(context.Background(), inst, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Solve(context.Background(), st.Instance(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Utility != want.Utility {
		t.Fatalf("over-mapping utility %v, in-memory %v", got.Utility, want.Utility)
	}
	ga, wa := got.Schedule.Assignments(), want.Schedule.Assignments()
	if len(ga) != len(wa) {
		t.Fatalf("schedule sizes differ: %d vs %d", len(ga), len(wa))
	}
	for i := range ga {
		if ga[i] != wa[i] {
			t.Fatalf("schedules differ at %d: %+v vs %+v", i, ga[i], wa[i])
		}
	}
}
