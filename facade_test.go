package ses_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"ses"
)

func TestAllFacadeSolversOnOneInstance(t *testing.T) {
	ds := smallDataset(t)
	inst, err := ses.BuildInstance(ds, ses.PaperParams{K: 8, Intervals: 10, CandidateEvents: 16, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"grd", "grdlazy", "top", "topfill", "rand", "localsearch"} {
		res, err := mustSolver(t, name, ses.WithSeed(4)).Solve(context.Background(), inst, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Schedule.CheckFeasible(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if want := ses.Utility(inst, res.Schedule); math.Abs(res.Utility-want) > 1e-9 {
			t.Errorf("%s: reported %v, reference %v", name, res.Utility, want)
		}
	}
}

func TestFacadeSimulateMatchesUtility(t *testing.T) {
	ds := smallDataset(t)
	inst, err := ses.BuildInstance(ds, ses.PaperParams{K: 6, Intervals: 8, CandidateEvents: 12, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mustSolver(t, "grd").Solve(context.Background(), inst, 6)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ses.Simulate(inst, res.Schedule, ses.SimConfig{Runs: 1500, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	se := out.Total.StdDev()/math.Sqrt(float64(out.Runs)) + 1e-9
	if d := math.Abs(out.Total.Mean() - res.Utility); d > 6*se+0.1 {
		t.Errorf("simulated mean %v vs Ω %v (diff %v, 6·SE %v)", out.Total.Mean(), res.Utility, d, 6*se)
	}
}

func TestFacadeCheckInEstimationPath(t *testing.T) {
	log, truth, err := ses.GenerateCheckIns(ses.CheckInConfig{
		Seed: 9, NumUsers: 30, NumSlots: 7, Periods: 300,
		BaseRateMin: 0.1, BaseRateMax: 0.4, PeakSlots: 2, PeakBoost: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	act, err := ses.EstimateActivity(log, 30, 7, 300, 1, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var mae float64
	for u := 0; u < 30; u++ {
		for ti := 0; ti < 3; ti++ {
			mae += math.Abs(act.Prob(u, ti) - truth[u][ti])
		}
	}
	if mae/90 > 0.05 {
		t.Errorf("facade estimation MAE %v", mae/90)
	}
}

func TestFacadeSocialPath(t *testing.T) {
	ds := smallDataset(t)
	g, err := ds.GenerateSocialGraph(ses.SocialConfig{Seed: 11, AvgDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.AvgDegree() <= 0 {
		t.Fatal("empty social graph")
	}
}

func TestFacadeTableActivity(t *testing.T) {
	act, err := ses.TableActivity([][]float64{{0.5, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if act.Prob(0, 1) != 0.25 {
		t.Fatal("table lookup wrong")
	}
	if _, err := ses.TableActivity([][]float64{{2}}); err == nil {
		t.Fatal("σ > 1 accepted")
	}
}

func TestFacadeSolverConfigWorkers(t *testing.T) {
	// The facade's Workers knob must be output-neutral.
	ds := smallDataset(t)
	inst, err := ses.BuildInstance(ds, ses.PaperParams{K: 8, Intervals: 10, CandidateEvents: 16, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := mustSolver(t, "grd", ses.WithWorkers(1)).Solve(context.Background(), inst, 8)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := mustSolver(t, "grd", ses.WithWorkers(8)).Solve(context.Background(), inst, 8)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Utility != parallel.Utility {
		t.Errorf("utility differs: %v vs %v", serial.Utility, parallel.Utility)
	}
	res, err := mustSolver(t, "grdlazy", ses.WithWorkers(4)).Solve(context.Background(), inst, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utility != serial.Utility {
		t.Errorf("grdlazy(workers=4) utility %v != grd %v", res.Utility, serial.Utility)
	}
}

func TestEveryRegisteredSolverThroughTheFacade(t *testing.T) {
	// Drive every name in SolverNames() through New on one small
	// instance, serial and with two workers, and require feasible,
	// correctly valued and worker-neutral results.
	ds := smallDataset(t)
	inst, err := ses.BuildInstance(ds, ses.PaperParams{K: 6, Intervals: 8, CandidateEvents: 12, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	names := ses.SolverNames()
	if len(names) != 7 {
		t.Fatalf("registry has %d solvers, want 7: %v", len(names), names)
	}
	for _, name := range names {
		s, err := ses.New(name, ses.WithSeed(7), ses.WithWorkers(2))
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
		res, err := s.Solve(context.Background(), inst, 6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Schedule.CheckFeasible(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if want := ses.Utility(inst, res.Schedule); math.Abs(res.Utility-want) > 1e-9 {
			t.Errorf("%s: reported %v, reference %v", name, res.Utility, want)
		}
		serial, err := mustSolver(t, name, ses.WithSeed(7), ses.WithWorkers(1)).Solve(context.Background(), inst, 6)
		if err != nil {
			t.Fatalf("%s (serial): %v", name, err)
		}
		if serial.Utility != res.Utility {
			t.Errorf("%s: workers=2 %v, workers=1 %v", name, res.Utility, serial.Utility)
		}
	}
	if _, err := ses.New("bogus"); err == nil {
		t.Error("unknown solver name accepted")
	}
}

func TestFacadeSchedulerLifecycle(t *testing.T) {
	inst := festivalInstance()
	var seen []ses.Progress
	sched, err := ses.NewScheduler(inst, 2, ses.WithWorkers(1),
		ses.WithProgress(func(p ses.Progress) { seen = append(seen, p) }))
	if err != nil {
		t.Fatal(err)
	}
	d, err := sched.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	grd, err := ses.New("grd")
	if err != nil {
		t.Fatal(err)
	}
	res, err := grd.Solve(context.Background(), inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Utility != res.Utility {
		t.Fatalf("scheduler %v, grd %v", d.Utility, res.Utility)
	}
	if len(seen) != len(sched.Schedule()) {
		t.Fatalf("%d progress events for %d assignments", len(seen), len(sched.Schedule()))
	}
	// Mutate: a rival pops up wherever the pop concert landed; the
	// re-solve must be incremental (|E| rescored entries, one column).
	popAt := sched.Schedule()[0].Interval
	if _, err := sched.AddCompeting(ses.CompetingEvent{Interval: popAt, Name: "flash-mob"},
		map[int]float64{0: 0.9, 1: 0.9, 2: 0.9}); err != nil {
		t.Fatal(err)
	}
	d2, err := sched.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := sched.Instance().NumEvents(); d2.Counters.InitialScores != want {
		t.Errorf("incremental resolve scored %d entries, want %d", d2.Counters.InitialScores, want)
	}
	if d2.Utility != ses.Utility(sched.Instance(), rebuildSchedule(t, sched)) {
		t.Error("delta utility disagrees with reference")
	}
	// Cancellation mid-session must not lose the committed schedule.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := sched.Schedule()
	if _, err := sched.Resolve(ctx); err == nil {
		t.Fatal("canceled resolve succeeded")
	}
	after := sched.Schedule()
	if len(before) != len(after) {
		t.Fatal("canceled resolve changed the schedule")
	}
}

// rebuildSchedule materializes the scheduler's committed assignments
// as a core schedule for reference evaluation.
func rebuildSchedule(t *testing.T, sched *ses.Scheduler) *ses.Schedule {
	t.Helper()
	s := ses.NewSchedule(sched.Instance())
	for _, a := range sched.Schedule() {
		if err := s.Assign(a.Event, a.Interval); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestFacadeExactOnToyInstance(t *testing.T) {
	inst := festivalInstance()
	opt, err := mustSolver(t, "exact").Solve(context.Background(), inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	grd, err := mustSolver(t, "grd").Solve(context.Background(), inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if grd.Utility > opt.Utility+1e-9 {
		t.Fatalf("greedy %v beat exact %v", grd.Utility, opt.Utility)
	}
}

// TestFacadeObjectiveOption drives WithObjective through every public
// surface: solver construction, a scheduling session, the session
// store, and the snapshot codec.
func TestFacadeObjectiveOption(t *testing.T) {
	ds := smallDataset(t)
	inst, err := ses.BuildInstance(ds, ses.PaperParams{K: 6, Intervals: 8, CandidateEvents: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	if got := ses.ObjectiveNames(); len(got) != 3 {
		t.Fatalf("ObjectiveNames() = %v", got)
	}
	att, err := ses.AttendanceObjective(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.AttendanceObjective(1.5); err == nil {
		t.Fatal("AttendanceObjective(1.5) should fail")
	}
	fair, err := ses.FairnessObjective(0.6)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ses.ParseObjective("attendance:0.4")
	if err != nil || parsed != att {
		t.Fatalf("ParseObjective mismatch: %v, %v", parsed, err)
	}

	// Solver surface: the result reports the objective and both values.
	s, err := ses.New("grd", ses.WithWorkers(1), ses.WithObjective(att))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), inst, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != "attendance:0.4" {
		t.Fatalf("Result.Objective = %q", res.Objective)
	}
	if res.Omega+1e-9 < res.Utility {
		t.Fatalf("Ω %v below thresholded attendance %v", res.Omega, res.Utility)
	}

	// Session surface: objective survives snapshot → restore.
	sched, err := ses.NewScheduler(inst, 4, ses.WithWorkers(1), ses.WithObjective(fair))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	state := sched.ExportState()
	if state.Objective != "fairness:0.6" {
		t.Fatalf("exported objective %q", state.Objective)
	}
	doc, err := ses.NewSnapshot("fair", state)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != ses.SnapshotVersion || doc.Objective != "fairness:0.6" {
		t.Fatalf("snapshot doc %+v", doc)
	}
	restored, err := ses.RestoreScheduler(state, ses.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Objective().Name() != "fairness:0.6" {
		t.Fatalf("restored objective %q", restored.Objective().Name())
	}

	// Store surface: per-session objectives coexist in one store.
	st := ses.NewStore(ses.WithWorkers(1))
	if err := st.Create("plain", inst, 4); err != nil {
		t.Fatal(err)
	}
	if err := st.CreateWithObjective("fair", inst, 4, fair); err != nil {
		t.Fatal(err)
	}
	mp, err := st.Meta("plain")
	if err != nil {
		t.Fatal(err)
	}
	mf, err := st.Meta("fair")
	if err != nil {
		t.Fatal(err)
	}
	if mp.Objective != "omega" || mf.Objective != "fairness:0.6" {
		t.Fatalf("store metas: %q / %q", mp.Objective, mf.Objective)
	}
}

func TestFacadeDurableStore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	if _, err := ses.OpenStore(ses.WithWorkers(1)); err == nil {
		t.Fatal("OpenStore without WithDurability accepted")
	}
	st, err := ses.OpenStore(ses.WithDurability(dir), ses.WithSyncPolicy(ses.SyncNone), ses.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	inst := festivalInstance()
	if err := st.Create("fest", inst, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyBatch(ctx, "fest", []ses.Mutation{
		ses.AddCompetingOp(ses.CompetingEvent{Interval: 0, Name: "rival"}, map[int]float64{0: 0.9}),
	}); err != nil {
		t.Fatal(err)
	}
	wantState, err := st.Snapshot("fest")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Create("late", inst, 2); err != ses.ErrStoreClosed {
		t.Fatalf("Create after Close: %v", err)
	}

	re, err := ses.OpenStore(ses.WithDurability(dir), ses.WithSyncPolicy(ses.SyncInterval), ses.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	gotState, err := re.Snapshot("fest")
	if err != nil {
		t.Fatal(err)
	}
	wantDoc, _ := ses.NewSnapshot("fest", wantState)
	gotDoc, _ := ses.NewSnapshot("fest", gotState)
	var wantB, gotB strings.Builder
	if err := ses.EncodeSnapshot(&wantB, wantDoc); err != nil {
		t.Fatal(err)
	}
	if err := ses.EncodeSnapshot(&gotB, gotDoc); err != nil {
		t.Fatal(err)
	}
	if wantB.String() != gotB.String() {
		t.Fatalf("recovered session diverged:\n got: %s\nwant: %s", gotB.String(), wantB.String())
	}
	if _, err := re.ApplyBatch(ctx, "fest", []ses.Mutation{ses.SetKOp(3)}); err != nil {
		t.Fatal(err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}
