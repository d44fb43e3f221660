package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"ses"
	"ses/internal/tablefmt"
)

// resolveRun is one Resolve's cost and outcome.
type resolveRun struct {
	InitialScores int     `json:"initial_scores"`
	ScoreUpdates  int     `json:"score_updates"`
	Utility       float64 `json:"utility"`
	Millis        float64 `json:"ms"`
}

// resolveScenario is one mutation's incremental and from-scratch
// resolve.
type resolveScenario struct {
	Name         string     `json:"name"`
	Incremental  resolveRun `json:"incremental"`
	Scratch      resolveRun `json:"scratch"`
	UtilityMatch bool       `json:"utility_match"`
	// ScoreRatio is scratch/incremental InitialScores; 0 means the
	// mutation invalidated no initial scores at all.
	ScoreRatio float64 `json:"initial_score_ratio"`
}

// resolveReport is the BENCH_resolve.json document.
type resolveReport struct {
	Events    int               `json:"events"`
	Intervals int               `json:"intervals"`
	K         int               `json:"k"`
	Users     int               `json:"users"`
	Scenarios []resolveScenario `json:"scenarios"`
}

// benchResolve measures the session layer's incremental Resolve
// against a from-scratch re-solve after single mutations. For every
// scenario it applies one mutation to a warm ses.Scheduler, resolves
// incrementally, then replays the same state into a fresh Scheduler
// and resolves from scratch; checkResolve requires the utilities to
// match, and the incremental InitialScores count is the headline
// saving.
func benchResolve(ctx context.Context, out io.Writer, e env) (*resolveReport, error) {
	const k = 50
	inst, err := ses.BuildInstance(e.ds, ses.PaperParams{
		K: k, Intervals: 3 * k / 2, CandidateEvents: 2 * k, Seed: e.seed,
	})
	if err != nil {
		return nil, err
	}
	nE, nT := inst.NumEvents(), inst.NumIntervals
	fmt.Fprintf(out, "\n== incremental Resolve vs from-scratch (|E|=%d |T|=%d k=%d) ==\n\n", nE, nT, k)

	sched, err := ses.NewScheduler(inst, k, ses.WithWorkers(e.workers))
	if err != nil {
		return nil, err
	}
	rep := &resolveReport{Events: nE, Intervals: nT, K: k, Users: inst.NumUsers}

	resolve := func(s *ses.Scheduler) (resolveRun, error) {
		start := time.Now()
		d, err := s.Resolve(ctx)
		if err != nil {
			return resolveRun{}, err
		}
		return resolveRun{
			InitialScores: d.Counters.InitialScores,
			ScoreUpdates:  d.Counters.ScoreUpdates,
			Utility:       d.Utility,
			Millis:        float64(time.Since(start).Microseconds()) / 1000,
		}, nil
	}

	// Warm up the session with the opening solve.
	opening, err := resolve(sched)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "opening solve: Ω = %.1f, %d initial scores\n\n", opening.Utility, opening.InitialScores)

	// Replayed mutation log so the from-scratch comparator sees the
	// exact same constraints.
	var pins [][2]int
	var cancels []int

	wideInterest := func(every int, mu float64) map[int]float64 {
		m := make(map[int]float64)
		for u := 0; u < inst.NumUsers; u += every {
			m[u] = mu
		}
		return m
	}
	scenarios := []struct {
		name   string
		mutate func() error
	}{
		{"update_interest", func() error { return sched.UpdateInterest(1, 2, 0.8) }},
		{"add_event", func() error {
			_, err := sched.AddEvent(ses.Event{Location: 0, Required: 2, Name: "bench-late"}, wideInterest(7, 0.5))
			return err
		}},
		{"add_competing", func() error {
			_, err := sched.AddCompeting(ses.CompetingEvent{Interval: 1, Name: "bench-rival"}, wideInterest(5, 0.6))
			return err
		}},
		{"cancel_event", func() error {
			ev := sched.Schedule()[0].Event
			cancels = append(cancels, ev)
			return sched.CancelEvent(ev)
		}},
		{"pin_event", func() error {
			a := sched.Schedule()[1]
			to := (a.Interval + 1) % nT
			pins = append(pins, [2]int{a.Event, to})
			return sched.Pin(a.Event, to)
		}},
	}

	tab := &tablefmt.Table{
		Title:  "Incremental Resolve vs from-scratch GRD (identical utility required)",
		Header: []string{"mutation", "inc scores", "scratch scores", "ratio", "inc ms", "scratch ms", "Ω match"},
	}
	for _, sc := range scenarios {
		if err := sc.mutate(); err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		inc, err := resolve(sched)
		if err != nil {
			return nil, fmt.Errorf("%s: incremental: %w", sc.name, err)
		}
		// From-scratch comparator: a fresh session over the mutated
		// instance with the same constraint log.
		fresh, err := ses.NewScheduler(sched.Instance(), k, ses.WithWorkers(e.workers))
		if err != nil {
			return nil, err
		}
		for _, ev := range cancels {
			if err := fresh.CancelEvent(ev); err != nil {
				return nil, err
			}
		}
		for _, p := range pins {
			if err := fresh.Pin(p[0], p[1]); err != nil {
				return nil, err
			}
		}
		scr, err := resolve(fresh)
		if err != nil {
			return nil, fmt.Errorf("%s: from-scratch: %w", sc.name, err)
		}
		ratio := 0.0
		ratioStr := "∞"
		if inc.InitialScores > 0 {
			ratio = float64(scr.InitialScores) / float64(inc.InitialScores)
			ratioStr = fmt.Sprintf("%.0f×", ratio)
		}
		match := inc.Utility == scr.Utility
		rep.Scenarios = append(rep.Scenarios, resolveScenario{
			Name: sc.name, Incremental: inc, Scratch: scr, UtilityMatch: match, ScoreRatio: ratio,
		})
		tab.AddRow(sc.name,
			fmt.Sprintf("%d", inc.InitialScores),
			fmt.Sprintf("%d", scr.InitialScores),
			ratioStr,
			fmt.Sprintf("%.2f", inc.Millis),
			fmt.Sprintf("%.2f", scr.Millis),
			fmt.Sprintf("%v", match))
	}
	return rep, tab.Render(out)
}

// checkResolve requires every scenario's incremental utility to match
// the from-scratch one with fewer initial scores computed.
func checkResolve(_ io.Writer, rep *resolveReport) error {
	if len(rep.Scenarios) == 0 {
		return fmt.Errorf("resolve artifact: no scenarios")
	}
	for _, sc := range rep.Scenarios {
		if !sc.UtilityMatch || sc.Incremental.Utility != sc.Scratch.Utility {
			return fmt.Errorf("resolve artifact: %s: utilities diverged: incremental %v vs from-scratch %v",
				sc.Name, sc.Incremental.Utility, sc.Scratch.Utility)
		}
		if sc.Incremental.InitialScores >= sc.Scratch.InitialScores {
			return fmt.Errorf("resolve artifact: %s: incremental InitialScores %d not below from-scratch %d",
				sc.Name, sc.Incremental.InitialScores, sc.Scratch.InitialScores)
		}
	}
	return nil
}
