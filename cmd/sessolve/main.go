// Command sessolve solves a SES instance file with a chosen algorithm
// and prints the schedule and its expected attendance.
//
// Usage:
//
//	sessolve -instance inst.json [-algo grd] [-k K] [-seed S] [-show N]
//	         [-workers W] [-timeout D] [-progress] [-objective SPEC]
//
// The instance file is produced by sesgen (or any tool emitting the
// same JSON). -k 0 uses the instance's natural k = |E|/2 (the paper's
// ratio). -show limits how many assignments are printed.
//
// -objective selects what the solver maximizes: "omega" (default, the
// paper's expected attendance), "attendance[:theta]" (thresholded
// success-probability attendance) or "fairness[:blend]" (egalitarian
// min-participant blend). Non-default objectives print their value on
// an extra line next to the always-reported Ω.
//
// -timeout bounds the solve with a context deadline: anytime
// algorithms (grd, grdlazy, localsearch) return their feasible
// best-so-far schedule when it expires (marked "stopped:
// deadline" in the output); the others abort with an error. Ctrl-C
// cancels the solve promptly either way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"time"

	"ses"
	"ses/internal/choice"
	"ses/internal/dataset"
	"ses/internal/tablefmt"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sessolve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sessolve", flag.ContinueOnError)
	instPath := fs.String("instance", "", "instance JSON file (required)")
	algo := fs.String("algo", "grd", fmt.Sprintf("algorithm: %v", ses.SolverNames()))
	k := fs.Int("k", 0, "events to schedule (0 = |E|/2, the paper's ratio)")
	seed := fs.Uint64("seed", 1, "seed for randomized algorithms")
	show := fs.Int("show", 20, "max assignments to print")
	workers := fs.Int("workers", 0, "goroutines for initial scoring (0 = all cores, 1 = serial; output is identical)")
	objective := fs.String("objective", "", `objective to maximize: "omega" (default), "attendance[:theta]" or "fairness[:blend]"`)
	timeout := fs.Duration("timeout", 0, "solve deadline (0 = none); anytime algorithms return their best-so-far")
	progress := fs.Bool("progress", false, "stream one line per applied assignment to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *instPath == "" {
		return fmt.Errorf("-instance is required")
	}
	f, err := os.Open(*instPath)
	if err != nil {
		return err
	}
	inst, err := dataset.LoadInstance(f)
	f.Close()
	if err != nil {
		return err
	}
	if *k == 0 {
		*k = inst.NumEvents() / 2
	}
	obj, err := ses.ParseObjective(*objective)
	if err != nil {
		return err
	}
	opts := []ses.Option{ses.WithSeed(*seed), ses.WithWorkers(*workers), ses.WithObjective(obj)}
	if *progress {
		opts = append(opts, ses.WithProgress(func(p ses.Progress) {
			fmt.Fprintf(os.Stderr, "%s: scheduled event %d at interval %d (%d so far)\n",
				p.Solver, p.Event, p.Interval, p.Scheduled)
		}))
	}
	s, err := ses.New(*algo, opts...)
	if err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	fmt.Fprintf(out, "instance: %d users, %d intervals, %d candidate events, %d competing, θ=%g\n",
		inst.NumUsers, inst.NumIntervals, inst.NumEvents(), len(inst.Competing), inst.Resources)
	start := time.Now()
	res, err := s.Solve(ctx, inst, *k)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("solve canceled: %w", err)
		}
		return err
	}
	elapsed := time.Since(start)
	note := ""
	if res.Stopped != "" {
		note = fmt.Sprintf(" (stopped: %s)", res.Stopped)
	}
	fmt.Fprintf(out, "%s scheduled %d/%d events in %s%s; expected attendance Ω = %.2f\n",
		s.Name(), res.Schedule.Size(), *k, tablefmt.Duration(elapsed), note, res.Omega)
	// The extra objective line appears only for non-default objectives,
	// keeping the default output (and its goldens) unchanged.
	if res.Objective != "omega" {
		fmt.Fprintf(out, "objective %s = %.4f\n", res.Objective, res.Utility)
	}
	fmt.Fprintln(out)

	// Print assignments by decreasing attendance.
	type row struct {
		a     int
		t     int
		name  string
		omega float64
	}
	var rows []row
	eng := res.Schedule
	for _, a := range eng.Assignments() {
		rows = append(rows, row{
			a: a.Event, t: a.Interval,
			name:  inst.Events[a.Event].Name,
			omega: choice.ReferenceEventAttendance(inst, res.Schedule, a.Event),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].omega > rows[j].omega })
	tab := &tablefmt.Table{Header: []string{"event", "name", "interval", "expected attendees"}}
	shown := len(rows)
	if shown > *show {
		shown = *show
	}
	for _, r := range rows[:shown] {
		tab.AddRow(fmt.Sprintf("%d", r.a), r.name, fmt.Sprintf("%d", r.t), tablefmt.Float(r.omega))
	}
	if err := tab.Render(out); err != nil {
		return err
	}
	if rest := len(rows) - shown; rest > 0 {
		fmt.Fprintf(out, "... and %d more assignments\n", rest)
	}
	return nil
}
