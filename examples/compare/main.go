// Compare: run every solver in the suite on the same instance and,
// on a small instance, measure each heuristic's gap to the exact
// optimum (the paper proves SES strongly NP-hard, so exact solving is
// only feasible at toy scale).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ses"
)

func main() {
	ds, err := ses.GenerateEBSN(ses.EBSNConfig{
		Seed:      5,
		NumUsers:  2500,
		NumEvents: 2048,
		NumTags:   2000,
		NumGroups: 120,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Mid-size comparison: every polynomial solver.
	inst, err := ses.BuildInstance(ds, ses.PaperParams{
		K: 30, Intervals: 45, CandidateEvents: 60, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mid-size instance: |E|=%d |T|=%d |C|=%d users=%d, k=30\n\n",
		inst.NumEvents(), inst.NumIntervals, len(inst.Competing), inst.NumUsers)
	fmt.Printf("%-14s %-12s %-10s %-10s\n", "solver", "utility", "time", "scheduled")
	for _, name := range []string{"grd", "grdlazy", "top", "topfill", "rand", "localsearch"} {
		s, err := ses.New(name, ses.WithSeed(9))
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := s.Solve(context.Background(), inst, 30)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %-12.1f %-10s %-10d\n",
			name, res.Utility, time.Since(start).Round(time.Millisecond), res.Schedule.Size())
	}

	// Toy instance: optimality gaps against the exact solver.
	tiny, err := ses.BuildInstance(ds, ses.PaperParams{
		K: 4, Intervals: 3, CandidateEvents: 9, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	exact, err := ses.New("exact")
	if err != nil {
		log.Fatal(err)
	}
	opt, err := exact.Solve(context.Background(), tiny, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntoy instance (|E|=9, |T|=3, k=4): exact optimum Ω* = %.2f\n", opt.Utility)
	for _, name := range []string{"grd", "top", "rand"} {
		s, _ := ses.New(name, ses.WithSeed(9))
		res, err := s.Solve(context.Background(), tiny, 4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s Ω = %-8.2f (%.1f%% of optimal)\n",
			name, res.Utility, 100*res.Utility/opt.Utility)
	}
}
