// Command sesinspect reports the dataset statistics the paper derives
// its experimental parameters from:
//
//   - the overlapping-events analysis behind the "8.1 competing events
//     per interval" parameter (Section IV-A),
//   - interest (likeness) sparsity and distribution under Jaccard,
//   - tag popularity skew.
//
// Usage:
//
//	sesinspect [-dataset file.json] [-users N] [-events N] [-seed S]
//	           [-events-per-day F]
//
// Without -dataset, a dataset is generated at the given scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"ses/internal/dataset"
	"ses/internal/ebsn"
	"ses/internal/interest"
	"ses/internal/stats"
	"ses/internal/tablefmt"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sesinspect:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sesinspect", flag.ContinueOnError)
	dsPath := fs.String("dataset", "", "dataset JSON (omit to generate)")
	users := fs.Int("users", 8000, "users when generating")
	events := fs.Int("events", 8192, "event pool when generating")
	seed := fs.Uint64("seed", 42, "seed")
	perDay := fs.Float64("events-per-day", 13.5, "timeline density for the overlap analysis")
	sample := fs.Int("sample", 200, "events to sample for the interest statistics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sample < 1 {
		return fmt.Errorf("-sample %d: need at least one event", *sample)
	}
	if !(*perDay > 0) || math.IsInf(*perDay, 1) {
		return fmt.Errorf("-events-per-day %g: need a finite positive rate", *perDay)
	}

	var ds *ebsn.Dataset
	if *dsPath != "" {
		f, err := os.Open(*dsPath)
		if err != nil {
			return err
		}
		ds, err = dataset.LoadDataset(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		cfg := ebsn.DefaultConfig(*seed)
		cfg.NumUsers = *users
		cfg.NumEvents = *events
		cfg.NumTags = 3000
		cfg.NumGroups = 400
		var err error
		ds, err = ebsn.Generate(cfg)
		if err != nil {
			return err
		}
	}
	// Every statistic below divides by users or events.
	if len(ds.UserTags) == 0 || len(ds.EventTags) == 0 {
		return fmt.Errorf("dataset has %d users and %d events: need at least one of each", len(ds.UserTags), len(ds.EventTags))
	}
	fmt.Fprintf(out, "dataset: %d users, %d pool events, %d groups\n\n",
		len(ds.UserTags), len(ds.EventTags), len(ds.GroupTags))

	// 1. Overlapping-events analysis (paper: 8.1 on average).
	n := len(ds.EventTags)
	horizon := float64(n) / *perDay * 24
	times := ebsn.GenerateTimes(*seed, n, horizon, 1.5, 3.5)
	ov, err := ebsn.ComputeOverlapStats(times)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "overlapping-events analysis (%g events/day over %.0f days):\n", *perDay, horizon/24)
	fmt.Fprintf(out, "  mean events during overlapping intervals: %.1f   (paper's Meetup measurement: 8.1)\n", ov.MeanOverlap)
	fmt.Fprintf(out, "  max overlap: %d   time-weighted mean concurrency: %.1f\n\n", ov.MaxOverlap, ov.MeanConcurrency)

	// 2. Interest statistics under thresholded Jaccard.
	if *sample > n {
		*sample = n
	}
	picks := make([]int, *sample)
	for i := range picks {
		picks[i] = i * n / *sample
	}
	sim := interest.Thresholded(interest.Jaccard, 0.04)
	m := ds.InterestFor(picks, sim)
	var perEvent stats.Summary
	var muAll []float64
	for e := 0; e < m.NumEvents(); e++ {
		r := m.Row(e)
		perEvent.Add(float64(r.Len()))
		muAll = append(muAll, r.Vals...)
	}
	density := float64(m.NNZ()) / float64(m.NumEvents()*len(ds.UserTags))
	fmt.Fprintf(out, "interest (Jaccard, threshold 0.04) over %d sampled events:\n", *sample)
	fmt.Fprintf(out, "  density: %.4f   interested users per event: %s\n", density, perEvent.String())
	if len(muAll) > 0 {
		sort.Float64s(muAll)
		fmt.Fprintf(out, "  µ quartiles: p25=%.3f p50=%.3f p75=%.3f p95=%.3f\n\n",
			stats.Percentile(muAll, 25), stats.Percentile(muAll, 50),
			stats.Percentile(muAll, 75), stats.Percentile(muAll, 95))
	}

	// 3. Tag popularity skew.
	counts := map[int32]int{}
	for _, ts := range ds.UserTags {
		for _, tag := range ts {
			counts[tag]++
		}
	}
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	tab := &tablefmt.Table{
		Title:  "tag popularity (users per tag)",
		Header: []string{"rank", "users"},
	}
	for _, rank := range []int{1, 10, 100, 1000} {
		if rank <= len(freqs) {
			tab.AddRow(fmt.Sprintf("%d", rank), fmt.Sprintf("%d", freqs[rank-1]))
		}
	}
	return tab.Render(out)
}
