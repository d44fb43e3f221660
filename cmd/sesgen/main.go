// Command sesgen generates synthetic EBSN datasets and SES problem
// instances and writes them as JSON for later use with sessolve or
// external tooling.
//
// Usage:
//
//	sesgen -out dataset.json [-users N] [-events N] [-tags N]
//	       [-groups N] [-seed S]
//	sesgen -dataset dataset.json -instance inst.json [-k K] [-T N]
//	       [-E N] [-seed S] [-preset skewed|minority]
//
// With -instance, an instance is built from the dataset (generated
// fresh unless -dataset points at an existing file) using the paper's
// Section IV-A parameters.
//
// -preset reshapes the instance's interest to stress a non-default
// objective: "skewed" concentrates interest in a head of users so the
// attendance objective's success threshold bites, and "minority"
// plants an adversarial user minority whose events only the fairness
// objective protects (see the preset docs in preset.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ses/internal/dataset"
	"ses/internal/ebsn"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sesgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sesgen", flag.ContinueOnError)
	outPath := fs.String("out", "", "write the generated dataset JSON here")
	dsPath := fs.String("dataset", "", "load dataset from this file instead of generating")
	instPath := fs.String("instance", "", "also build an instance and write it here")
	users := fs.Int("users", 2000, "users in the generated dataset")
	events := fs.Int("events", 4096, "event pool size")
	tags := fs.Int("tags", 2000, "tag vocabulary size")
	groups := fs.Int("groups", 150, "number of groups")
	k := fs.Int("k", 20, "instance: number of events to schedule")
	intervals := fs.Int("T", 0, "instance: time intervals (0 = paper default 3k/2)")
	cand := fs.Int("E", 0, "instance: candidate events (0 = paper default 2k)")
	preset := fs.String("preset", "", "instance: scenario preset reshaping interest (skewed, minority)")
	seed := fs.Uint64("seed", 1, "master seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" && *instPath == "" {
		return fmt.Errorf("nothing to do: pass -out and/or -instance")
	}
	if *preset != "" && *instPath == "" {
		return fmt.Errorf("-preset only applies to -instance output")
	}
	if err := validPreset(*preset); err != nil {
		return err // fail before minutes of dataset generation
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
		fmt.Fprintf(out, "loaded dataset: %d users, %d events\n", len(ds.UserTags), len(ds.EventTags))
	} else {
		cfg := ebsn.Config{
			Seed: *seed, NumUsers: *users, NumEvents: *events,
			NumTags: *tags, NumGroups: *groups,
		}
		var err error
		ds, err = ebsn.Generate(cfg)
		if err != nil {
			return err
		}
		// Zero dimensions take ebsn's defaults, so report what was built.
		fmt.Fprintf(out, "generated dataset: %d users, %d events, %d tags, %d groups\n",
			ds.Config.NumUsers, ds.Config.NumEvents, ds.Config.NumTags, ds.Config.NumGroups)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		err = dataset.SaveDataset(f, ds)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote dataset to %s\n", *outPath)
	}

	if *instPath != "" {
		// Zero parameters take the paper's defaults; report those.
		params := dataset.PaperParams{
			K: *k, Intervals: *intervals, CandidateEvents: *cand, Seed: *seed,
		}.Normalize()
		inst, err := dataset.BuildInstance(ds, params)
		if err != nil {
			return err
		}
		if err := applyPreset(inst, *preset, *seed); err != nil {
			return err
		}
		if *preset != "" {
			fmt.Fprintf(out, "applied preset %q\n", *preset)
		}
		f, err := os.Create(*instPath)
		if err != nil {
			return err
		}
		err = dataset.SaveInstance(f, inst)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote instance to %s (k=%d, |T|=%d, |E|=%d, |C|=%d)\n",
			*instPath, params.K, inst.NumIntervals, inst.NumEvents(), len(inst.Competing))
	}
	return nil
}
