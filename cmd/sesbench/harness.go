package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"ses"
	"ses/internal/ebsn"
	"ses/internal/sestest"
)

// This file is the one harness every JSON figure runs through: the
// figure table, the artifact path (measure → write → check, or read →
// check under -verify), the host header and floor gate, and the load
// drivers the figures share.

// env is what a figure's measurement reads from the command line.
type env struct {
	ds      *ebsn.Dataset // nil unless the figure needs the EBSN dataset
	seed    uint64
	workers int
	quick   bool
}

// host is the header of the figures whose floors depend on where they
// were measured. Reports embed it, so its fields sit at the top level
// of their JSON.
type host struct {
	HostCPUs int    `json:"host_cpus"`
	Quick    bool   `json:"quick"`
	Seed     uint64 `json:"seed"`
}

// host stamps the measuring host and run shape.
func (e env) host() host {
	return host{HostCPUs: runtime.NumCPU(), Quick: e.quick, Seed: e.seed}
}

// valid rejects a header that was never stamped.
func (h host) valid() error {
	if h.HostCPUs <= 0 {
		return fmt.Errorf("host_cpus %d, want > 0", h.HostCPUs)
	}
	return nil
}

// floorApplies decides whether a floor binds an artifact: only one
// measured on at least cores CPUs, where the comparison is physical,
// and, unless quickToo, only a full-size run. When the floor does not
// bind it prints why.
func (h host) floorApplies(out io.Writer, floor string, cores int, quickToo bool) bool {
	switch {
	case h.HostCPUs < cores:
		fmt.Fprintf(out, "%s not enforced: measured on a %d-CPU host (needs %d)\n", floor, h.HostCPUs, cores)
	case h.Quick && !quickToo:
		fmt.Fprintf(out, "%s not enforced: quick run\n", floor)
	default:
		return true
	}
	return false
}

// figure is one JSON figure of the -fig table.
type figure struct {
	name     string
	artifact string // default -json path
	dataset  bool   // measuring needs the EBSN dataset
	quick    bool   // has a -quick mode
	// run measures and writes the artifact, or with verify reads it
	// back; either way it then checks it.
	run func(ctx context.Context, out io.Writer, e env, path string, verify bool) error
}

// figures is the -fig table of JSON figures, in usage order.
var figures = []figure{
	{name: "engines", artifact: "BENCH_engine.json", dataset: true, run: harness(benchEngines, checkEngines)},
	{name: "objectives", artifact: "BENCH_objective.json", dataset: true, run: harness(benchObjectives, checkObjectives)},
	{name: "resolve", artifact: "BENCH_resolve.json", dataset: true, run: harness(benchResolve, checkResolve)},
	{name: "wal", artifact: "BENCH_wal.json", run: harness(benchWAL, checkWAL)},
	{name: "scaling", artifact: "BENCH_scaling.json", quick: true, run: harness(benchScaling, checkScaling)},
	{name: "cluster", artifact: "BENCH_cluster.json", quick: true, run: harness(benchCluster, checkCluster)},
	{name: "obs", artifact: "BENCH_obs.json", quick: true, run: harness(benchObs, checkObs)},
}

// lookupFigure finds a JSON figure by -fig name.
func lookupFigure(name string) (figure, bool) {
	for _, f := range figures {
		if f.name == name {
			return f, true
		}
	}
	return figure{}, false
}

// figureNames joins the names of the figures keep selects with sep.
func figureNames(sep string, keep func(figure) bool) string {
	var names []string
	for _, f := range figures {
		if keep(f) {
			names = append(names, f.name)
		}
	}
	return strings.Join(names, sep)
}

// harness binds a figure's measure and check into the one artifact
// path.
func harness[R any](measure func(context.Context, io.Writer, env) (*R, error), check func(io.Writer, *R) error) func(context.Context, io.Writer, env, string, bool) error {
	return func(ctx context.Context, out io.Writer, e env, path string, verify bool) error {
		rep := new(R)
		var err error
		if verify {
			err = readArtifact(out, path, rep)
		} else if rep, err = measure(ctx, out, e); err == nil {
			err = writeArtifact(out, path, rep)
		}
		if err != nil {
			return err
		}
		return check(out, rep)
	}
}

// probeArtifact fails fast on an unwritable path before a long
// measurement, without truncating an existing artifact that a
// mid-run failure would otherwise destroy.
func probeArtifact(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	return f.Close()
}

// writeArtifact writes rep as indented JSON with a trailing newline.
func writeArtifact(out io.Writer, path string, rep any) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nwrote %s\n", path)
	return nil
}

// readArtifact decodes the artifact at path into rep for -verify.
func readArtifact(out io.Writer, path string, rep any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if err := json.Unmarshal(raw, rep); err != nil {
		return fmt.Errorf("verify %s: %w", path, err)
	}
	fmt.Fprintf(out, "verifying %s\n", path)
	return nil
}

// warmSessions creates n sessions named prefix-i on the store place
// picks for each, every one a random instance of the given shape
// seeded seed+i, and runs each opening solve so that load drivers
// measure incremental commits.
func warmSessions(ctx context.Context, n int, prefix string, shape sestest.Config, k int, seed uint64, place func(i int, name string) *ses.Store) ([]string, error) {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s-%d", prefix, i)
		shape.Seed = seed + uint64(i)
		st := place(i, names[i])
		if err := st.Create(names[i], sestest.Random(shape), k); err != nil {
			return nil, err
		}
		if _, err := st.Resolve(ctx, names[i]); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// commitLoad is the pipelined-batch driver: one goroutine per session
// commits ops single-mutation batches back to back through commit,
// batch j of every session setting user j%users's interest in event
// j%events. It returns the aggregate commits per wall-clock second.
func commitLoad(sessions, ops, users, events int, commit func(i int, batch []ses.Mutation) error) (float64, error) {
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				mut := ses.UpdateInterestOp(j%users, j%events, 0.1+0.8*float64(j%9)/9)
				if err := commit(i, []ses.Mutation{mut}); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(sessions*ops) / wall, nil
}
