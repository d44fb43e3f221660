package main

import (
	"bytes"
	"context"
	"fmt"

	"ses"
	"ses/internal/store"
)

// The output checks. Each returns an error naming what the daemons got
// wrong; any error fails the run, which then reports no metrics.

// checkRead checks a schedule read served by the session's primary:
// it must show exactly the schedule and utility of the last write.
func checkRead(name string, utility float64, sched map[int]int, got scheduleResp) error {
	if got.Utility != utility {
		return fmt.Errorf("check: %s read utility %v, last write committed %v", name, got.Utility, utility)
	}
	if len(got.Assignments) != len(sched) {
		return fmt.Errorf("check: %s read %d assignments, last write committed %d", name, len(got.Assignments), len(sched))
	}
	for _, a := range got.Assignments {
		if t, ok := sched[a.Event]; !ok || t != a.Interval {
			return fmt.Errorf("check: %s read assignment (%d,%d) the last write did not commit", name, a.Event, a.Interval)
		}
	}
	return nil
}

// checkReplicaRead checks a read a replica answered: replicas may
// trail the primary, so the utility must be one the session has
// committed, not necessarily the latest.
func checkReplicaRead(name string, committed map[float64]bool, utility float64) error {
	if !committed[utility] {
		return fmt.Errorf("check: %s replica read utility %v was never committed", name, utility)
	}
	return nil
}

// checkFirstResolve checks cold-create's first resolve against GRD
// solved from scratch on the same document before the clock started.
func checkFirstResolve(name string, want, got float64) error {
	if got != want {
		return fmt.Errorf("check: %s first resolve utility %v, GRD.Solve gives %v", name, got, want)
	}
	return nil
}

// checkAcked checks the router's merged session list: every session
// must show at least the batches the benchmark saw acknowledged.
func checkAcked(metas []store.Meta, models []*model) error {
	byName := make(map[string]store.Meta, len(metas))
	for _, m := range metas {
		byName[m.Name] = m
	}
	for _, m := range models {
		meta, ok := byName[m.name]
		if !ok {
			return fmt.Errorf("check: %s missing from the router's session list", m.name)
		}
		if meta.Batches < uint64(m.batches) {
			return fmt.Errorf("check: %s lists %d batches, %d were acknowledged", m.name, meta.Batches, m.batches)
		}
	}
	return nil
}

// checkScratch restores a session's snapshot into a fresh scheduler,
// which re-scores from scratch on its first resolve, and checks that
// the from-scratch solve gives the committed utility exactly.
func checkScratch(ctx context.Context, name string, snapshot []byte, committed float64) error {
	doc, err := ses.DecodeSnapshot(bytes.NewReader(snapshot))
	if err != nil {
		return fmt.Errorf("check: %s snapshot: %w", name, err)
	}
	st, err := doc.State()
	if err != nil {
		return fmt.Errorf("check: %s snapshot: %w", name, err)
	}
	sched, err := ses.RestoreScheduler(st)
	if err != nil {
		return fmt.Errorf("check: %s restore: %w", name, err)
	}
	d, err := sched.Resolve(ctx)
	if err != nil {
		return fmt.Errorf("check: %s from-scratch resolve: %w", name, err)
	}
	if d.Counters.InitialScores == 0 {
		return fmt.Errorf("check: %s restored resolve re-scored nothing", name)
	}
	if d.Utility != committed {
		return fmt.Errorf("check: %s from-scratch utility %v, committed %v", name, d.Utility, committed)
	}
	return nil
}
