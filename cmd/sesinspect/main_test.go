package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunReportsAllSections(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-users", "400", "-events", "512", "-sample", "30"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"overlapping-events analysis",
		"paper's Meetup measurement: 8.1",
		"interest (Jaccard, threshold 0.04)",
		"density",
		"tag popularity",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	// Datasets that load but leave nothing to divide by.
	dir := t.TempDir()
	noUsers := filepath.Join(dir, "no-users.json")
	noEvents := filepath.Join(dir, "no-events.json")
	for path, doc := range map[string]string{
		noUsers:  `{"user_tags":[],"user_groups":[],"event_tags":[[1],[2]],"event_group":[0,0],"group_tags":[[1,2]]}`,
		noEvents: `{"user_tags":[[1],[2]],"user_groups":[[0],[0]],"event_tags":[],"event_group":[],"group_tags":[[1,2]]}`,
	} {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{
		{"-bogus"},
		{"-dataset", "/nope.json"},
		{"-sample", "-1"},
		{"-sample", "0"},
		{"-events-per-day", "0"},
		{"-events-per-day", "-5"},
		{"-events-per-day", "NaN"},
		{"-events-per-day", "+Inf"},
		{"-dataset", noUsers},
		{"-dataset", noEvents},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%q accepted", args)
		}
		// Refused before anything was printed.
		if out.Len() > 0 {
			t.Errorf("%q printed %q before refusing", args, out.String())
		}
	}
}
