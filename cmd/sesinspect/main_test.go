package main

import (
	"bytes"
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
	for _, args := range [][]string{
		{"-bogus"},
		{"-dataset", "/nope.json"},
		{"-sample", "-1"},
		{"-sample", "0"},
		{"-events-per-day", "0"},
		{"-events-per-day", "-5"},
		{"-events-per-day", "NaN"},
		{"-events-per-day", "+Inf"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%q accepted", args)
		}
		// Refused before a dataset was loaded or generated.
		if out.Len() > 0 {
			t.Errorf("%q printed %q before refusing", args, out.String())
		}
	}
}
