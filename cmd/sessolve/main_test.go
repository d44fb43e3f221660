package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ses/internal/dataset"
	"ses/internal/ebsn"
)

func writeInstance(t *testing.T) string {
	t.Helper()
	ds, err := ebsn.Generate(ebsn.Config{
		Seed: 2, NumUsers: 300, NumEvents: 400, NumTags: 800, NumGroups: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := dataset.BuildInstance(ds, dataset.PaperParams{
		K: 6, Intervals: 5, CandidateEvents: 12, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "inst.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.SaveInstance(f, inst); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSolvesInstance(t *testing.T) {
	path := writeInstance(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-instance", path, "-algo", "grd", "-show", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"grd scheduled 6/6", "expected attendance", "interval", "more assignments"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	path := writeInstance(t)
	for _, algo := range []string{"grdlazy", "top", "rand", "localsearch"} {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-instance", path, "-algo", algo, "-k", "4"}, &out); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
}

func TestRunWorkersFlagIdenticalOutput(t *testing.T) {
	// -workers must not change anything the user sees.
	path := writeInstance(t)
	var serial, parallel bytes.Buffer
	if err := run(context.Background(), []string{"-instance", path, "-algo", "grd", "-workers", "1"}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-instance", path, "-algo", "grd", "-workers", "8"}, &parallel); err != nil {
		t.Fatal(err)
	}
	// The elapsed-time figure is wall clock; blank that line's timing
	// before comparing.
	normalize := func(s string) string {
		lines := strings.Split(s, "\n")
		for i, l := range lines {
			if idx := strings.Index(l, " events in "); idx >= 0 {
				if semi := strings.Index(l, ";"); semi > idx {
					lines[i] = l[:idx] + l[semi:]
				}
			}
		}
		return strings.Join(lines, "\n")
	}
	if normalize(serial.String()) != normalize(parallel.String()) {
		t.Errorf("output differs between -workers 1 and 8:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), nil, &bytes.Buffer{}); err == nil {
		t.Error("missing -instance accepted")
	}
	if err := run(context.Background(), []string{"-instance", "/nonexistent.json"}, &bytes.Buffer{}); err == nil {
		t.Error("nonexistent file accepted")
	}
	path := writeInstance(t)
	// The retired solvers must stay unknown: re-registering one is a
	// change to this list.
	for _, algo := range []string{"martian", "beam", "online", "spread", "anneal"} {
		err := run(context.Background(), []string{"-instance", path, "-algo", algo}, &bytes.Buffer{})
		if want := fmt.Sprintf("solver: unknown solver %q", algo); err == nil || err.Error() != want {
			t.Errorf("-algo %s: got %v, want %q", algo, err, want)
		}
	}
}
