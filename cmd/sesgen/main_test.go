package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ses/internal/dataset"
)

func TestRunGeneratesDatasetAndInstance(t *testing.T) {
	dir := t.TempDir()
	dsPath := filepath.Join(dir, "ds.json")
	instPath := filepath.Join(dir, "inst.json")
	var out bytes.Buffer
	err := run([]string{
		"-out", dsPath, "-instance", instPath,
		"-users", "300", "-events", "400", "-tags", "800", "-groups", "20",
		"-k", "5", "-seed", "3",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote dataset") || !strings.Contains(out.String(), "wrote instance") {
		t.Fatalf("output: %s", out.String())
	}
	// Both files must load back.
	f, err := os.Open(dsPath)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.LoadDataset(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.UserTags) != 300 {
		t.Errorf("round-tripped dataset has %d users", len(ds.UserTags))
	}
	f, err = os.Open(instPath)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := dataset.LoadInstance(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumEvents() != 10 { // 2k with k=5
		t.Errorf("instance has %d candidate events, want 10", inst.NumEvents())
	}
}

func TestRunLoadsExistingDataset(t *testing.T) {
	dir := t.TempDir()
	dsPath := filepath.Join(dir, "ds.json")
	var out bytes.Buffer
	if err := run([]string{"-out", dsPath, "-users", "200", "-events", "300"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	instPath := filepath.Join(dir, "inst.json")
	if err := run([]string{"-dataset", dsPath, "-instance", instPath, "-k", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "loaded dataset: 200 users") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestRunNothingToDo(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no flags should be an error")
	}
	if out.Len() > 0 {
		t.Fatalf("printed %q before refusing: nothing should have been generated", out.String())
	}
}

// TestRunReportsWhatItBuilt checks that zero dimensions, which take
// ebsn's and the paper's defaults, are reported as those defaults.
func TestRunReportsWhatItBuilt(t *testing.T) {
	dir := t.TempDir()
	dsPath := filepath.Join(dir, "ds.json")
	var out bytes.Buffer
	if err := run([]string{"-out", dsPath, "-users", "200", "-events", "300", "-tags", "0", "-groups", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	if want := "generated dataset: 200 users, 300 events, 5000 tags, 1200 groups"; !strings.Contains(out.String(), want) {
		t.Fatalf("output %q lacks %q", out.String(), want)
	}
	out.Reset()
	instPath := filepath.Join(dir, "inst.json")
	if err := run([]string{"-dataset", dsPath, "-instance", instPath, "-k", "0", "-T", "6", "-E", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	if want := "(k=100, |T|=6, |E|=8,"; !strings.Contains(out.String(), want) {
		t.Fatalf("output %q lacks %q", out.String(), want)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
