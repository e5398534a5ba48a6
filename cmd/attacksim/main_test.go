package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aipow/internal/sim"
)

func TestListNamesEverySuiteScenario(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	names := sim.SuiteNames()
	if len(lines) != len(names) {
		t.Fatalf("-list printed %d lines for %d scenarios:\n%s", len(lines), len(names), out.String())
	}
	for i, name := range names {
		if !strings.HasPrefix(lines[i], name+" ") {
			t.Errorf("line %d = %q, want scenario %s", i, lines[i], name)
		}
	}
}

// TestQuickScenarioRun runs one scenario at quick scale the way an
// operator would, report included: it passes its invariants, renders its
// table and writes a report byte-identical to the committed golden file.
func TestQuickScenarioRun(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-quick", "-scenario", "steady-state", "-json", "-out", dir}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"steady-state", "[PASS]", "wrote 1 scenario reports to " + dir, "all scenario invariants passed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "steady-state.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../internal/sim/testdata/golden/steady-state.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("steady-state report differs from its golden file")
	}
}

func TestUnknownScenarioFails(t *testing.T) {
	err := run([]string{"-quick", "-scenario", "no-such-scenario"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("err = %v, want an unknown-scenario error", err)
	}
}
