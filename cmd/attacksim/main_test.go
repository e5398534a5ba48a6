package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
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
// table and writes the same scenario report the committed quick-suite
// golden holds.
func TestQuickScenarioRun(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	var out strings.Builder
	if err := run([]string{"-quick", "-scenario", "steady-state", "-json", "-out", report}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"steady-state", "[PASS]", "wrote " + report + " (1 scenarios)", "all scenario invariants passed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	buf, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep sim.SuiteReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || len(rep.Scenarios) != 1 || rep.Scenarios[0].Name != "steady-state" {
		t.Fatalf("report = pass %v with %d scenarios, want one passing steady-state", rep.Pass, len(rep.Scenarios))
	}
	buf, err = os.ReadFile("../../SIM_scenarios.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden sim.SuiteReport
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(golden.Scenarios[0], rep.Scenarios[0]) {
		t.Fatal("steady-state report differs from SIM_scenarios.json")
	}
}

func TestUnknownScenarioFails(t *testing.T) {
	err := run([]string{"-quick", "-scenario", "no-such-scenario"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("err = %v, want an unknown-scenario error", err)
	}
}
