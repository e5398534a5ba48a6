package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// goldenDir holds one committed quick-suite report per scenario,
// regenerated by `go run ./cmd/attacksim -json -quick`.
const goldenDir = "testdata/golden"

// TestGoldenQuickSuite is the golden-file gate: every quick-suite scenario
// report must equal its committed testdata/golden/<scenario>.json byte for
// byte — through the single-op entry points, through the batch ones on
// one core and on four, and with the clustered specs gossiping delta
// evidence (delta(every=4)) on four cores. Equal to the golden implies
// equal to each other: no wall-time, scheduling or gossip-encoding
// dependence reaches the report. A mismatch prints every differing metric
// as "path: golden → got". The golden set itself must be complete: one
// file per scenario and no file without a scenario.
func TestGoldenQuickSuite(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte, len(files))
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		want[strings.TrimSuffix(filepath.Base(f), ".json")] = buf
	}
	names := SuiteNames()
	for _, name := range names {
		if _, ok := want[name]; !ok {
			t.Errorf("scenario %s has no golden file %s/%s.json", name, goldenDir, name)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("golden file %s/%s.json names no suite scenario", goldenDir, name)
	}
	if t.Failed() {
		t.FailNow()
	}

	if raceEnabled {
		t.Skip("full quick suite is too slow under -race")
	}
	if testing.Short() {
		t.Skip("full quick suite in -short mode")
	}
	for _, run := range []struct {
		name       string
		procs      int
		batch      bool
		deltaEvery int
	}{
		{"single", 0, false, 0},
		{"batch", 0, true, 0},
		{"batch-4cpu", 4, true, 0},
		{"delta-4cpu", 4, false, 4},
	} {
		t.Run(run.name, func(t *testing.T) {
			if run.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(run.procs))
			}
			for _, sc := range DefaultSuite(4, 0.25) {
				sc.Batch = run.batch
				if ps, _ := sc.PipelineSpec(); run.deltaEvery > 0 && ps.Cluster != nil {
					sc.Spec = respec(t, sc.Spec, "cluster", fmt.Sprintf("cluster delta(every=%d)", run.deltaEvery))
				}
				t.Run(sc.Name, func(t *testing.T) {
					res, err := Run(sc)
					if err != nil {
						t.Fatal(err)
					}
					got, err := res.Report().Marshal()
					if err != nil {
						t.Fatal(err)
					}
					golden := filepath.Join(goldenDir, sc.Name+".json")
					want, err := os.ReadFile(golden)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("report differs from %s:\n%s", golden, metricDiff(want, got))
					}
				})
			}
		})
	}
}

// metricLeaf is one scalar of a flattened JSON report.
type metricLeaf struct{ path, value string }

// flattenReport lists doc's scalar leaves in document order as
// slash-joined paths. Array elements are keyed by their "name" field
// where they have one (a repeated name gains "#2", "#3", …), and by index
// otherwise, so a population or phase keeps its path when others move.
func flattenReport(doc []byte, path string, out *[]metricLeaf) error {
	dec := json.NewDecoder(bytes.NewReader(doc))
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	join := func(key string) string {
		if path == "" {
			return key
		}
		return path + "/" + key
	}
	switch tok {
	case json.Delim('{'):
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				return err
			}
			var v json.RawMessage
			if err := dec.Decode(&v); err != nil {
				return err
			}
			if err := flattenReport(v, join(key.(string)), out); err != nil {
				return err
			}
		}
	case json.Delim('['):
		seen := make(map[string]int)
		for i := 0; dec.More(); i++ {
			var v json.RawMessage
			if err := dec.Decode(&v); err != nil {
				return err
			}
			key := strconv.Itoa(i)
			var named struct {
				Name string `json:"name"`
			}
			if json.Unmarshal(v, &named) == nil && named.Name != "" {
				seen[named.Name]++
				key = named.Name
				if n := seen[key]; n > 1 {
					key += "#" + strconv.Itoa(n)
				}
			}
			if err := flattenReport(v, join(key), out); err != nil {
				return err
			}
		}
	default:
		*out = append(*out, metricLeaf{path, string(bytes.TrimSpace(doc))})
	}
	return nil
}

// metricDiff renders every leaf that differs between two reports as
// "path: old → new", in the golden's document order (leaves only the new
// report has come last), so a report's declaration echo comes before
// the outcomes it drives.
func metricDiff(golden, got []byte) string {
	var before, after []metricLeaf
	if err := flattenReport(golden, "", &before); err != nil {
		return fmt.Sprintf("  golden is not JSON: %v", err)
	}
	if err := flattenReport(got, "", &after); err != nil {
		return fmt.Sprintf("  report is not JSON: %v", err)
	}
	newVal := make(map[string]string, len(after))
	for _, l := range after {
		newVal[l.path] = l.value
	}
	var b strings.Builder
	line := func(path, from, to string) { fmt.Fprintf(&b, "  %s: %s → %s\n", path, from, to) }
	for _, l := range before {
		to, ok := newVal[l.path]
		delete(newVal, l.path)
		switch {
		case !ok:
			line(l.path, l.value, "(absent)")
		case to != l.value:
			line(l.path, l.value, to)
		}
	}
	for _, l := range after {
		if _, only := newVal[l.path]; only {
			line(l.path, "(absent)", l.value)
		}
	}
	if b.Len() == 0 {
		return "  (same metrics; the bytes differ only in layout)"
	}
	return b.String()
}
