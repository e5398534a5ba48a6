package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"aipow/bench/workload"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestManifestMatches pins BENCHMARK.json to the tables the benchmark
// computes from: same workloads with their why sentences, same metric
// names, units, directions and bounds.
func TestManifestMatches(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Workloads) != len(workload.Specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(got.Workloads), len(workload.Specs))
	}
	for i, spec := range workload.Specs {
		if got.Workloads[i].Name != spec.Name || got.Workloads[i].Why != spec.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, got.Workloads[i], spec.Name, spec.Why)
		}
	}
	var wantE2E, wantLayer []manifestMetric
	for _, m := range endToEnd {
		if m.Name == failedShare {
			continue // a bound is a share of the median, and this median is 0
		}
		bound := m.Bound
		wantE2E = append(wantE2E, manifestMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		wantLayer = append(wantLayer, manifestMetric{m.Name, m.Unit, m.Better, nil})
	}
	if !reflect.DeepEqual(got.EndToEnd, wantE2E) {
		want, _ := json.Marshal(wantE2E)
		t.Errorf("end_to_end differs; the benchmark's table is\n%s", want)
	}
	if !reflect.DeepEqual(got.PerLayer, wantLayer) {
		want, _ := json.Marshal(wantLayer)
		t.Errorf("per_layer differs; the benchmark's table is\n%s", want)
	}
}

// hotpath reads the ns/op of one BENCH_hotpath.json entry.
func hotpath(t *testing.T, name string) float64 {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCH_hotpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Benchmarks map[string]struct {
			NsPerOp float64 `json:"ns_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(buf, &dump); err != nil {
		t.Fatal(err)
	}
	return dump.Benchmarks[name].NsPerOp
}

// TestSmoke runs all five workloads and the layer run with half-second
// windows: every workload executes and reconciles, nothing fails, the
// results carry exactly the issue's metric names, and three layer numbers
// land near their committed micro-benchmarks — a harness that timed the
// wrong thing would not.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns powserver children")
	}
	const seed = 1
	cfg := defaultConfig(seed, 500*time.Millisecond)
	cfg.setups = 1
	cfg.pool = 4
	cfg.chunks = 48
	// go test runs other packages' tests beside this one; on a small
	// machine they make the pacer late, which is their doing, not the
	// server's.
	cfg.lateLimit = time.Second
	d, err := prepare(seed, true)
	if err != nil {
		t.Fatal(err)
	}
	defer d.cleanup()
	defer stopAllServers()
	cfg.outDir = t.TempDir()

	for _, spec := range workload.Specs {
		res, err := runWorkload(d, cfg, spec.Name)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Attempted == 0 || res.EndToEnd[failedShare] != 0 {
			t.Errorf("%s: %d ops attempted, failed_share %v (%s)", spec.Name, res.Attempted, res.EndToEnd[failedShare], res.FirstErr)
		}
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", spec.Name, c.Name, c.Detail)
			}
		}
		for _, m := range endToEnd {
			if _, ok := res.EndToEnd[m.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s missing", spec.Name, m.Name)
			}
		}
		if len(res.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", spec.Name, len(res.EndToEnd), len(endToEnd))
		}
	}

	// The layer run, completed the way a traced driver run completes it.
	res, err := runWorkload(d, cfg, workload.Flood)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := runLayers(d, cfg, "smoke")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range layers.checks {
		if !c.OK {
			t.Errorf("layer run: check %s failed: %s", c.Name, c.Detail)
		}
	}
	values := layers.metrics
	for k, v := range workloadLayerMetrics(res, layers) {
		values[k] = v
	}
	for _, m := range perLayer {
		if _, ok := values[m.Name]; !ok {
			t.Errorf("per-layer metric %s missing", m.Name)
		}
	}
	if len(values) != len(perLayer) {
		t.Errorf("%d per-layer metrics, want %d", len(values), len(perLayer))
	}
	if _, err := os.Stat(layers.tracePath); err != nil {
		t.Errorf("trace not written: %v", err)
	}

	if raceEnabled {
		return
	}
	// BENCH_hotpath.json's Score is the map path; the serving path — what
	// reputation.score_ns times — is the vector path, which skips the
	// attribute lookups, so it may sit further below.
	for _, c := range []struct {
		metric, bench string
		below         float64
	}{
		{"core.decide_ns", "Decide", 3},
		{"puzzle.issue_ns", "Issue", 3},
		{"reputation.score_ns", "Score", 6},
	} {
		got, ref := values[c.metric], hotpath(t, c.bench)
		if got > 3*ref || got < ref/c.below {
			t.Errorf("%s = %.0f ns, BENCH_hotpath.json %s = %.0f ns: not the same order", c.metric, got, c.bench, ref)
		}
	}
}
