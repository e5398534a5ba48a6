package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"aipow/bench/workload"
)

// results is the file a full run writes and -compare reads.
type results struct {
	Seed      uint64 `json:"seed"`
	Seconds   int    `json:"seconds"`
	Repeat    int    `json:"repeat"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Network   string `json:"network"`

	Workloads []workloadSummary `json:"workloads"`

	// PerLayer is the traced layer run; the workloads' own layer metrics
	// (loadgen.*, nethttp.*, counters) sit with each workload.
	PerLayer map[string]metricValue `json:"per_layer"`
	Checks   []check                `json:"checks"`
}

type workloadSummary struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	EndToEnd  map[string]summary     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Checks    []check                `json:"checks"`
}

// summary is one end-to-end metric over the run's rounds.
type summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// quartiles returns the first and third quartile of vals by the rule of
// Python's statistics.quantiles(vals, n=4) — the one BENCHMARK.json's
// driver applies — and the median for fewer than two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// runAll runs the five workloads with tracing off, repeat rounds of them,
// then the traced layer run, prints every metric and writes the results.
func runAll(seed uint64, window time.Duration, repeat int, out string) error {
	cfg := defaultConfig(seed, window)
	d, err := prepare(seed, true)
	if err != nil {
		return err
	}
	defer d.cleanup()
	cfg.outDir = filepath.Join(d.root, "bench", "out")
	if out == "" {
		out = filepath.Join(cfg.outDir, "results.json")
	}
	describe(cfg)

	res := results{
		Seed: seed, Seconds: int(window.Seconds()), Repeat: repeat, NProc: cfg.nproc,
		GoVersion: runtime.Version(), Network: "host loopback",
	}
	values := make(map[string]map[string][]float64) // workload → metric → one value per round
	last := make(map[string]*workloadResult)
	correct := true
	for round := 1; round <= repeat; round++ {
		for _, spec := range workload.Specs {
			if repeat > 1 {
				fmt.Printf("\n[round %d of %d]", round, repeat)
			}
			r, err := runWorkload(d, cfg, spec.Name)
			if err != nil {
				return err
			}
			printWorkload(r)
			printChecks(r.Checks)
			correct = correct && r.correct()
			if values[spec.Name] == nil {
				values[spec.Name] = make(map[string][]float64)
			}
			for k, v := range r.EndToEnd {
				values[spec.Name][k] = append(values[spec.Name][k], v)
			}
			if prev := last[spec.Name]; prev != nil {
				r.Attempted += prev.Attempted
				r.Failed += prev.Failed
			}
			last[spec.Name] = r
		}
	}

	layers, err := runLayers(d, cfg, "layers")
	if err != nil {
		return err
	}
	res.PerLayer = withUnits(layers.metrics)
	res.Checks = layers.checks
	for _, c := range layers.checks {
		correct = correct && c.OK
	}

	for _, spec := range workload.Specs {
		r := last[spec.Name]
		ws := workloadSummary{
			Name: spec.Name, Why: spec.Why, Attempted: r.Attempted, Failed: r.Failed, Checks: r.Checks,
			EndToEnd: make(map[string]summary), PerLayer: withUnits(workloadLayerMetrics(r, layers)),
		}
		for _, m := range endToEnd {
			vals := values[spec.Name][m.Name]
			s := summary{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Median: median(vals), Values: vals}
			s.Q1, s.Q3 = quartiles(vals)
			ws.EndToEnd[m.Name] = s
		}
		res.Workloads = append(res.Workloads, ws)
	}
	printSummary(&res)
	printLayers(res.PerLayer, layers)
	printChecks(layers.checks)

	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("\nresults written to", out)
	if !correct {
		return fmt.Errorf("bench: a correctness or reconciliation check failed (see FAIL above)")
	}
	return nil
}

func printSummary(res *results) {
	fmt.Printf("\nend-to-end metrics, tracing off: median [q1, q3] over %d round(s)\n", res.Repeat)
	for _, ws := range res.Workloads {
		fmt.Printf("%s — %d ops attempted, %d failed\n", ws.Name, ws.Attempted, ws.Failed)
		for _, m := range endToEnd {
			s := ws.EndToEnd[m.Name]
			fmt.Printf("  %-24s %14.4f [%.4f, %.4f] %s\n", m.Name, s.Median, s.Q1, s.Q3, s.Unit)
		}
		fmt.Println("  layer metrics of this workload's run:")
		printMetricValues(ws.PerLayer, "    ")
	}
}

// withUnits attaches each per-layer metric's unit to its value.
func withUnits(vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(vals))
	for k, v := range vals {
		out[k] = metricValue{v, unitOf(k)}
	}
	return out
}

func printMetricValues(vals map[string]metricValue, indent string) {
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s%-36s %14.4f %s\n", indent, k, vals[k].Value, vals[k].Unit)
	}
}

// Verdicts of one -compare row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares one metric's medians: regressed when the new one is worse
// than the base's by more than the bound, as a share of the base's. A
// metric whose run-to-run spread exceeds its bound cannot resolve a change
// of the bound's size, and is reported as unresolved rather than as
// unchanged.
func judge(base, next summary) (verdict string, spread float64) {
	spread = math.Max(base.spread(), next.spread())
	if base.Bound == 0 { // failed_share: any increase regresses
		if next.Median > base.Median {
			return verdictRegressed, spread
		}
		return verdictOK, spread
	}
	worse := 0.0
	if base.Median != 0 {
		worse = (next.Median - base.Median) / math.Abs(base.Median)
	}
	if base.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread > base.Bound:
		return verdictUnresolved, spread
	case worse > base.Bound:
		return verdictRegressed, spread
	}
	return verdictOK, spread
}

// runCompare prints one row per workload × end-to-end metric and fails
// when any row regressed.
func runCompare(basePath, nextPath string) error {
	load := func(path string) (*results, error) {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r results
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	next, err := load(nextPath)
	if err != nil {
		return err
	}
	fmt.Printf("base %s (seed %d, %d round(s)) vs %s (seed %d, %d round(s)); ratios are new ÷ base\n",
		basePath, base.Seed, base.Repeat, nextPath, next.Seed, next.Repeat)
	fmt.Printf("%-9s %-22s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "spread", "verdict")
	regressed := 0
	for _, bw := range base.Workloads {
		var nw *workloadSummary
		for i := range next.Workloads {
			if next.Workloads[i].Name == bw.Name {
				nw = &next.Workloads[i]
			}
		}
		if nw == nil {
			return fmt.Errorf("bench: %s has no workload %q", nextPath, bw.Name)
		}
		for _, m := range endToEnd {
			b, n := bw.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			verdict, spread := judge(b, n)
			ratio := math.NaN()
			if b.Median != 0 {
				ratio = n.Median / b.Median
			}
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Printf("%-9s %-22s %14.4f %14.4f %8.4f %7.2f %7.4f  %s\n",
				bw.Name, m.Name, b.Median, n.Median, ratio, b.Bound, spread, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("bench: %d metric(s) regressed", regressed)
	}
	return nil
}
