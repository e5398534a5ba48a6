// Command bench is the repository's serving benchmark: five named
// workloads against the real front door (a powserver child over loopback
// HTTP, or the middleware in-process), seven end-to-end metrics measured
// from outside the program with tracing off, and a separate traced layer
// run whose per-layer numbers say where an end-to-end change came from.
//
//	go run ./bench -seed 1                         all workloads, then the layer run
//	go run ./bench -seed 1 -repeat 3 -out a.json   medians and quartiles over 3 rounds
//	go run ./bench -compare a.json b.json          ok / regressed / unresolved per metric
//	go run ./bench -workload flood -seed 7 -seconds 15 -trace 0
//
// The last form is the one BENCHMARK.json's driver uses: one workload, one
// JSON result as the last line of standard output. README.md has the
// metric definitions and what each layer metric is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"aipow/bench/workload"
)

func main() {
	seed := flag.Uint64("seed", 1, "workload seed: every input is a function of it")
	seconds := flag.Int("seconds", 15, "measured window per workload, seconds")
	name := flag.String("workload", "", "run one workload and print one JSON result line (default: all five, then the layer run)")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics (tracing off), 1 the per-layer metrics (traced layer run)")
	repeat := flag.Int("repeat", 1, "rounds of the five workloads; metrics are reported as median and quartiles")
	out := flag.String("out", "", "results file (default bench/out/results.json)")
	compare := flag.String("compare", "", "compare this results file (the base) with the one named as argument")
	flag.Parse()

	// Whatever ends the run — a signal, a failed check, a fatal error —
	// every child is reaped before the process exits.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllServers()
		os.Exit(130)
	}()

	err := func() error {
		switch {
		case *compare != "":
			if flag.NArg() != 1 {
				return fmt.Errorf("usage: bench -compare base.json new.json")
			}
			return runCompare(*compare, flag.Arg(0))
		case *seconds < 1 || *repeat < 1:
			return fmt.Errorf("bench: -seconds and -repeat must be positive")
		case *name != "":
			return runOne(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		default:
			return runAll(*seed, time.Duration(*seconds)*time.Second, *repeat, *out)
		}
	}()
	stopAllServers()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// prepare builds the seeded deployment (and the child's binary and files
// unless only the in-process deployment is needed).
func prepare(seed uint64, child bool) (*deployment, error) {
	d, err := newDeployment(seed)
	if err != nil {
		return nil, err
	}
	if child {
		if err := d.buildServer(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// runOne is the driver's entry: one workload, one result line.
func runOne(name string, seed uint64, window time.Duration, traced bool) error {
	known := false
	for _, s := range workload.Specs {
		known = known || s.Name == name
	}
	if !known {
		return fmt.Errorf("bench: unknown workload %q", name)
	}
	cfg := defaultConfig(seed, window)
	d, err := prepare(seed, name != workload.Embedded)
	if err != nil {
		return err
	}
	defer d.cleanup()
	cfg.outDir = filepath.Join(d.root, "bench", "out")
	describe(cfg)

	var metrics map[string]metricValue
	var res *workloadResult
	if !traced {
		if res, err = runWorkload(d, cfg, name); err != nil {
			return err
		}
		printWorkload(res)
		metrics = make(map[string]metricValue)
		for _, m := range endToEnd {
			if m.Name != failedShare { // carried by "attempted" and "failed" below
				metrics[m.Name] = metricValue{res.EndToEnd[m.Name], m.Unit}
			}
		}
	} else {
		// The layer run is the expensive half of a traced run: give the
		// workload a third of the time and one set-up.
		cfg.window, cfg.warmup, cfg.setups = window/3, cfg.warmup/3, 1
		if res, err = runWorkload(d, cfg, name); err != nil {
			return err
		}
		printWorkload(res)
		layers, err := runLayers(d, cfg, name)
		if err != nil {
			return err
		}
		metrics = withUnits(layers.metrics)
		for k, v := range withUnits(workloadLayerMetrics(res, layers)) {
			metrics[k] = v
		}
		printLayers(metrics, layers)
		res.Checks = append(res.Checks, layers.checks...)
	}
	printChecks(res.Checks)
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct(),
		"attempted": max(res.Attempted, 1),
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.correct() {
		return fmt.Errorf("bench: %s failed its checks: %s", name, res.FirstErr)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// describe prints what the numbers below were measured on.
func describe(cfg config) {
	fmt.Printf("seed %d · %d generator connections/goroutines (nproc) · window %v after %v warm-up\n",
		cfg.seed, cfg.nproc, cfg.window, cfg.warmup)
	fmt.Println("traffic crosses the host loopback only; generator and server share this machine's cores")
}

func printWorkload(r *workloadResult) {
	fmt.Printf("\n%s: %d ops attempted, %d failed\n", r.Name, r.Attempted, r.Failed)
	for _, m := range endToEnd {
		fmt.Printf("  %-24s %14.4f %s\n", m.Name, r.EndToEnd[m.Name], m.Unit)
	}
	if r.FirstErr != "" {
		fmt.Printf("  first error: %s\n", r.FirstErr)
	}
}

func printChecks(checks []check) {
	for _, c := range checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("  check %s %-22s %s\n", verdict, c.Name, c.Detail)
	}
}

// printLayers prints the layer run's metrics and its budget.
func printLayers(metrics map[string]metricValue, layers *layerResult) {
	fmt.Println("\nper-layer metrics (traced layer run; spans in " + layers.tracePath + ")")
	printMetricValues(metrics, "  ")
	fmt.Println(layers.budget)
}
