// Command attacksim runs the deterministic adversarial scenario suite
// (internal/sim) against the real framework and reports per-population
// asymmetry outcomes scored against each scenario's declared invariants.
//
//	attacksim                      # run the default suite, human tables
//	attacksim -json                # also write SIM_scenarios.json
//	attacksim -json -quick         # CI mode: scaled-down populations
//	attacksim -scenario slow-and-low -seed 7
//	attacksim -list
//
// The exit status is the CI gate: non-zero when any scenario invariant is
// violated. Reports are deterministic — equal seeds produce byte-identical
// SIM_scenarios.json files.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"aipow/internal/sim"
)

func main() {
	log.SetFlags(0)
	var (
		seed     = flag.Uint64("seed", 4, "scenario seed (equal seeds: byte-identical reports)")
		jsonOut  = flag.Bool("json", false, "write the machine-readable report")
		out      = flag.String("out", "SIM_scenarios.json", "report path for -json")
		quick    = flag.Bool("quick", false, "scale populations down for fast CI runs")
		scenario = flag.String("scenario", "", "run only the named scenario (see -list)")
		list     = flag.Bool("list", false, "list suite scenarios and exit")
		quiet    = flag.Bool("quiet", false, "suppress per-scenario tables")
		batch    = flag.Bool("batch", false, "drive arrivals through the batch entry points (byte-identical output)")
		delta    = flag.Int("delta", 0, "delta evidence gossip: full anti-entropy frame every K exchanges on clustered scenarios (byte-identical output)")
	)
	flag.Parse()

	scale := 1.0
	suiteName := "default"
	if *quick {
		scale = 0.25
		suiteName = "quick"
	}
	scenarios := sim.DefaultSuite(*seed, scale)
	if *batch {
		for i := range scenarios {
			scenarios[i].Batch = true
		}
	}
	if *delta > 0 {
		for i := range scenarios {
			if scenarios[i].Cluster != nil {
				scenarios[i].Cluster.DeltaEvery = *delta
			}
		}
	}

	if *list {
		for _, sc := range scenarios {
			fmt.Printf("%-18s %s\n", sc.Name, sc.Description)
		}
		return
	}
	if *scenario != "" {
		var filtered []sim.Scenario
		for _, sc := range scenarios {
			if sc.Name == *scenario {
				filtered = append(filtered, sc)
			}
		}
		if len(filtered) == 0 {
			log.Fatalf("attacksim: unknown scenario %q (known: %s)",
				*scenario, strings.Join(sim.SuiteNames(), ", "))
		}
		scenarios = filtered
	}

	rep, err := sim.RunSuite(suiteName, *seed, scenarios)
	if err != nil {
		log.Fatalf("attacksim: %v", err)
	}

	if !*quiet {
		for _, sr := range rep.Scenarios {
			if err := sr.RenderTable(os.Stdout); err != nil {
				log.Fatalf("attacksim: render: %v", err)
			}
		}
	}
	if *jsonOut {
		buf, err := rep.Marshal()
		if err != nil {
			log.Fatalf("attacksim: marshal report: %v", err)
		}
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			log.Fatalf("attacksim: write report: %v", err)
		}
		fmt.Printf("wrote %s (%d scenarios)\n", *out, len(rep.Scenarios))
	}
	if !rep.Pass {
		var failed []string
		for _, sr := range rep.Scenarios {
			if !sr.Pass {
				failed = append(failed, sr.Name)
			}
		}
		log.Fatalf("attacksim: invariant violations in: %s", strings.Join(failed, ", "))
	}
	fmt.Println("all scenario invariants passed")
}
