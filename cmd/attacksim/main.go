// Command attacksim runs the deterministic adversarial scenario suite
// (internal/sim) against the real framework and reports per-population
// asymmetry outcomes scored against each scenario's declared invariants.
//
//	attacksim                      # run the default suite, human tables
//	attacksim -json                # also write SIM_scenarios.json
//	attacksim -json -quick         # scaled-down populations
//	attacksim -scenario slow-and-low -seed 7
//	attacksim -list
//
// The exit status is non-zero when any scenario invariant is violated.
// Reports are deterministic — equal seeds produce byte-identical
// SIM_scenarios.json files. `go test ./internal/sim` compares the quick
// suite against the committed SIM_scenarios.json.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"aipow/internal/sim"
)

func main() {
	log.SetFlags(0)
	// -h has already printed the usage.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("attacksim: %v", err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("attacksim", flag.ContinueOnError)
	var (
		seed     = fs.Uint64("seed", 4, "scenario seed (equal seeds: byte-identical reports)")
		jsonOut  = fs.Bool("json", false, "write the machine-readable report")
		out      = fs.String("out", "SIM_scenarios.json", "report path for -json")
		quick    = fs.Bool("quick", false, "scale populations down for fast runs")
		scenario = fs.String("scenario", "", "run only the named scenario (see -list)")
		list     = fs.Bool("list", false, "list suite scenarios and exit")
		quiet    = fs.Bool("quiet", false, "suppress per-scenario tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale := 1.0
	suiteName := "default"
	if *quick {
		scale = 0.25
		suiteName = "quick"
	}
	scenarios := sim.DefaultSuite(*seed, scale)

	if *list {
		for _, sc := range scenarios {
			fmt.Fprintf(stdout, "%-18s %s\n", sc.Name, sc.Description)
		}
		return nil
	}
	if *scenario != "" {
		var filtered []sim.Scenario
		for _, sc := range scenarios {
			if sc.Name == *scenario {
				filtered = append(filtered, sc)
			}
		}
		if len(filtered) == 0 {
			return fmt.Errorf("unknown scenario %q (known: %s)",
				*scenario, strings.Join(sim.SuiteNames(), ", "))
		}
		scenarios = filtered
	}

	rep, err := sim.RunSuite(suiteName, *seed, scenarios)
	if err != nil {
		return err
	}

	if !*quiet {
		for _, sr := range rep.Scenarios {
			if err := sr.RenderTable(stdout); err != nil {
				return fmt.Errorf("render: %w", err)
			}
		}
	}
	if *jsonOut {
		buf, err := rep.Marshal()
		if err != nil {
			return fmt.Errorf("marshal report: %w", err)
		}
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d scenarios)\n", *out, len(rep.Scenarios))
	}
	if !rep.Pass {
		var failed []string
		for _, sr := range rep.Scenarios {
			if !sr.Pass {
				failed = append(failed, sr.Name)
			}
		}
		return fmt.Errorf("invariant violations in: %s", strings.Join(failed, ", "))
	}
	fmt.Fprintln(stdout, "all scenario invariants passed")
	return nil
}
