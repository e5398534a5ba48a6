// Command attacksim runs the deterministic adversarial scenario suite
// (internal/sim) against the real framework and reports per-population
// asymmetry outcomes scored against each scenario's declared invariants.
//
//	attacksim                      # run the default suite, human tables
//	attacksim -json -quick         # regenerate internal/sim/testdata/golden
//	attacksim -json -out reports   # one <scenario>.json per scenario in reports/
//	attacksim -scenario slow-and-low -seed 7
//	attacksim -list
//
// The exit status is non-zero when any scenario invariant is violated.
// Reports are deterministic — equal seeds produce byte-identical
// files. `go test ./internal/sim` compares the quick suite against the
// committed internal/sim/testdata/golden, one file per scenario.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
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
		jsonOut  = fs.Bool("json", false, "write one machine-readable report per scenario into -out")
		out      = fs.String("out", "internal/sim/testdata/golden", "report directory for -json (one <scenario>.json each)")
		quick    = fs.Bool("quick", false, "scale populations down for fast runs")
		scenario = fs.String("scenario", "", "run only the named scenario (see -list)")
		list     = fs.Bool("list", false, "list suite scenarios and exit")
		quiet    = fs.Bool("quiet", false, "suppress per-scenario tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale := 1.0
	if *quick {
		scale = 0.25
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

	reps, err := sim.RunSuite(scenarios)
	if err != nil {
		return err
	}

	if !*quiet {
		for _, sr := range reps {
			if err := sr.RenderTable(stdout); err != nil {
				return fmt.Errorf("render: %w", err)
			}
		}
	}
	if *jsonOut {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fmt.Errorf("write reports: %w", err)
		}
		for _, sr := range reps {
			buf, err := sr.Marshal()
			if err != nil {
				return fmt.Errorf("marshal report: %w", err)
			}
			if err := os.WriteFile(filepath.Join(*out, sr.Name+".json"), buf, 0o644); err != nil {
				return fmt.Errorf("write report: %w", err)
			}
		}
		fmt.Fprintf(stdout, "wrote %d scenario reports to %s\n", len(reps), *out)
	}
	var failed []string
	for _, sr := range reps {
		if !sr.Pass {
			failed = append(failed, sr.Name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("invariant violations in: %s", strings.Join(failed, ", "))
	}
	fmt.Fprintln(stdout, "all scenario invariants passed")
	return nil
}
