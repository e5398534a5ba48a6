package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"testing"
)

// TestGoldenQuickSuite is the golden-file gate: the quick suite that
// `attacksim -json -quick` writes must equal the committed
// SIM_scenarios.json byte for byte — through the single-op entry points,
// through the batch ones on one core and on four, and with the clustered
// specs gossiping delta evidence (delta(every=4)) on four cores. Equal to
// the golden implies equal to each other: no wall-time, scheduling or
// gossip-encoding dependence reaches the report.
func TestGoldenQuickSuite(t *testing.T) {
	if raceEnabled {
		t.Skip("full quick suite is too slow under -race")
	}
	if testing.Short() {
		t.Skip("full quick suite in -short mode")
	}
	want, err := os.ReadFile("../../SIM_scenarios.json")
	if err != nil {
		t.Fatal(err)
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
			scenarios := DefaultSuite(4, 0.25)
			for i := range scenarios {
				scenarios[i].Batch = run.batch
				if ps, _ := scenarios[i].PipelineSpec(); run.deltaEvery > 0 && ps.Cluster != nil {
					scenarios[i].Spec = respec(t, scenarios[i].Spec, "cluster", fmt.Sprintf("cluster delta(every=%d)", run.deltaEvery))
				}
			}
			rep, err := RunSuite("quick", 4, scenarios)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Error("quick-suite report differs from SIM_scenarios.json")
			}
		})
	}
}

// TestGeometricAttemptsDistribution checks the modeled solve: at least
// one attempt per puzzle, and a mean of 2^d attempts for a d-difficult one.
func TestGeometricAttemptsDistribution(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, d := range []int{1, 4, 8, 12} {
		const n = 20000
		sum := 0.0
		for i := 0; i < n; i++ {
			a := geometricAttempts(d, rng)
			if a < 1 || a != math.Floor(a) {
				t.Fatalf("d=%d: attempts %v, want a positive integer", d, a)
			}
			sum += a
		}
		want := math.Exp2(float64(d))
		if rel := math.Abs(sum/n-want) / want; rel > 0.05 {
			t.Errorf("d=%d: mean attempts %.1f, want %.0f (rel err %.3f)", d, sum/n, want, rel)
		}
	}
}

// TestReputationPricingBeatsFixedDifficulty is the paper's headline claim
// against the one-difficulty-for-everyone baseline, on one suite scenario
// defended three ways. A fixed difficulty protective enough to price
// attackers (15) makes legitimate users pay at least 3× the latency the
// reputation-driven Policy 2 charges them, and a fixed difficulty cheap
// enough for users (8) extracts less attacker work than Policy 2 does.
func TestReputationPricingBeatsFixedDifficulty(t *testing.T) {
	var base Scenario
	for _, sc := range DefaultSuite(4, 0.25) {
		if sc.Name == "slow-and-low" {
			base = sc
		}
	}
	if base.Name == "" {
		t.Fatal("slow-and-low scenario missing from the suite")
	}
	run := func(pol string) (legitP50, attackerWork float64) {
		t.Helper()
		sc := base
		sc.Spec = respec(t, sc.Spec, "policy", "policy "+pol)
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		leg, _ := res.scope(ClassLegit, "")
		att, _ := res.scope(ClassAttackers, "")
		return quantileOrZero(leg, 0.5), float64(att.solveAttempts)
	}
	adaptiveP50, adaptiveWork := run("policy2")
	fixed15P50, _ := run("fixed(difficulty=15)")
	_, fixed8Work := run("fixed(difficulty=8)")
	if fixed15P50 < 3*adaptiveP50 {
		t.Errorf("legit p50 under fixed(15) = %.1f ms, want ≥ 3× policy2's %.1f ms", fixed15P50, adaptiveP50)
	}
	if adaptiveWork <= fixed8Work {
		t.Errorf("attacker work under policy2 = %.3g, not above fixed(8)'s %.3g", adaptiveWork, fixed8Work)
	}
}
