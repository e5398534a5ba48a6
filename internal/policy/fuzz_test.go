package policy

import (
	"math"
	"testing"
	"testing/quick"

	"aipow/internal/puzzle"
)

// The DSL parser must never panic, whatever bytes arrive: it either
// returns a policy or an error.
func TestParseRulesNeverPanicsProperty(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		p, err := ParseRules(src)
		if err == nil && p == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Near-miss programs: structurally plausible inputs that must be rejected
// with errors, not misparsed.
func TestParseRulesNearMisses(t *testing.T) {
	nearMisses := []string{
		"when score >= 5 use 8 extra\ndefault 1",
		"when score >= 5\ndefault 1",
		"when >= 5 use 8\ndefault 1",
		"default 1 2",
		"name a b\ndefault 1",
		"WHEN score >= 5 use 8\ndefault 1", // statements are case-sensitive
	}
	for _, src := range nearMisses {
		if _, err := ParseRules(src); err == nil {
			t.Errorf("near-miss accepted: %q", src)
		}
	}
}

// Spec parser robustness: random spec strings must not panic Parse.
func TestRegistryNewNeverPanicsProperty(t *testing.T) {
	f := func(spec string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Parse(spec)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// A parsed policy3 must stay within its documented interval for in-range
// scores (spot-check of spec plumbing end to end).
func TestRegistryPolicy3IntervalPlumbing(t *testing.T) {
	p, err := Parse("policy3(epsilon=0.5,seed=9)")
	if err != nil {
		t.Fatal(err)
	}
	// dᵢ=8, ceil(-0.5)=0 → lo=8; ceil(0.5)=1 → hi=9
	if lo, hi := drawRange(p, 7); lo != 8 || hi != 9 {
		t.Fatalf("draws at 7 span [%d, %d], want [8, 9]", lo, hi)
	}
}

// scoreGrid is every score FuzzParsePolicy prices, in ascending order;
// NaN is last because it prices like MaxScore.
var scoreGrid = []float64{math.Inf(-1), -1, 0, 0.5, 1, 2, 3, 4.5, 5, 6, 7, 8, 9, 9.99, 10, 11, math.Inf(1), math.NaN()}

// FuzzParsePolicy feeds Parse arbitrary specs. It must never panic; a
// policy it accepts must price every score in the protocol range without
// panicking, and the deterministic curves must be non-decreasing in score.
// The seeds are every policy spec in SPEC.md, cmd/powserver/testdata and
// the sim suite, plus the parameters that once overflowed or panicked.
//
//	go test -run='^$' -fuzz='^FuzzParsePolicy$' -fuzztime=20s ./internal/policy
func FuzzParsePolicy(f *testing.F) {
	for _, spec := range []string{
		// SPEC.md
		"policy1", "policy2", "policy3(epsilon=2.5)", "fixed(difficulty=16)",
		"shape(inner=policy2)", "shape(inner=policy2, anchor=5, floor=0.5)",
		"shape(inner=linear(base=2, slope=1.2), floor=0.25)",
		// cmd/powserver/testdata
		"fixed(difficulty=3)", "fixed(difficulty=4)", "fixed(difficulty=5)", "fixed(difficulty=14)",
		// internal/sim's suite
		"fixed(difficulty=15)", "fixed(difficulty=17)",
		// parameters that once overflowed, truncated or panicked
		"linear(base=1e19)", "exponential(base=1e19)", "linear(base=1,slope=1e18)",
		"fixed(difficulty=8.9)", "linear(base=2.9)", "policy3(epsilon=5e18)", "policy3(epsilon=1e300)",
		"exponential(base=1,factor=1e300)", "policy3(epsilon=64,seed=7)",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		name, _, _ := ParseSpecParams(spec)
		monotone := name != "policy3" && name != "shape"
		prev := 0
		for _, s := range scoreGrid {
			d := p.Difficulty(s)
			if d < puzzle.MinDifficulty || d > puzzle.MaxDifficulty {
				t.Fatalf("%s: Difficulty(%v) = %d outside the protocol range", p.Name(), s, d)
			}
			if c := Confident(p, s, 0); c < puzzle.MinDifficulty || c > puzzle.MaxDifficulty {
				t.Fatalf("%s: Confident(%v, 0) = %d outside the protocol range", p.Name(), s, c)
			}
			if monotone && d < prev {
				t.Fatalf("%s: Difficulty(%v) = %d below %d at a lower score", p.Name(), s, d, prev)
			}
			prev = d
		}
	})
}
