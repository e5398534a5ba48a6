package policy

import (
	"math"
	"testing"
	"testing/quick"

	"aipow/internal/puzzle"
)

func TestClampScore(t *testing.T) {
	tests := []struct {
		name string
		in   float64
		want float64
	}{
		{"below", -3, MinScore},
		{"above", 42, MaxScore},
		{"nan_is_suspicious", math.NaN(), MaxScore},
		{"inside", 7.2, 7.2},
		{"min_edge", 0, 0},
		{"max_edge", 10, 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := clampScore(tt.in); got != tt.want {
				t.Errorf("clampScore(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestFixedPolicy(t *testing.T) {
	if _, err := NewFixed(0); err == nil {
		t.Error("difficulty 0 accepted")
	}
	if _, err := NewFixed(65); err == nil {
		t.Error("difficulty 65 accepted")
	}
	f, err := NewFixed(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, score := range []float64{0, 5, 10, -1, math.NaN()} {
		if got := f.Difficulty(score); got != 8 {
			t.Errorf("Difficulty(%v) = %d, want 8", score, got)
		}
	}
	if f.Name() != "fixed(8)" {
		t.Errorf("Name() = %q", f.Name())
	}
}

func TestClampPolicy(t *testing.T) {
	if _, err := NewClamp(nil, 1, 5); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewClamp(Policy2(), 5, 1); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := NewClamp(Policy2(), 0, 5); err == nil {
		t.Error("out-of-protocol bounds accepted")
	}
	c, err := NewClamp(Policy2(), 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Difficulty(0); got != 6 { // policy2 says 5, clamps to 6
		t.Errorf("Difficulty(0) = %d, want 6", got)
	}
	if got := c.Difficulty(10); got != 9 { // policy2 says 15, clamps to 9
		t.Errorf("Difficulty(10) = %d, want 9", got)
	}
	if got := c.Difficulty(2); got != 7 { // policy2 says 7, inside bounds
		t.Errorf("Difficulty(2) = %d, want 7", got)
	}
}

// Property: every built-in policy returns protocol-legal difficulties for
// arbitrary (even absurd) scores.
func TestAllPoliciesStayInProtocolRangeProperty(t *testing.T) {
	p3, err := Policy3(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := NewExponential(1, 2) // deliberately aggressive factor
	if err != nil {
		t.Fatal(err)
	}
	tiers, err := ParseRules("when score >= 5 use 60\ndefault 2")
	if err != nil {
		t.Fatal(err)
	}
	policies := []Policy{Policy1(), Policy2(), p3, Fixed{D: 8}, exp, tiers}
	f := func(score float64) bool {
		for _, p := range policies {
			d := p.Difficulty(score)
			if d < puzzle.MinDifficulty || d > puzzle.MaxDifficulty {
				t.Logf("policy %s gave difficulty %d for score %v", p.Name(), d, score)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
