package policy

import (
	"math"
	"strings"
	"testing"
)

// The TestRegistry* tests pin the fixed set of names Parse resolves.

func TestRegistryBuiltins(t *testing.T) {
	for spec, name := range map[string]string{
		"policy1":              "policy1",
		"policy2":              "policy2",
		"policy3":              "policy3(eps=2.5)",
		"fixed(difficulty=8)":  "fixed(8)",
		"linear":               "linear(base=1,slope=1)",
		"exponential":          "exponential(base=1,factor=0.4)",
		"shape(inner=policy2)": "shape(policy2,anchor=5,floor=0.5)",
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if p.Name() != name {
			t.Errorf("Parse(%q).Name() = %q, want %q", spec, p.Name(), name)
		}
	}
	_, err := Parse("custom")
	if err == nil || !strings.Contains(err.Error(), "known: exponential, fixed, linear, policy1, policy2, policy3, shape") {
		t.Errorf("unknown name error = %v, want the built-in list", err)
	}
}

func TestRegistryNewSpecs(t *testing.T) {
	tests := []struct {
		spec  string
		score float64
		want  int
	}{
		{"policy1", 4, 5},
		{"policy2", 4, 9},
		{"fixed(difficulty=12)", 9, 12},
		{"linear(base=2,slope=2)", 3, 8},
		{"linear", 3, 4}, // defaults base=1 slope=1
		{"exponential(base=1,factor=0.4)", 10, 16},
	}
	for _, tt := range tests {
		t.Run(tt.spec, func(t *testing.T) {
			p, err := Parse(tt.spec)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.spec, err)
			}
			if got := p.Difficulty(tt.score); got != tt.want {
				t.Errorf("Difficulty(%v) = %d, want %d", tt.score, got, tt.want)
			}
		})
	}
}

func TestRegistryPolicy3Spec(t *testing.T) {
	p, err := Parse("policy3(epsilon=1,seed=42)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*ErrorRange); !ok {
		t.Fatalf("policy3 spec produced %T", p)
	}
	if p.Name() != "policy3(eps=1)" {
		t.Fatalf("Name() = %q, want policy3(eps=1)", p.Name())
	}
}

func TestRegistrySpecErrors(t *testing.T) {
	tests := []string{
		"",
		"unknown",
		"policy1(bogus=1)",
		"fixed",                      // missing required difficulty
		"fixed(difficulty=99)",       // out of range
		"linear(base=1,base=2)",      // duplicate param
		"linear(base)",               // not key=value
		"linear(base=x)",             // bad number
		"linear(base=1",              // unbalanced
		"(base=1)",                   // missing name
		"policy3(epsilon=-2,seed=1)", // invalid epsilon propagates
	}
	for _, spec := range tests {
		t.Run(spec, func(t *testing.T) {
			if _, err := Parse(spec); err == nil {
				t.Fatalf("Parse(%q) accepted", spec)
			}
		})
	}
}

// Parameters that once wrapped an int, truncated silently or panicked
// every draw: integer parameters decode as integers, base and epsilon lie
// in [0, MaxDifficulty], and every curve clamps in float before it
// converts.
func TestPolicyParamsCannotOverflow(t *testing.T) {
	for _, spec := range []string{
		"linear(base=1e19)",
		"exponential(base=1e19)",
		"linear(base=65)",
		"linear(base=-1)",
		"exponential(base=-3)",
		"fixed(difficulty=8.9)",
		"linear(base=2.9)",
		"policy3(seed=1.5)",
		"policy3(seed=-1)",
		"policy3(epsilon=5e18)",
		"policy3(epsilon=1e300)",
		"policy3(epsilon=65)",
	} {
		if p, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted: %s", spec, p.Name())
		}
	}
	if _, err := NewLinear(math.MaxInt, 1); err == nil {
		t.Error("NewLinear(MaxInt, 1) accepted")
	}
	if _, err := NewExponential(math.MaxInt, 0.4); err == nil {
		t.Error("NewExponential(MaxInt, 0.4) accepted")
	}
	if _, err := Policy3(WithEpsilon(5e18)); err == nil {
		t.Error("Policy3(WithEpsilon(5e18)) accepted")
	}

	steep, err := Parse("linear(base=1,slope=1e18)")
	if err != nil {
		t.Fatal(err)
	}
	edge, err := Parse("policy3(epsilon=64,seed=1)")
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		p     Policy
		score float64
		want  int
	}{
		{steep, 0, 1},
		{steep, 5, 64},
		{steep, 10, 64},
		{Linear{Base: math.MaxInt, Slope: 1}, 10, 64},
		{Linear{Base: 1, Slope: math.MaxFloat64}, 10, 64},
		{Exponential{Base: math.MaxInt, Factor: 1}, 0, 64},
		{Exponential{Base: 1, Factor: math.MaxFloat64}, 10, 64},
	}
	for _, tt := range tests {
		if got := tt.p.Difficulty(tt.score); got != tt.want {
			t.Errorf("%s.Difficulty(%v) = %d, want %d", tt.p.Name(), tt.score, got, tt.want)
		}
	}
	for i := 0; i < 200; i++ {
		if d := edge.Difficulty(10); d < 1 || d > 64 {
			t.Fatalf("policy3(epsilon=64) drew %d", d)
		}
	}
}

func TestRegistrySpecWhitespaceTolerant(t *testing.T) {
	p, err := Parse("  linear( base = 2 , slope = 1 )  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Difficulty(1); got != 3 {
		t.Fatalf("Difficulty(1) = %d, want 3", got)
	}
}
