package policy

import (
	"fmt"
	"math"
)

// Linear maps difficulty = Base + round(Slope × score), clamped to the
// protocol range. With integer paper scores R ∈ {0, …, 10}:
//
//   - Policy 1 is Linear{Base: 1, Slope: 1}: R=0 → 1-difficult, R=1 → 2, …
//   - Policy 2 is Linear{Base: 5, Slope: 1}: R=0 → 5-difficult, R=1 → 6, …
//
// matching §III.A of the paper exactly.
type Linear struct {
	// Base is the difficulty at score 0.
	Base int

	// Slope is the difficulty increase per score point.
	Slope float64

	// label overrides the derived name when set (used by Policy1/Policy2
	// so experiment tables show the paper's names).
	label string
}

var _ Policy = Linear{}

// NewLinear validates and constructs a Linear policy. The base lies in
// [0, puzzle.MaxDifficulty].
func NewLinear(base int, slope float64) (Linear, error) {
	if err := checkBound("linear base", float64(base)); err != nil {
		return Linear{}, err
	}
	if slope < 0 {
		return Linear{}, fmt.Errorf("policy: negative slope %v would reward bad reputations", slope)
	}
	if math.IsNaN(slope) || math.IsInf(slope, 0) {
		return Linear{}, fmt.Errorf("policy: slope must be finite, got %v", slope)
	}
	return Linear{Base: base, Slope: slope}, nil
}

// Policy1 returns the paper's Policy 1: difficulty = score + 1.
func Policy1() Linear { return Linear{Base: 1, Slope: 1, label: "policy1"} }

// Policy2 returns the paper's Policy 2: difficulty = score + 5.
func Policy2() Linear { return Linear{Base: 5, Slope: 1, label: "policy2"} }

// Name implements Policy.
func (l Linear) Name() string {
	if l.label != "" {
		return l.label
	}
	return fmt.Sprintf("linear(base=%d,slope=%g)", l.Base, l.Slope)
}

// Difficulty implements Policy.
func (l Linear) Difficulty(score float64) int {
	return toDifficulty(float64(l.Base) + math.Round(l.Slope*clampScore(score)))
}

// Exponential maps difficulty = Base + round(2^(Factor × score) − 1),
// a sharper deterrent curve than Linear: near-zero extra work for good
// scores, rapidly exploding work for bad ones. It is one of the "policies
// tailored to specific security demands" the paper's summary invites.
type Exponential struct {
	// Base is the difficulty at score 0.
	Base int

	// Factor controls the growth rate; difficulty doubles every 1/Factor
	// score points.
	Factor float64
}

var _ Policy = Exponential{}

// NewExponential validates and constructs an Exponential policy. The base
// lies in [0, puzzle.MaxDifficulty].
func NewExponential(base int, factor float64) (Exponential, error) {
	if err := checkBound("exponential base", float64(base)); err != nil {
		return Exponential{}, err
	}
	if factor < 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return Exponential{}, fmt.Errorf("policy: exponential factor must be finite and non-negative, got %v", factor)
	}
	return Exponential{Base: base, Factor: factor}, nil
}

// Name implements Policy.
func (e Exponential) Name() string {
	return fmt.Sprintf("exponential(base=%d,factor=%g)", e.Base, e.Factor)
}

// Difficulty implements Policy.
func (e Exponential) Difficulty(score float64) int {
	bump := math.Exp2(e.Factor*clampScore(score)) - 1
	return toDifficulty(float64(e.Base) + math.Round(bump))
}
