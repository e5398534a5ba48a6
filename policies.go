package aipow

import (
	"aipow/internal/policy"
)

// Policy maps a reputation score in [0, 10] to a puzzle difficulty.
type Policy = policy.Policy

// Policy1 returns the paper's Policy 1: difficulty = score + 1, the gentle
// linear mapping whose latency "does not grow significantly" with score.
func Policy1() Policy { return policy.Policy1() }

// Policy2 returns the paper's Policy 2: difficulty = score + 5, whose
// latency grows to ≈900 ms for the worst reputation scores.
func Policy2() Policy { return policy.Policy2() }

// Policy3 returns the paper's Policy 3: the difficulty is drawn uniformly
// from an ε-wide interval around score+1, compensating for the AI model's
// scoring error.
func Policy3(opts ...ErrorRangeOption) (Policy, error) { return policy.Policy3(opts...) }

// ErrorRangeOption configures Policy3.
type ErrorRangeOption = policy.ErrorRangeOption

// WithEpsilon sets Policy3's scoring-error allowance (default 2.5), in
// [0, 64].
func WithEpsilon(eps float64) ErrorRangeOption { return policy.WithEpsilon(eps) }

// WithPolicySeed makes Policy3's draws deterministic.
func WithPolicySeed(seed uint64) ErrorRangeOption { return policy.WithSeed(seed) }

// NewFixedPolicy returns the classic non-adaptive policy: one difficulty
// for every client.
func NewFixedPolicy(d int) (Policy, error) { return policy.NewFixed(d) }

// NewLinearPolicy returns difficulty = base + round(slope × score), with
// base in [0, 64].
func NewLinearPolicy(base int, slope float64) (Policy, error) {
	return policy.NewLinear(base, slope)
}

// NewExponentialPolicy returns difficulty = base + round(2^(factor×score) − 1),
// with base in [0, 64].
func NewExponentialPolicy(base int, factor float64) (Policy, error) {
	return policy.NewExponential(base, factor)
}

// ParsePolicyRules compiles the policy rule DSL:
//
//	name edge-tiers
//	when score >= 8 use 14
//	when score >= 5 use 8
//	default 3
func ParsePolicyRules(src string) (Policy, error) { return policy.ParseRules(src) }

// ClampPolicy restricts an inner policy's output to [lo, hi].
func ClampPolicy(inner Policy, lo, hi int) (Policy, error) {
	return policy.NewClamp(inner, lo, hi)
}

// ConfidenceAwarePolicy is the optional Policy extension consuming
// scoring verdicts: the framework calls ConfidentDifficulty(score,
// confidence) when both the scorer and the policy support verdicts.
type ConfidenceAwarePolicy = policy.ConfidenceAware

// NewConfidenceShapedPolicy wraps inner in confidence shaping: scores
// above anchor are shaded toward it in proportion to lost confidence,
// bounded by floor (the enforced fraction at zero confidence). The
// spec-addressable form is "shape(inner=policy2, anchor=5, floor=0.5)".
func NewConfidenceShapedPolicy(inner Policy, anchor, floor float64) (Policy, error) {
	return policy.NewConfidenceShaped(inner, anchor, floor)
}

// LoadFunc reports instantaneous server load in [0, 1] for adaptive
// policies.
type LoadFunc = policy.LoadFunc

// NewLoadAdaptivePolicy shifts an inner policy's difficulty up by as much
// as maxShift at full load.
func NewLoadAdaptivePolicy(inner Policy, load LoadFunc, maxShift int) (Policy, error) {
	return policy.NewLoadAdaptive(inner, load, maxShift)
}

// ParsePolicy resolves a policy spec, the form a deployment spec's
// policy line takes: policy1, policy2, policy3(epsilon=, seed=),
// fixed(difficulty=), linear(base=, slope=), exponential(base=, factor=)
// or shape(inner=<spec>, anchor=, floor=). base, difficulty and seed are
// integers; base and epsilon lie in [0, 64].
func ParsePolicy(spec string) (Policy, error) { return policy.Parse(spec) }
