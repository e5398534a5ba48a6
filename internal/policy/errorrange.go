package policy

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
)

// DefaultEpsilon is the default scoring-error allowance for Policy 3. The
// paper inherits ε from DAbR's reported scoring error; 2.5 reproduces the
// figure's "between Policy 1 and Policy 2" growth.
const DefaultEpsilon = 2.5

// ErrorRange is the paper's Policy 3: because the AI model's score sᵢ
// carries error ε, the true score may be higher or lower than reported.
// The policy compensates by computing dᵢ = ⌈sᵢ + 1⌉ and then drawing the
// issued difficulty uniformly from the integer interval
// [⌈dᵢ − ε⌉, ⌈dᵢ + ε⌉], clamped to the protocol range.
//
// Note the deliberate asymmetry for fractional ε: ⌈dᵢ − 2.5⌉ = dᵢ − 2 but
// ⌈dᵢ + 2.5⌉ = dᵢ + 3, so the interval skews one step toward harder
// puzzles — a defense system rounds its uncertainty against the client.
//
// ErrorRange is safe for concurrent use.
type ErrorRange struct {
	epsilon float64
	mu      *sync.Mutex
	rng     *rand.Rand
}

var _ Policy = (*ErrorRange)(nil)

// ErrorRangeOption customizes an ErrorRange policy.
type ErrorRangeOption func(*ErrorRange)

// WithEpsilon sets the scoring-error allowance (default DefaultEpsilon).
func WithEpsilon(eps float64) ErrorRangeOption {
	return func(p *ErrorRange) { p.epsilon = eps }
}

// WithSeed makes the difficulty draws deterministic, for reproducible
// simulations and tests.
func WithSeed(seed uint64) ErrorRangeOption {
	return func(p *ErrorRange) { p.rng = rand.New(rand.NewPCG(seed, 0xA5A5A5A55A5A5A5A)) }
}

// Policy3 returns the paper's Policy 3 with the given options applied.
func Policy3(opts ...ErrorRangeOption) (*ErrorRange, error) {
	p := &ErrorRange{
		epsilon: DefaultEpsilon,
		mu:      &sync.Mutex{},
		rng:     rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64())),
	}
	for _, opt := range opts {
		opt(p)
	}
	if p.epsilon < 0 || math.IsNaN(p.epsilon) || math.IsInf(p.epsilon, 0) {
		return nil, fmt.Errorf("policy: epsilon must be finite and non-negative, got %v", p.epsilon)
	}
	return p, nil
}

// Name implements Policy.
func (p *ErrorRange) Name() string { return fmt.Sprintf("policy3(eps=%g)", p.epsilon) }

// Epsilon reports the configured error allowance.
func (p *ErrorRange) Epsilon() float64 { return p.epsilon }

// Difficulty implements Policy. It draws uniformly from the error interval
// around dᵢ = ⌈score + 1⌉.
func (p *ErrorRange) Difficulty(score float64) int {
	s := clampScore(score)
	di := int(math.Ceil(s + 1))
	lo := di + int(math.Ceil(-p.epsilon))
	hi := di + int(math.Ceil(p.epsilon))
	if lo > hi { // cannot happen for ε ≥ 0, but keep the invariant local
		lo, hi = hi, lo
	}
	p.mu.Lock()
	d := lo + p.rng.IntN(hi-lo+1)
	p.mu.Unlock()
	return clampDifficulty(d)
}

// Interval reports the [lo, hi] difficulty interval (before protocol
// clamping) that Difficulty draws from for the given score. It exists so
// experiments and tests can reason about the draw without consuming
// randomness.
func (p *ErrorRange) Interval(score float64) (lo, hi int) {
	s := clampScore(score)
	di := int(math.Ceil(s + 1))
	return di + int(math.Ceil(-p.epsilon)), di + int(math.Ceil(p.epsilon))
}
