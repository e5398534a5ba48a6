// Package policy implements the paper's policy module: rule-based
// strategies that map a client's reputation score R ∈ [0, 10] (higher =
// less trustworthy) to a Proof-of-Work puzzle difficulty.
//
// The three policies evaluated in the paper are provided as constructors —
// Policy1 and Policy2 (linear mappings offset by 1 and 5 respectively) and
// Policy3 (the error-range mapping that compensates for the AI model's
// scoring error ε). Beyond those, the package supplies the building blocks
// a network administrator needs to express custom strategies: fixed and
// stepwise mappings, exponential mappings, difficulty clamping, a
// load-adaptive wrapper, a small text DSL, and a registry for
// name-addressable policies.
package policy

import (
	"fmt"
	"math"

	"aipow/internal/puzzle"
)

const (
	// MinScore and MaxScore bound the reputation scale, matching the AI
	// model's output contract.
	MinScore = 0.0
	MaxScore = 10.0
)

// Policy maps a reputation score to a puzzle difficulty. Implementations
// must be safe for concurrent use and must return difficulties within
// [puzzle.MinDifficulty, puzzle.MaxDifficulty] for any input score
// (out-of-range scores are clamped, not rejected: by the time a score
// reaches the policy the request is already being served a challenge).
type Policy interface {
	// Name identifies the policy in experiment tables and logs.
	Name() string

	// Difficulty returns the puzzle difficulty for the given score.
	Difficulty(score float64) int
}

// clampScore forces a score into [MinScore, MaxScore]; NaN maps to
// MaxScore, the conservative choice for a defense system (an undefined
// score is treated as maximally suspicious).
func clampScore(s float64) float64 {
	if math.IsNaN(s) {
		return MaxScore
	}
	if s < MinScore {
		return MinScore
	}
	if s > MaxScore {
		return MaxScore
	}
	return s
}

// clampDifficulty forces a difficulty into the protocol range.
func clampDifficulty(d int) int {
	if d < puzzle.MinDifficulty {
		return puzzle.MinDifficulty
	}
	if d > puzzle.MaxDifficulty {
		return puzzle.MaxDifficulty
	}
	return d
}

// Fixed is the classic non-adaptive PoW policy: every client gets the same
// difficulty regardless of reputation. It is the paper's implicit baseline
// (what "current state of the art" does) and the sim's fixed(difficulty=d)
// comparator.
type Fixed struct {
	// D is the difficulty issued to every request.
	D int
}

var _ Policy = Fixed{}

// NewFixed returns a Fixed policy, validating the difficulty.
func NewFixed(d int) (Fixed, error) {
	if d < puzzle.MinDifficulty || d > puzzle.MaxDifficulty {
		return Fixed{}, fmt.Errorf("policy: fixed difficulty %d outside [%d, %d]",
			d, puzzle.MinDifficulty, puzzle.MaxDifficulty)
	}
	return Fixed{D: d}, nil
}

// Name implements Policy.
func (f Fixed) Name() string { return fmt.Sprintf("fixed(%d)", f.D) }

// Difficulty implements Policy.
func (f Fixed) Difficulty(float64) int { return clampDifficulty(f.D) }

// Clamp wraps an inner policy and restricts its output to [Lo, Hi]. Use it
// to impose site-wide ceilings on third-party policies.
type Clamp struct {
	Inner  Policy
	Lo, Hi int
}

var _ Policy = Clamp{}

// NewClamp validates bounds and wraps inner.
func NewClamp(inner Policy, lo, hi int) (Clamp, error) {
	if inner == nil {
		return Clamp{}, fmt.Errorf("policy: clamp requires an inner policy")
	}
	if lo > hi {
		return Clamp{}, fmt.Errorf("policy: clamp bounds inverted [%d, %d]", lo, hi)
	}
	if lo < puzzle.MinDifficulty || hi > puzzle.MaxDifficulty {
		return Clamp{}, fmt.Errorf("policy: clamp bounds [%d, %d] outside protocol range", lo, hi)
	}
	return Clamp{Inner: inner, Lo: lo, Hi: hi}, nil
}

// Name implements Policy.
func (c Clamp) Name() string {
	return fmt.Sprintf("clamp(%s,%d..%d)", c.Inner.Name(), c.Lo, c.Hi)
}

// Difficulty implements Policy.
func (c Clamp) Difficulty(score float64) int {
	return c.clamp(c.Inner.Difficulty(score))
}

// ConfidentDifficulty implements ConfidenceAware by forwarding the
// confidence to the inner policy (a no-op pass-through when the inner
// policy ignores confidence), so the registry's mandatory difficulty
// clamp never strands a confidence-shaped policy underneath it.
func (c Clamp) ConfidentDifficulty(score, confidence float64) int {
	return c.clamp(Confident(c.Inner, score, confidence))
}

// Unwrap implements Unwrapper: Clamp is a pure forwarder of confidence.
func (c Clamp) Unwrap() Policy { return c.Inner }

func (c Clamp) clamp(d int) int {
	if d < c.Lo {
		d = c.Lo
	}
	if d > c.Hi {
		d = c.Hi
	}
	return d
}
