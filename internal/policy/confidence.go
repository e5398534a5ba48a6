package policy

import (
	"fmt"
	"math"
)

// ConfidenceAware is the optional extension of Policy for scorers that
// produce calibrated verdicts (score + confidence) instead of bare scores.
// The core framework threads the scorer's confidence through to the
// policy when both sides support it; plain policies keep receiving only
// the score. Implementations must treat ConfidentDifficulty(s, 1) and
// Difficulty(s) as equivalent, so a pipeline whose scorer cannot produce
// confidence behaves exactly as before.
type ConfidenceAware interface {
	Policy

	// ConfidentDifficulty maps a (score, confidence) verdict to a puzzle
	// difficulty. Confidence is in [0, 1]; out-of-range or NaN values are
	// clamped (NaN → 1, the conservative full-enforcement reading).
	ConfidentDifficulty(score, confidence float64) int
}

// Confident applies p to a verdict: the confidence-aware path when p
// supports it, the plain score path otherwise. Wrappers (Clamp,
// LoadAdaptive) use it to forward confidence through to their inner
// policy without caring whether it is confidence-aware.
func Confident(p Policy, score, confidence float64) int {
	if ca, ok := p.(ConfidenceAware); ok {
		return ca.ConfidentDifficulty(score, confidence)
	}
	return p.Difficulty(score)
}

// Unwrapper is implemented by pass-through wrappers (Clamp, LoadAdaptive)
// so ConsumesConfidence can walk a policy chain.
type Unwrapper interface {
	// Unwrap reports the wrapped inner policy.
	Unwrap() Policy
}

// ConsumesConfidence reports whether p — or a policy it transitively
// wraps — actually uses the confidence argument, as opposed to merely
// forwarding it. The serving path uses this to skip computing a verdict
// nobody reads: Clamp and LoadAdaptive implement ConfidenceAware for
// forwarding, so a bare type assertion would make every clamped policy
// look confidence-hungry. Pure forwarders are recognized by Unwrapper;
// any other ConfidenceAware implementation counts as a consumer.
func ConsumesConfidence(p Policy) bool {
	for p != nil {
		if w, ok := p.(Unwrapper); ok {
			p = w.Unwrap()
			continue
		}
		_, ok := p.(ConfidenceAware)
		return ok
	}
	return false
}

// clampConfidence forces a confidence into [0, 1]; NaN maps to 1 — an
// undefined confidence must not weaken the defense.
func clampConfidence(c float64) float64 {
	if math.IsNaN(c) || c > 1 {
		return 1
	}
	if c < 0 {
		return 0
	}
	return c
}

// ConfidenceShaped makes an inner policy verdict-driven: the full
// difficulty is charged only when the score *and* the model's confidence
// in it are high. Scores above the anchor are shaded toward it in
// proportion to the lost confidence, bounded by the shading floor —
//
//	effective = anchor + (floor + (1−floor) × confidence) × (score − anchor)
//
// — so a barely-confident "9" is priced a couple of difficulty levels
// under a confident "9", never collapsed to the anchor outright. Scores
// at or below the anchor pass through untouched: uncertainty about a
// good client must never raise its price.
//
// This is the principled replacement for Policy 3's blind randomization.
// Policy 3 pays for model error with noise: every score is issued a
// difficulty drawn uniformly from a ±ε interval, attackers drawing the
// discount as often as misscored clients. Shaping spends the same
// compensation budget — with the default floor of 1/2, the maximum
// shading at the top of the scale is (MaxScore−anchor)/2 = 2.5 difficulty
// levels, exactly Policy 3's default ε — but directionally, per request,
// deterministically, and only where the model itself reports uncertainty.
//
// ConfidenceShaped is safe for concurrent use if its inner policy is.
type ConfidenceShaped struct {
	inner  Policy
	anchor float64
	floor  float64
}

var _ ConfidenceAware = (*ConfidenceShaped)(nil)

// DefaultShapeAnchor is the shading anchor when none is given: the
// score-5 decision boundary, so shading can never move a score across the
// model's own malicious/benign boundary.
const DefaultShapeAnchor = 5.0

// DefaultShapeFloor is the shading floor when none is given: at least
// half of a score's distance to the anchor stays enforced at any
// confidence, capping the maximum shading at the top of the scale to
// (MaxScore − anchor)/2 — the magnitude of Policy 3's default ε.
const DefaultShapeFloor = 0.5

// NewConfidenceShaped wraps inner. The anchor is the score low-confidence
// verdicts are shaded toward, in [MinScore, MaxScore]; the floor is the
// enforced fraction of the score-to-anchor distance at zero confidence,
// in [0, 1] (0 = full shading allowed, 1 = shaping disabled).
func NewConfidenceShaped(inner Policy, anchor, floor float64) (*ConfidenceShaped, error) {
	if inner == nil {
		return nil, fmt.Errorf("policy: confidence shaping requires an inner policy")
	}
	if math.IsNaN(anchor) || anchor < MinScore || anchor > MaxScore {
		return nil, fmt.Errorf("policy: shape anchor %v outside [%v, %v]", anchor, MinScore, MaxScore)
	}
	if math.IsNaN(floor) || floor < 0 || floor > 1 {
		return nil, fmt.Errorf("policy: shape floor %v outside [0, 1]", floor)
	}
	return &ConfidenceShaped{inner: inner, anchor: anchor, floor: floor}, nil
}

// Name implements Policy.
func (p *ConfidenceShaped) Name() string {
	return fmt.Sprintf("shape(%s,anchor=%g,floor=%g)", p.inner.Name(), p.anchor, p.floor)
}

// Difficulty implements Policy: with no confidence available the score is
// enforced at face value, matching ConfidentDifficulty(score, 1).
func (p *ConfidenceShaped) Difficulty(score float64) int {
	return p.inner.Difficulty(score)
}

// ConfidentDifficulty implements ConfidenceAware.
func (p *ConfidenceShaped) ConfidentDifficulty(score, confidence float64) int {
	s := clampScore(score)
	if s > p.anchor {
		w := p.floor + (1-p.floor)*clampConfidence(confidence)
		s = p.anchor + w*(s-p.anchor)
	}
	return p.inner.Difficulty(s)
}
